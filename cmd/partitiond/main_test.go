package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"intracache/internal/service"
	"intracache/internal/sim"
	"intracache/internal/xrand"
)

// daemonArg, as the first argument, makes the test binary run the
// partitiond command on the remaining arguments instead of the tests,
// so a test can start, and kill, a real daemon process.
const daemonArg = "-partitiond-daemon"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == daemonArg {
		os.Args = append([]string{"partitiond"}, os.Args[2:]...)
		main()
		os.Exit(exitOK)
	}
	os.Exit(m.Run())
}

// smokeBatch builds a small healthy batch for the daemon tests.
func smokeBatch(app string, jitter uint64) service.Batch {
	b := service.Batch{App: app, Threads: 2, Ways: 8}
	for i := uint64(0); i < 4; i++ {
		b.Samples = append(b.Samples, service.Sample{Threads: []sim.ThreadIntervalStats{
			{Instructions: 100_000, ActiveCycles: 150_000 + (jitter+i)*777, L2Accesses: 500, L2Hits: 400, L2Misses: 100 + i},
			{Instructions: 100_000, ActiveCycles: 250_000 + (jitter+i)*333, L2Accesses: 800, L2Hits: 500, L2Misses: 300 + i},
		}})
	}
	return b
}

func postBatch(t *testing.T, base string, b service.Batch) service.IngestReply {
	t.Helper()
	body, err := service.SealJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/ingest", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var reply service.IngestReply
	if err := service.UnsealJSON(data, &reply); err != nil {
		t.Fatalf("code %d body %q: %v", resp.StatusCode, data, err)
	}
	return reply
}

// TestServeDrainAndRestart runs the daemon loop in-process: ingest a
// batch over HTTP, SIGTERM it, and check the drain contract — exit 0,
// queued samples flushed through a final decision, checkpoint written
// — then restart from the checkpoint and confirm the session survived
// and the restarted daemon serves.
func TestServeDrainAndRestart(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "pd.ckpt")
	run := func(ingest bool) int {
		bound := make(chan string, 1)
		exit := make(chan int, 1)
		go func() {
			exit <- serve("127.0.0.1:0", service.Options{}, 1, 0, 20*time.Millisecond, 0, ckpt, 0, bound)
		}()
		base := "http://" + <-bound
		if ingest {
			if rep := postBatch(t, base, smokeBatch("web-01", 1)); rep.Accepted != 4 {
				t.Fatalf("ingest: %+v", rep)
			}
		} else {
			// The restarted daemon must have restored the session.
			deadline := time.Now().Add(2 * time.Second)
			for {
				resp, err := http.Get(base + "/alloc?app=web-01")
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						break
					}
					t.Fatalf("restored daemon: /alloc -> %d", resp.StatusCode)
				}
				if time.Now().After(deadline) {
					t.Fatal("restored daemon never answered /alloc")
				}
				time.Sleep(10 * time.Millisecond)
			}
			// The drain belonged to the stopped daemon: the restarted
			// one is ready and takes batches.
			resp, err := http.Get(base + "/readyz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("restored daemon: /readyz -> %d", resp.StatusCode)
			}
			if rep := postBatch(t, base, smokeBatch("web-01", 2)); rep.Accepted != 4 {
				t.Fatalf("restored daemon: ingest: %+v", rep)
			}
		}
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case code := <-exit:
			return code
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not drain within 10s of SIGTERM")
			return -1
		}
	}

	if code := run(true); code != exitOK {
		t.Fatalf("first daemon exit=%d, want %d", code, exitOK)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("drain wrote no checkpoint: %v", err)
	}
	// The checkpoint must carry the session with its queued samples
	// already flushed to a decision by the final drain tick.
	svc := service.New(service.Options{})
	if err := svc.LoadCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	alloc, ok := svc.Allocation("web-01")
	if !ok {
		t.Fatal("checkpoint lost the session")
	}
	if alloc.Queued != 0 || alloc.Interval != 4 {
		t.Fatalf("drain left unflushed samples: %+v", alloc)
	}
	if code := run(false); code != exitOK {
		t.Fatalf("restarted daemon exit=%d, want %d", code, exitOK)
	}
}

// TestServeShardedDrainAndRestart runs the daemon at -shards 4: ingest
// over HTTP routes to the owning shard, a watch long-poll is answered
// by the ticker's next decision, SIGTERM drains into per-shard
// checkpoint files under one manifest, and a restarted daemon at the
// same shard count restores the session.
func TestServeShardedDrainAndRestart(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "pd.ckpt")
	run := func(ingest bool) int {
		bound := make(chan string, 1)
		exit := make(chan int, 1)
		go func() {
			exit <- serve("127.0.0.1:0", service.Options{}, 4, 2, 20*time.Millisecond, 0, ckpt, 0, bound)
		}()
		base := "http://" + <-bound
		if ingest {
			if rep := postBatch(t, base, smokeBatch("web-01", 1)); rep.Accepted != 4 {
				t.Fatalf("ingest: %+v", rep)
			}
			// The push path against the live ticker: epoch 1 is the
			// creation state, so the first decision answers the watch.
			resp, err := http.Get(base + "/alloc?app=web-01&watch=1&epoch=1&timeout=5s")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("watch against live daemon: %d", resp.StatusCode)
			}
		} else {
			deadline := time.Now().Add(2 * time.Second)
			for {
				resp, err := http.Get(base + "/alloc?app=web-01")
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						break
					}
					t.Fatalf("restored daemon: /alloc -> %d", resp.StatusCode)
				}
				if time.Now().After(deadline) {
					t.Fatal("restored daemon never answered /alloc")
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case code := <-exit:
			return code
		case <-time.After(10 * time.Second):
			t.Fatal("sharded daemon did not drain within 10s of SIGTERM")
			return -1
		}
	}

	if code := run(true); code != exitOK {
		t.Fatalf("first sharded daemon exit=%d, want %d", code, exitOK)
	}
	// The drain must have written the manifest plus the owning shard's
	// file; a wrong-count restart must be refused.
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("drain wrote no manifest: %v", err)
	}
	// The drain's save is the manifest's first generation, so shard
	// files carry the .g1 stamp (each save writes a fresh generation and
	// GCs the old one only after the manifest commits).
	own := service.ShardIndex("web-01", 4)
	if _, err := os.Stat(fmt.Sprintf("%s.g1.shard%d", ckpt, own)); err != nil {
		t.Fatalf("drain wrote no shard file for the session's shard: %v", err)
	}
	wrong := service.NewSharded(service.Options{}, 2, 1)
	if err := wrong.LoadCheckpoint(ckpt); err == nil {
		t.Fatal("2-shard restore of the 4-shard daemon checkpoint succeeded")
	}
	if code := run(false); code != exitOK {
		t.Fatalf("restarted sharded daemon exit=%d, want %d", code, exitOK)
	}
}

// TestCommandLine re-execs the test binary as partitiond and checks
// the flag surface: usage errors exit 2 before any checkpoint restore
// or listen, and the help text lists exactly the serving flags.
func TestCommandLine(t *testing.T) {
	// BAD in args names a file that is not a checkpoint: a run that
	// reached the restore would exit 1 on it, not 2.
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	type tcase struct {
		args   string
		code   int
		stderr string
	}
	cases := []tcase{
		{"-tick 0 -checkpoint BAD", exitUsage, "-tick must be positive"},
		{"-tick -1s -checkpoint BAD", exitUsage, "-tick must be positive"},
		{"-checkpoint BAD -listen 127.0.0.1:0", exitHard, "restoring checkpoint"},
	}
	// The load-harness flags are gone; each is an unknown flag now.
	for _, f := range []string{"selftest", "apps", "steps", "threads", "ways", "seed",
		"fault-cpi-noise", "fault-drop", "fault-stuck", "fault-fraction", "burst-every",
		"slo-p99", "kill-step", "json", "out"} {
		cases = append(cases, tcase{"-" + f + " 3", exitUsage, "flag provided but not defined: -" + f})
	}
	for _, tc := range cases {
		t.Run(tc.args, func(t *testing.T) {
			code, stderr := runPartitiond(t, strings.Fields(strings.ReplaceAll(tc.args, "BAD", bad))...)
			if code != tc.code {
				t.Fatalf("exit code %d, want %d\nstderr: %s", code, tc.code, stderr)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr)
			}
		})
	}

	t.Run("-h", func(t *testing.T) {
		code, stderr := runPartitiond(t, "-h")
		if code != exitOK {
			t.Fatalf("exit code %d, want %d\nstderr: %s", code, exitOK, stderr)
		}
		var got []string
		for _, line := range strings.Split(stderr, "\n") {
			rest, ok := strings.CutPrefix(line, "  -")
			if !ok || strings.HasPrefix(rest, "test.") { // the test binary's own flags
				continue
			}
			name, _, _ := strings.Cut(rest, " ")
			got = append(got, name)
		}
		want := []string{"checkpoint", "checkpoint-every", "deadline", "listen", "max-sessions",
			"pressure-highwater", "queue-cap", "samples-per-tick", "shards", "tick", "tick-workers"}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("flags %v, want %v", got, want)
		}
	})
}

// runPartitiond re-execs the test binary as partitiond with args and
// returns its exit code and stderr.
func runPartitiond(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{daemonArg}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// TestServeSurvivesSIGKILL kills a real daemon process with SIGKILL at
// seeded points while it ingests and checkpoints on every 5ms tick, so
// a kill can land at any point of a checkpoint write. After every kill
// the checkpoint on disk, if any, must load, its tick counter must never
// go backwards, and the next daemon must restore it.
func TestServeSurvivesSIGKILL(t *testing.T) {
	const rounds = 20
	ckpt := filepath.Join(t.TempDir(), "pd.ckpt")
	rng := xrand.New(20261017)
	var lastTicks uint64
	restores := 0
	restored := "" // the restore line the next daemon must log
	for round := 0; round < rounds; round++ {
		d := startDaemon(t, "-listen", "127.0.0.1:0", "-tick", "5ms",
			"-checkpoint-every", "1", "-checkpoint", ckpt)
		if restored != "" && !strings.Contains(d.startup, restored) {
			t.Fatalf("round %d: daemon did not log %q:\n%s", round, restored, d.startup)
		}
		for i := 0; i < 3; i++ {
			app := fmt.Sprintf("app-%02d-%d", round, i)
			if rep := postBatch(t, d.base, smokeBatch(app, uint64(round+i))); rep.Accepted != 4 {
				t.Fatalf("round %d: ingest %s: %+v", round, app, rep)
			}
		}
		time.Sleep(time.Duration(rng.Intn(40)) * time.Millisecond)
		d.kill(t)

		if _, err := os.Stat(ckpt); err != nil {
			restored = ""
			continue
		}
		svc := service.New(service.Options{})
		if err := svc.LoadCheckpoint(ckpt); err != nil {
			t.Fatalf("round %d: checkpoint left by SIGKILL does not load: %v", round, err)
		}
		st := svc.SnapshotStats()
		if st.Ticks < lastTicks {
			t.Fatalf("round %d: restored tick counter went back from %d to %d", round, lastTicks, st.Ticks)
		}
		lastTicks = st.Ticks
		restores++
		restored = fmt.Sprintf("restored %d sessions (tick %d)", st.Sessions, st.Ticks)
	}
	if lastTicks == 0 {
		t.Fatal("no round left a checkpoint with a tick in it")
	}
	t.Logf("%d/%d kills left a loadable checkpoint; last restored tick %d", restores, rounds, lastTicks)
}

// daemon is a partitiond process started by startDaemon.
type daemon struct {
	cmd     *exec.Cmd
	base    string        // http://host:port
	startup string        // stderr up to and including the listening line
	drained chan struct{} // closed once the rest of stderr is read
}

// startDaemon re-execs the test binary as partitiond with args and
// waits for its "listening on" line.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{daemonArg}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil { // not reaped: the test failed early
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	listening := make(chan string, 1)
	var startup strings.Builder
	go func(out chan<- string) {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if out == nil {
				continue // keep draining so the daemon never blocks on stderr
			}
			startup.WriteString(line + "\n")
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				out <- addr
				out = nil
			}
		}
		if out != nil {
			close(out)
		}
	}(listening)
	select {
	case addr, ok := <-listening:
		if !ok {
			t.Fatalf("daemon exited before listening:\n%s", startup.String())
		}
		d.base = "http://" + addr
		d.startup = startup.String()
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not start listening within 30s")
	}
	return d
}

// kill SIGKILLs the daemon and reaps it.
func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	<-d.drained
	if err := d.cmd.Wait(); err == nil {
		t.Fatal("SIGKILLed daemon exited cleanly")
	}
}
