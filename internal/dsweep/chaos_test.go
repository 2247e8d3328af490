package dsweep

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"intracache/internal/experiment"
	"intracache/internal/fault"
)

// TestMain doubles as the worker binary: the chaos differential test
// re-execs this test executable with DSWEEP_STDIO_WORKER=1, turning it
// into a real worker process that can genuinely be killed mid-cell.
func TestMain(m *testing.M) {
	if os.Getenv("DSWEEP_STDIO_WORKER") == "1" {
		runStdioWorker()
		return
	}
	os.Exit(m.Run())
}

func runStdioWorker() {
	opts := ServeOptions{
		JournalPath:    os.Getenv("DSWEEP_WORKER_JOURNAL"),
		HeartbeatEvery: 10 * time.Millisecond,
	}
	if s := os.Getenv("DSWEEP_WORKER_CHAOS"); s != "" {
		plan, err := fault.ParseExecPlan(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker chaos:", err)
			os.Exit(2)
		}
		opts.Chaos = plan
	}
	if err := ServeStdio(context.Background(), opts); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// pipeEnds wires an in-process worker: the returned writer/scanner are
// the coordinator's ends.
func startPipeServe(t *testing.T, opts ServeOptions) (io.WriteCloser, *io.PipeReader, chan error) {
	t.Helper()
	taskR, taskW := io.Pipe()
	resR, resW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		err := Serve(context.Background(), taskR, resW, opts)
		resW.Close()
		done <- err
	}()
	return taskW, resR, done
}

func testTask(points []experiment.SweepPoint, i, attempt int) Task {
	fp := experiment.SweepFingerprint(points, testBench, testBaseline, testCandidate, 0)
	return Task{
		Key:         experiment.CellKey(i, points[i].Label),
		Index:       i,
		Label:       points[i].Label,
		Benchmark:   testBench,
		Baseline:    testBaseline.String(),
		Candidate:   testCandidate.String(),
		Fingerprint: fp,
		Attempt:     attempt,
		Cfg:         points[i].Cfg,
	}
}

func TestServeProtocolRoundTrip(t *testing.T) {
	points := testPoints(1)
	taskW, resR, done := startPipeServe(t, ServeOptions{HeartbeatEvery: time.Nanosecond})
	sc := newFrameScanner(resR)

	if err := writeFrame(taskW, framePing, nil); err != nil {
		t.Fatal(err)
	}
	kind, _, err := readFrame(sc)
	if err != nil || kind != framePong {
		t.Fatalf("probe answered %q, %v; want PONG", kind, err)
	}

	payload, err := sealJSON(testTask(points, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(taskW, frameTask, payload); err != nil {
		t.Fatal(err)
	}
	beats := 0
	var res Result
	for {
		kind, payload, err := readFrame(sc)
		if err != nil {
			t.Fatalf("reading worker stream: %v", err)
		}
		if kind == frameBeat {
			beats++
			continue
		}
		if kind != frameResult {
			t.Fatalf("unexpected %q frame", kind)
		}
		if err := unsealJSON(payload, &res); err != nil {
			t.Fatalf("result failed envelope check: %v", err)
		}
		break
	}
	if beats == 0 {
		t.Error("no heartbeats while the cell computed")
	}
	if res.failed() {
		t.Fatalf("cell failed remotely: %s: %s", res.ErrKind, res.Err)
	}
	want, _, err := experiment.RunSweepCell(context.Background(), res.Key, points[0].Cfg,
		testBench, testBaseline, testCandidate, experiment.CellOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Record != want {
		t.Errorf("worker record %+v differs from in-process %+v", res.Record, want)
	}

	taskW.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve exit: %v", err)
	}
}

func TestServeChaosCorruptReplyThenCleanRetry(t *testing.T) {
	points := testPoints(1)
	taskW, resR, _ := startPipeServe(t, ServeOptions{
		HeartbeatEvery: time.Nanosecond,
		Chaos:          fault.ExecPlan{Seed: 1, CorruptRate: 1},
	})
	sc := newFrameScanner(resR)

	sendTask := func(attempt int) (Result, error) {
		t.Helper()
		payload, err := sealJSON(testTask(points, 0, attempt))
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(taskW, frameTask, payload); err != nil {
			t.Fatal(err)
		}
		for {
			kind, payload, err := readFrame(sc)
			if err != nil {
				t.Fatalf("reading worker stream: %v", err)
			}
			if kind == frameBeat {
				continue
			}
			var res Result
			return res, unsealJSON(payload, &res)
		}
	}

	// Attempt 1 draws the corruption: the sealed reply must fail the
	// envelope check rather than decode to garbage.
	if _, err := sendTask(1); err == nil {
		t.Fatal("corrupted reply passed the envelope check")
	}
	// Attempt 2 is past FaultAttempts: the re-dispatch runs clean.
	res, err := sendTask(2)
	if err != nil {
		t.Fatalf("clean retry still corrupt: %v", err)
	}
	if res.failed() {
		t.Fatalf("clean retry failed: %s", res.Err)
	}
	taskW.Close()
}

func TestServeChaosKillDiesMidCell(t *testing.T) {
	points := testPoints(1)
	exitCode := make(chan int, 1)
	taskR, taskW := io.Pipe()
	resR, resW := io.Pipe()
	go func() {
		Serve(context.Background(), taskR, resW, ServeOptions{
			HeartbeatEvery: time.Nanosecond,
			Chaos:          fault.ExecPlan{Seed: 1, KillRate: 1},
			Exit: func(code int) {
				exitCode <- code
				resW.Close()
				runtime.Goexit()
			},
		})
		resW.Close()
	}()
	payload, err := sealJSON(testTask(points, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(taskW, frameTask, payload); err != nil {
		t.Fatal(err)
	}
	sc := newFrameScanner(resR)
	for {
		kind, _, err := readFrame(sc)
		if err == io.EOF {
			break // the worker died without replying — as a kill must
		}
		if err != nil {
			t.Fatalf("reading worker stream: %v", err)
		}
		if kind == frameResult {
			t.Fatal("killed worker still delivered a result")
		}
	}
	select {
	case code := <-exitCode:
		if code != 3 {
			t.Fatalf("worker exited %d, want 3", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker never exited")
	}
	taskW.Close()
}

func TestHTTPWorkerEndToEnd(t *testing.T) {
	points := testPoints(3)
	want, wantJournal := referenceSweep(t, points)

	handler, err := NewHandler(ServeOptions{HeartbeatEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()

	journal := filepath.Join(t.TempDir(), "coord.journal")
	got, stats, err := Run(context.Background(), points, testBench, testBaseline, testCandidate,
		Options{
			Workers:     []Worker{&HTTPWorker{BaseURL: srv.URL}},
			JournalPath: journal,
			Log:         t.Logf,
		})
	if err != nil {
		t.Fatalf("HTTP sweep: %v", err)
	}
	compareResults(t, got, want)
	if stats.Computed != len(points) {
		t.Errorf("stats = %+v, want %d computed over HTTP", stats, len(points))
	}
	if string(readFile(t, journal)) != string(wantJournal) {
		t.Error("HTTP-worker journal is not byte-identical to the reference journal")
	}
}

// TestChaosDifferentialExecWorkers is the acceptance test: a sweep
// across real worker subprocesses under deterministic chaos — kills,
// silent hangs, slow starts, corrupted and truncated replies — must
// complete with results and a merged journal byte-identical to the
// fault-free in-process sweep, with every cell's attempted-count
// accounted for and no cell merged twice.
func TestChaosDifferentialExecWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	points := testPoints(12)
	want, wantJournal := referenceSweep(t, points)

	// Seed 6 is pinned so the 12 first-attempt draws contain 2 kills,
	// 2 hangs, 2 corruptions, 1 truncation and 1 slow start (the
	// injector is a pure function of seed/key/attempt, so this is
	// stable): 4 of 6 workers are killed or hung mid-cell — over the
	// 30% floor — and 2 survive to absorb the re-dispatches.
	plan := fault.ExecPlan{Seed: 6, KillRate: 0.2, HangRate: 0.15, SlowStartRate: 0.1,
		CorruptRate: 0.1, TruncateRate: 0.05, SlowStart: 20 * time.Millisecond}
	wantKills, wantHangs := plannedFaults(t, plan, points)

	const fleet = 6
	dir := t.TempDir()
	workers := make([]Worker, fleet)
	for i := range workers {
		wj := filepath.Join(dir, fmt.Sprintf("worker%d.journal", i))
		w, err := StartExecWorker(ExecWorkerSpec{
			Name: fmt.Sprintf("w%d", i),
			Argv: []string{exe},
			Env: []string{
				"DSWEEP_STDIO_WORKER=1",
				"DSWEEP_WORKER_JOURNAL=" + wj,
				"DSWEEP_WORKER_CHAOS=" + plan.String(),
			},
			Journal: wj,
		})
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()

	journal := filepath.Join(dir, "coord.journal")
	got, stats, err := Run(context.Background(), points, testBench, testBaseline, testCandidate,
		Options{
			Workers:     workers,
			JournalPath: journal,
			Lease:       700 * time.Millisecond,
			Cell: experiment.CellOptions{Retry: experiment.RetryPolicy{
				Attempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond}},
			MaxWorkerFailures: 5,
			Log:               t.Logf,
		})
	if err != nil {
		t.Fatalf("chaos sweep: %v", err)
	}

	// The differential: byte-identical journal, identical records.
	compareResults(t, got, want)
	if string(readFile(t, journal)) != string(wantJournal) {
		t.Error("chaos-run journal is not byte-identical to the fault-free in-process journal")
	}
	if n := stats.Computed + stats.Recovered + stats.Local; n != len(points) {
		t.Errorf("merged %d cells (%+v), want %d", n, stats, len(points))
	}

	// Every cell's attempted-count is logged, and faulted first
	// attempts forced re-dispatches.
	for i := range points {
		key := experiment.CellKey(i, points[i].Label)
		n, ok := stats.Attempts[key]
		if !ok || n < 1 {
			t.Errorf("cell %s has no attempted-count (%d)", key, n)
		}
		t.Logf("attempts[%s] = %d", key, n)
	}
	if stats.Redispatches == 0 {
		t.Error("chaos run finished without a single re-dispatch")
	}

	// The chaos actually bit: both loss classes fired, and at least
	// 30% of the fleet was killed or hung mid-cell. (Kills surface as
	// worker-died, hangs as lease-expiry stalls; each loss retires a
	// worker, so events can only fall short of the plan if the fleet
	// was already fully dead — which needs 6 >= wantKills+wantHangs
	// events anyway.)
	kills := stats.ErrKinds[experiment.KindWorkerDied]
	hangs := stats.ErrKinds[experiment.KindStalled]
	t.Logf("chaos stats: %+v", stats)
	if kills < wantKills || hangs < wantHangs {
		t.Errorf("observed %d kills + %d hangs, want >= %d + %d", kills, hangs, wantKills, wantHangs)
	}
	if lost := kills + hangs; lost*10 < fleet*3 {
		t.Errorf("only %d of %d workers killed/hung (< 30%%)", lost, fleet)
	}
	if stats.Duplicates != 0 {
		t.Errorf("%d duplicate results were delivered (all must be dropped pre-merge)", stats.Duplicates)
	}
}

// plannedFaults replays the chaos plan's first-attempt draws so the
// test can assert the observed fault mix against the plan rather than
// against hard-coded numbers.
func plannedFaults(t *testing.T, plan fault.ExecPlan, points []experiment.SweepPoint) (kills, hangs int) {
	t.Helper()
	in, err := fault.NewExecInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		switch in.Draw(experiment.CellKey(i, points[i].Label), 1) {
		case fault.ExecKill:
			kills++
		case fault.ExecHang:
			hangs++
		}
	}
	if kills < 2 || hangs < 2 {
		t.Fatalf("pinned chaos seed draws %d kills / %d hangs; retune the seed", kills, hangs)
	}
	return kills, hangs
}
