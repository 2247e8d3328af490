package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"intracache/internal/experiment"
)

// TestMain doubles as the sweep command: with SWEEP_TEST_ARGS set, the
// test binary runs main on those arguments, so the tests can observe
// the real exit code and output of a re-executed process.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("SWEEP_TEST_ARGS"); ok {
		os.Args = append([]string{"sweep"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSweep re-executes the test binary as the sweep command and
// returns its exit code, stdout and stderr.
func runSweep(t *testing.T, args string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "SWEEP_TEST_ARGS="+args)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stdout.String(), stderr.String()
}

func TestCommandLine(t *testing.T) {
	for _, tc := range []struct {
		args   string
		code   int
		stdout []string
		stderr []string
		// absent must not appear on stdout.
		absent []string
		// DIR in args is replaced by a fresh path. dirAbsent: the run
		// must not create it; noJournal: it must hold no journal.
		dirAbsent, noJournal bool
	}{
		{args: "-kind interval -sections 1", code: exitOK,
			stdout: []string{`interval sweep on "cg": model-based vs shared`, "50k instr", "800k instr"}},
		{args: "-kind bogus", code: exitHard,
			stderr: []string{`unknown sweep kind "bogus"`}},
		{args: "-baseline nope", code: exitHard,
			stderr: []string{`unknown policy "nope"`}},
		// An unknown flag is a usage error: the flag package exits 2.
		{args: "-shards 2", code: 2,
			stderr: []string{"flag provided but not defined: -shards"}},
		// The distributed-sweep flags are gone.
		{args: "-worker stdio", code: 2,
			stderr: []string{"flag provided but not defined: -worker"}},
		{args: "-worker-journal w.journal", code: 2,
			stderr: []string{"flag provided but not defined: -worker-journal"}},
		{args: "-exec-workers 2", code: 2,
			stderr: []string{"flag provided but not defined: -exec-workers"}},
		{args: "-worker-url http://127.0.0.1:9090", code: 2,
			stderr: []string{"flag provided but not defined: -worker-url"}},
		{args: "-lease 1s", code: 2,
			stderr: []string{"flag provided but not defined: -lease"}},
		{args: "-chaos seed=1", code: 2,
			stderr: []string{"flag provided but not defined: -chaos"}},
		// Trace sharing is always on (every cell runs as a lockstep
		// pair), so its switch is gone.
		{args: "-share-traces", code: 2,
			stderr: []string{"flag provided but not defined: -share-traces"}},
		// The stall watchdog is gone; -cell-timeout bounds a cell.
		{args: "-stall-timeout 1s", code: 2,
			stderr: []string{"flag provided but not defined: -stall-timeout"}},
		// A bad kind is rejected before -resume creates its directory.
		{args: "-kind bogus -resume DIR", code: exitHard, dirAbsent: true,
			stderr: []string{`unknown sweep kind "bogus"`}},
		// A run with no sections does no work: a hard error, not a
		// sweep of zero-cycle successes, and nothing is journaled.
		{args: "-kind interval -sections 0 -resume DIR", code: exitHard, noJournal: true,
			stderr: []string{"Sections 0: need a positive run length"}},
		// The set-index and clustered partition geometries are gone,
		// with their flags and their sweep kind.
		{args: "-mechanism ways", code: 2,
			stderr: []string{"flag provided but not defined: -mechanism"}},
		{args: "-set-groups 4", code: 2,
			stderr: []string{"flag provided but not defined: -set-groups"}},
		{args: "-clusters 8", code: 2,
			stderr: []string{"flag provided but not defined: -clusters"}},
		{args: "-kind mechanism", code: exitHard,
			stderr: []string{`unknown sweep kind "mechanism"`}},
		// An explicit -bench and -candidate narrow the robustness
		// matrix to one benchmark and one policy (static-equal is
		// policy 2): four fault levels, no other benchmark or policy.
		{args: "-kind robust -bench cg -candidate static-equal -sections 1 -json", code: exitOK,
			stdout: []string{`"Benchmark": "cg"`, `"Policy": 2`, `"Level": "catastrophic"`},
			absent: []string{`"Benchmark": "swim"`, `"Policy": 3`, `"Policy": 4`}},
	} {
		t.Run(tc.args, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "resume")
			code, stdout, stderr := runSweep(t, strings.ReplaceAll(tc.args, "DIR", dir))
			if code != tc.code {
				t.Fatalf("exit code %d, want %d\nstderr: %s", code, tc.code, stderr)
			}
			for _, want := range tc.stdout {
				if !strings.Contains(stdout, want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout)
				}
			}
			for _, want := range tc.stderr {
				if !strings.Contains(stderr, want) {
					t.Errorf("stderr lacks %q:\n%s", want, stderr)
				}
			}
			for _, bad := range tc.absent {
				if strings.Contains(stdout, bad) {
					t.Errorf("stdout contains %q:\n%s", bad, stdout)
				}
			}
			if _, err := os.Stat(dir); tc.dirAbsent && !os.IsNotExist(err) {
				t.Errorf("run created the -resume directory (stat: %v)", err)
			}
			if journals, _ := filepath.Glob(filepath.Join(dir, "*.journal")); tc.noJournal && len(journals) > 0 {
				t.Errorf("run wrote journals %v", journals)
			}
		})
	}
}

// TestResumeSkipsJournaledCells: a second run against the same -resume
// directory computes nothing and marks every row "(resumed)", with the
// same numbers the first run printed.
func TestResumeSkipsJournaledCells(t *testing.T) {
	args := "-kind interval -sections 1 -resume " + filepath.Join(t.TempDir(), "journal")
	code, first, stderr := runSweep(t, args)
	if code != exitOK {
		t.Fatalf("first run: exit code %d\nstderr: %s", code, stderr)
	}
	code, second, stderr := runSweep(t, args)
	if code != exitOK {
		t.Fatalf("resumed run: exit code %d\nstderr: %s", code, stderr)
	}
	firstRows, secondRows := tableRows(first), tableRows(second)
	if len(secondRows) == 0 || len(secondRows) != len(firstRows) {
		t.Fatalf("resumed run printed %d rows, first run %d:\n%s", len(secondRows), len(firstRows), second)
	}
	for i, row := range secondRows {
		if !strings.Contains(row, "(resumed)") {
			t.Errorf("row not marked resumed: %q", row)
		}
		got := strings.Fields(strings.Replace(row, " (resumed)", "", 1))
		if want := strings.Fields(firstRows[i]); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("resumed row %q differs from first run %q", row, firstRows[i])
		}
	}
	if strings.Contains(first, "(resumed)") {
		t.Errorf("first run marked rows resumed:\n%s", first)
	}
}

// TestCacheSweepGolden: the default cache sweep's -json output is
// byte-identical to testdata/cache.json, recorded before each cell's
// two runs became a lockstep pair over shared front ends.
func TestCacheSweepGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "cache.json"))
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runSweep(t, "-kind cache -json")
	if code != exitOK {
		t.Fatalf("exit code %d\nstderr: %s", code, stderr)
	}
	if stdout != string(want) {
		t.Errorf("-kind cache -json output differs from testdata/cache.json:\n%s", stdout)
	}
}

// TestFailedCells: a sweep with some failed cells exits exitPartial
// with a per-kind summary in the taxonomy's canonical order; a clean
// sweep exits exitOK. No command line fails only some cells
// deterministically, so the error list is built by hand.
func TestFailedCells(t *testing.T) {
	summary, code := failedCells([]error{nil, nil})
	if code != exitOK || summary != "" {
		t.Errorf("clean sweep: code %d, summary %q", code, summary)
	}
	summary, code = failedCells([]error{
		errors.New("simulation blew up"),
		nil,
		fmt.Errorf("%w after 1s: %w", experiment.ErrCellDeadline, context.DeadlineExceeded),
		context.Canceled,
		errors.New("again"),
	})
	want := "sweep: 4/5 cells failed (1 deadline, 1 cancelled, 2 failed); partial results above"
	if code != exitPartial || summary != want {
		t.Errorf("partial sweep: code %d, summary %q; want %d, %q", code, summary, exitPartial, want)
	}
}

// tableRows returns the result rows of a sweep table: the lines after
// the dashed rule under the header.
func tableRows(out string) []string {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "---") {
			return lines[i+1:]
		}
	}
	return nil
}
