package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as the sweep command: with SWEEP_TEST_ARGS set, the
// test binary runs main on those arguments, so the tests can observe
// the real exit code and output of a re-executed process. A
// coordinator started that way re-execs the binary as its
// -exec-workers subprocesses with "-worker" as the first argument;
// those run main on their own arguments.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		main()
		os.Exit(0)
	}
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
		// Four set groups hold the 2- and 4-thread cells but cannot
		// hold 8 or 16 threads: a deterministic partial failure.
		{args: "-kind threads -mechanism sets -set-groups 4 -sections 1", code: exitPartial,
			stdout: []string{"4 set groups cannot hold 8 threads", "4 set groups cannot hold 16 threads"},
			stderr: []string{"2/4 cells failed"}},
		// An explicit -bench and -candidate narrow the robustness
		// matrix to one benchmark and one policy (static-equal is
		// policy 2): four fault levels, no other benchmark or policy.
		{args: "-kind robust -bench cg -candidate static-equal -sections 1 -json", code: exitOK,
			stdout: []string{`"Benchmark": "cg"`, `"Policy": 2`, `"Level": "catastrophic"`},
			absent: []string{`"Benchmark": "swim"`, `"Policy": 3`, `"Policy": 4`}},
	} {
		t.Run(tc.args, func(t *testing.T) {
			code, stdout, stderr := runSweep(t, tc.args)
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

// TestMechanismDistributedResume: a narrowed mechanism sweep prints
// byte-identical -json in-process and through two worker subprocesses,
// which start once for the whole matrix. A rerun against the
// distributed run's -resume directory reads every cell back from the
// one coordinator journal, mechanism.journal.
func TestMechanismDistributedResume(t *testing.T) {
	const args = "-kind mechanism -bench cg -candidate static-equal -sections 1 -json"
	code, local, stderr := runSweep(t, args)
	if code != exitOK {
		t.Fatalf("in-process run: exit code %d\nstderr: %s", code, stderr)
	}
	code, dist, stderr := runSweep(t, args+" -exec-workers 2")
	if code != exitOK {
		t.Fatalf("distributed run: exit code %d\nstderr: %s", code, stderr)
	}
	if dist != local {
		t.Errorf("distributed -json differs from in-process:\n%s\nvs\n%s", dist, local)
	}
	if n := strings.Count(stderr, "sweep: distributed:"); n != 1 {
		t.Errorf("coordinator ran %d times, want once:\n%s", n, stderr)
	}

	dir := t.TempDir()
	code, first, stderr := runSweep(t, args+" -exec-workers 2 -resume "+dir)
	if code != exitOK {
		t.Fatalf("journaled distributed run: exit code %d\nstderr: %s", code, stderr)
	}
	if first != local {
		t.Errorf("journaled distributed -json differs from in-process:\n%s\nvs\n%s", first, local)
	}
	code, second, stderr := runSweep(t, args+" -resume "+dir)
	if code != exitOK {
		t.Fatalf("resumed run: exit code %d\nstderr: %s", code, stderr)
	}
	var cells []struct{ Resumed bool }
	if err := json.Unmarshal([]byte(second), &cells); err != nil {
		t.Fatalf("resumed run printed bad JSON: %v\n%s", err, second)
	}
	if len(cells) != 3 {
		t.Fatalf("resumed run printed %d cells, want 3 (one per mechanism)", len(cells))
	}
	for i, c := range cells {
		if !c.Resumed {
			t.Errorf("cell %d recomputed instead of resuming", i)
		}
	}
	journals, err := filepath.Glob(filepath.Join(dir, "*.journal"))
	if err != nil {
		t.Fatal(err)
	}
	var coordinator []string
	for _, j := range journals {
		if !strings.Contains(filepath.Base(j), "-worker") {
			coordinator = append(coordinator, filepath.Base(j))
		}
	}
	if len(coordinator) != 1 || coordinator[0] != "mechanism.journal" {
		t.Errorf("coordinator journals %v, want only mechanism.journal", coordinator)
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
