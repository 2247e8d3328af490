package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
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

// TestMechanismResume: a narrowed mechanism sweep journals its whole
// matrix to one journal, mechanism.journal, and a rerun against the
// same -resume directory reads every cell back from it. Both runs print
// the same cells; only the resume markers (Attempts, Resumed) differ.
func TestMechanismResume(t *testing.T) {
	dir := t.TempDir()
	args := "-kind mechanism -bench cg -candidate static-equal -sections 1 -json -resume " + dir
	code, first, stderr := runSweep(t, args)
	if code != exitOK {
		t.Fatalf("first run: exit code %d\nstderr: %s", code, stderr)
	}
	code, second, stderr := runSweep(t, args)
	if code != exitOK {
		t.Fatalf("resumed run: exit code %d\nstderr: %s", code, stderr)
	}
	firstCells, secondCells := decodeCells(t, first), decodeCells(t, second)
	if len(secondCells) != 3 {
		t.Fatalf("resumed run printed %d cells, want 3 (one per mechanism)", len(secondCells))
	}
	for i, c := range secondCells {
		if c["Resumed"] != true {
			t.Errorf("cell %d recomputed instead of resuming", i)
		}
		if firstCells[i]["Resumed"] != false {
			t.Errorf("cell %d resumed on the first run", i)
		}
		for _, marker := range []string{"Attempts", "Resumed"} {
			delete(c, marker)
			delete(firstCells[i], marker)
		}
	}
	if !reflect.DeepEqual(firstCells, secondCells) {
		t.Errorf("resumed run printed different cells:\n%s\nvs\n%s", second, first)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "mechanism.journal" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("-resume directory holds %v, want only mechanism.journal", names)
	}
}

// decodeCells parses a sweep's -json output into one map per cell.
func decodeCells(t *testing.T, out string) []map[string]any {
	t.Helper()
	var cells []map[string]any
	if err := json.Unmarshal([]byte(out), &cells); err != nil {
		t.Fatalf("bad -json output: %v\n%s", err, out)
	}
	return cells
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
