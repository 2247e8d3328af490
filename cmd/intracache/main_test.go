package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as the intracache command: with INTRACACHE_TEST_ARGS
// set, the test binary runs main on those arguments, so the tests can
// observe the real exit code and output of a re-executed process.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("INTRACACHE_TEST_ARGS"); ok {
		os.Args = append([]string{"intracache"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runIntracache re-executes the test binary as the intracache command
// and returns its exit code, stdout and stderr.
func runIntracache(t *testing.T, args string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "INTRACACHE_TEST_ARGS="+args)
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
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	const run = "-bench cg -policy model-based -sections 2 -json"
	for _, tc := range []struct {
		args   string
		code   int
		stderr string
	}{
		// -resume alone used to start a fresh run silently.
		{args: run + " -resume", code: 2, stderr: "-resume needs -checkpoint"},
		{args: run + " -bogus", code: 2, stderr: "flag provided but not defined: -bogus"},
		// The set-index and clustered partition geometries are gone.
		{args: run + " -mechanism ways", code: 2, stderr: "flag provided but not defined: -mechanism"},
		{args: run + " -set-groups 4", code: 2, stderr: "flag provided but not defined: -set-groups"},
		{args: run + " -clusters 8", code: 2, stderr: "flag provided but not defined: -clusters"},
	} {
		code, _, stderr := runIntracache(t, tc.args)
		if code != tc.code || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("%s: exit %d, stderr %q; want exit %d and %q", tc.args, code, stderr, tc.code, tc.stderr)
		}
	}

	// The same run twice, the run writing checkpoint F, and the run
	// resuming from F all print byte-identical JSON.
	var want string
	for _, args := range []string{run, run, run + " -checkpoint " + ckpt, run + " -checkpoint " + ckpt + " -resume"} {
		code, stdout, stderr := runIntracache(t, args)
		switch {
		case code != 0:
			t.Fatalf("%s: exit %d: %s", args, code, stderr)
		case want == "" && !strings.Contains(stdout, `"Benchmark": "cg"`):
			t.Fatalf("%s: no JSON result on stdout: %q", args, stdout)
		case want == "":
			want = stdout
		case stdout != want:
			t.Errorf("%s: -json output differs from the first run", args)
		}
		if _, err := os.Stat(ckpt); strings.Contains(args, "-checkpoint") && err != nil {
			t.Errorf("%s: checkpoint not written: %v", args, err)
		}
	}
}
