package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain doubles as the figures command: with FIGURES_TEST_ARGS set,
// the test binary runs main on those arguments, so the tests can
// observe the real exit code and output of a re-executed process.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("FIGURES_TEST_ARGS"); ok {
		os.Args = append([]string{"figures"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestCommandLine(t *testing.T) {
	for _, tc := range []struct {
		args   string
		code   int
		stdout []string
		stderr []string
	}{
		{args: "-fig 99", code: 2,
			stderr: []string{`unknown figure "99"`, "2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 18, 19, 20, 21, 22"}},
		{args: "-fig 2", code: 0,
			stdout: []string{"Fig. 2 — system configuration", "L2 cache size", "1 MB"}},
		{args: "-fig fig19 -quick", code: 0,
			stdout: []string{"Fig. 19 — improvement of dynamic", "mean: "}},
	} {
		t.Run(tc.args, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^$")
			cmd.Env = append(os.Environ(), "FIGURES_TEST_ARGS="+tc.args)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			code := 0
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != tc.code {
				t.Fatalf("exit code %d, want %d\nstderr: %s", code, tc.code, stderr.String())
			}
			for _, want := range tc.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
				}
			}
			for _, want := range tc.stderr {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
				}
			}
		})
	}
}
