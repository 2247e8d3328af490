package experiment

import (
	"bytes"
	"testing"

	"intracache/internal/core"
	"intracache/internal/sim"
	"intracache/internal/trace"
	"intracache/internal/workload"
)

// frontEndCases are runs through the paths that touch each core's L1
// other than a plain run: a migration, which moves threads between
// cores but leaves each L1 with its core, and a replay of recorded
// traces through RunSources.
func frontEndCases() map[string]func() (sim.Result, error) {
	cfg := QuickConfig()
	migrate := func(bench string, pol core.Policy, swapAt, i, j int) func() (sim.Result, error) {
		return func() (sim.Result, error) {
			prof, err := workload.ByName(bench)
			if err != nil {
				return sim.Result{}, err
			}
			r, err := RunWithMigration(cfg, prof, pol, swapAt, i, j)
			return r.Result, err
		}
	}
	replay := func(bench string, pol core.Policy) func() (sim.Result, error) {
		return func() (sim.Result, error) {
			c := cfg
			c.Sections = 6
			prof, err := workload.ByName(bench)
			if err != nil {
				return sim.Result{}, err
			}
			gens, err := prof.Generators(c.NumThreads, c.LineBytes, c.Seed)
			if err != nil {
				return sim.Result{}, err
			}
			srcs := make([]trace.Source, len(gens))
			for i, g := range gens {
				var buf bytes.Buffer
				// Shorter than the run, so the replay wraps around.
				if err := trace.Record(&buf, g, 50_000, c.LineBytes); err != nil {
					return sim.Result{}, err
				}
				if srcs[i], err = trace.NewReplayer(&buf, c.LineBytes); err != nil {
					return sim.Result{}, err
				}
			}
			r, err := RunSources(c, bench, srcs, pol, BySections)
			return r.Result, err
		}
	}
	return map[string]func() (sim.Result, error){
		"migration/cg/model-based": migrate("cg", core.PolicyModelBased, 3, 0, 2),
		"migration/swim/shared":    migrate("swim", core.PolicyShared, 4, 1, 3),
		"replay/cg/model-based":    replay("cg", core.PolicyModelBased),
		"replay/mgrid/private":     replay("mgrid", core.PolicyPrivate),
	}
}

// frontEndGolden holds each case's digestResult, recorded at the
// commit before each core's L1 moved into its thread's front end.
var frontEndGolden = map[string]string{
	"migration/cg/model-based": "f123908dd0ceffaa",
	"migration/swim/shared":    "e867b8a48f9d917a",
	"replay/cg/model-based":    "beb2f55435e7314f",
	"replay/mgrid/private":     "80f75acfbd8afb2a",
}

// TestFrontEndGolden pins migration and replayed-trace runs to their
// digests from before the L1 moved into the front end.
func TestFrontEndGolden(t *testing.T) {
	for name, run := range frontEndCases() {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := digestResult(res), frontEndGolden[name]; got != want {
			t.Errorf("%s: digest %s, recorded %q", name, got, want)
		}
	}
}
