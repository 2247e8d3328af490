//go:build !race

// These tests run the paper-scale configuration, tens of full runs
// each; under the race detector they would take minutes, so they run
// only without it (and not under -short).

package experiment

import (
	"reflect"
	"testing"

	"intracache/internal/core"
	"intracache/internal/workload"
)

// TestResilientTransparentOnSimulatedTelemetry holds the resilient
// engine to its promise on the simulator's own telemetry, which has no
// injected faults: at the figures' scale it must decide exactly as the
// bare model engine on every benchmark, and never leave the model rung.
func TestResilientTransparentOnSimulatedTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("18 runs at DefaultConfig")
	}
	cfg := DefaultConfig()
	profiles := workload.Profiles()
	resilient := make([]*core.ResilientEngine, len(profiles))
	runs := make([]Run, 2*len(profiles))
	errs := forEachIndex(len(runs), 0, func(i int) error {
		prof := profiles[i/2]
		var eng core.Engine = core.NewModelEngine()
		if i%2 == 1 {
			resilient[i/2] = core.NewResilientEngine()
			eng = resilient[i/2]
		}
		var err error
		runs[i], err = RunWithEngine(cfg, prof, eng, BySections)
		return err
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", profiles[i/2].Name, err)
		}
	}
	for p, prof := range profiles {
		bare, res := runs[2*p].Result, runs[2*p+1].Result
		if res.ControllerHealth != "model" {
			t.Errorf("%s: resilient engine ended on %q, want model", prof.Name, res.ControllerHealth)
		}
		if d := resilient[p].Demotions(); d != 0 {
			t.Errorf("%s: %d demotions on clean telemetry", prof.Name, d)
		}
		res.ControllerHealth = bare.ControllerHealth // the bare engine reports none
		if !reflect.DeepEqual(res, bare) {
			t.Errorf("%s: resilient run differs from the model engine's (wall cycles %d vs %d)",
				prof.Name, res.WallCycles, bare.WallCycles)
		}
	}
}

// TestFig21ModelBeatsUCPEveryApp pins the sign of the paper's third
// headline claim (Fig. 21): over the five seeds `figures -fig 21
// -seeds 5` replicates, the model-based scheme's mean improvement over
// the throughput-oriented UCP partitioner is positive on every app.
func TestFig21ModelBeatsUCPEveryApp(t *testing.T) {
	if testing.Short() {
		t.Skip("90 runs at DefaultConfig")
	}
	out, err := CompareAllSeeds(DefaultConfig(), core.PolicyThroughputUCP, core.PolicyModelBased, DefaultSeeds(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range out {
		if sc.Mean <= 0 {
			t.Errorf("%s: model-based vs UCP mean %+.2f%% ± %.2f (per seed %.2f), want > 0",
				sc.Benchmark, sc.Mean, sc.CI95, sc.PerSeed)
		}
	}
}
