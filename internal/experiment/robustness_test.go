package experiment

import (
	"context"
	"reflect"
	"testing"

	"intracache/internal/core"
	"intracache/internal/fault"
)

// Acceptance criterion: under moderate telemetry noise (10% CPI
// perturbation, 5% interval drops) the model-based policy must still
// beat the shared cache on average across the nine benchmarks.
func TestRobustnessModerateStillBeatsShared(t *testing.T) {
	cfg := QuickConfig()
	cfg.Sections = 12
	levels := []FaultLevel{DefaultFaultLevels()[1]} // moderate
	if levels[0].Name != "moderate" {
		t.Fatalf("level order changed: %q", levels[0].Name)
	}
	cells, err := RobustnessSweepJournaled(context.Background(), cfg, nil,
		[]core.Policy{core.PolicyModelBased}, levels, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 9 {
		t.Fatalf("cells = %d, want 9", len(cells))
	}
	sum, faulted := 0.0, false
	for _, c := range cells {
		if c.Err != nil {
			t.Fatalf("%s: %v", c.Benchmark, c.Err)
		}
		sum += c.ImprovementPct
		if c.Faults.DroppedIntervals > 0 || c.Faults.NoisySamples > 0 {
			faulted = true
		}
		t.Logf("%-8s improvement %+6.2f%% health=%s (noisy=%d dropped=%d)",
			c.Benchmark, c.ImprovementPct, c.Health,
			c.Faults.NoisySamples, c.Faults.DroppedIntervals)
	}
	if !faulted {
		t.Error("moderate level injected no faults at all")
	}
	if mean := sum / float64(len(cells)); mean <= 0 {
		t.Errorf("mean improvement over shared = %.2f%%, want > 0", mean)
	}
}

// Acceptance criterion: under catastrophic faults the controller must
// demote all the way to the static-equal rung (recorded in
// sim.Result.ControllerHealth) and the run must not be more than 2%
// slower than PolicyStaticEqual itself.
func TestRobustnessCatastrophicDegradesToStatic(t *testing.T) {
	cfg := QuickConfig()
	cfg.Sections = 40 // long enough to walk the full demotion chain
	plan := DefaultFaultLevels()[3].Plan
	cfg.Fault = &plan

	faulted, err := RunOneByName(cfg, "art", core.PolicyModelBased, BySections)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Result.ControllerHealth != "static" {
		t.Errorf("controller health = %q, want %q (demotions=%d)",
			faulted.Result.ControllerHealth, "static",
			engineDemotions(faulted))
	}
	if faulted.FaultStats == nil || faulted.FaultStats.Intervals == 0 {
		t.Fatal("fault stats missing")
	}

	ref := cfg
	ref.Fault = nil
	static, err := RunOneByName(ref, "art", core.PolicyStaticEqual, BySections)
	if err != nil {
		t.Fatal(err)
	}
	limit := float64(static.Result.WallCycles) * 1.02
	if float64(faulted.Result.WallCycles) > limit {
		t.Errorf("faulted model-based run %d cycles > 1.02 x static-equal %d cycles",
			faulted.Result.WallCycles, static.Result.WallCycles)
	}
	t.Logf("faulted=%d static=%d (%.2f%%) faults=%s",
		faulted.Result.WallCycles, static.Result.WallCycles,
		100*float64(faulted.Result.WallCycles)/float64(static.Result.WallCycles)-100,
		plan.String())
}

func engineDemotions(run Run) int {
	if run.RTS == nil {
		return -1
	}
	if re, ok := run.RTS.Engine().(*core.ResilientEngine); ok {
		return re.Demotions()
	}
	return -1
}

// Acceptance criterion: fault injection is deterministic — the same
// seed and the same fault.Plan yield a bit-identical sim.Result.
func TestRobustnessRepeatable(t *testing.T) {
	cfg := QuickConfig()
	cfg.Sections = 10
	plan := fault.Plan{Seed: 7, CPINoise: 0.3, DropRate: 0.1, StuckRate: 0.05, DecisionDelay: 1, StallRate: 0.1}
	cfg.Fault = &plan

	run1, err := RunOneByName(cfg, "swim", core.PolicyModelBased, BySections)
	if err != nil {
		t.Fatal(err)
	}
	run2, err := RunOneByName(cfg, "swim", core.PolicyModelBased, BySections)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run1.Result, run2.Result) {
		t.Error("identical seed+plan produced different sim.Result")
	}
	if !reflect.DeepEqual(run1.FaultStats, run2.FaultStats) {
		t.Errorf("fault stats differ: %+v vs %+v", run1.FaultStats, run2.FaultStats)
	}
	// A different fault seed must actually change the injected stream.
	plan.Seed = 8
	run3, err := RunOneByName(cfg, "swim", core.PolicyModelBased, BySections)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(run1.FaultStats, run3.FaultStats) &&
		reflect.DeepEqual(run1.Result, run3.Result) {
		t.Error("changing the fault seed changed nothing")
	}
}

func TestRobustnessMatrixShape(t *testing.T) {
	cells := []RobustnessCell{
		{Benchmark: "a", Policy: core.PolicyStaticEqual, Level: "clean", ImprovementPct: 2},
		{Benchmark: "b", Policy: core.PolicyStaticEqual, Level: "clean", ImprovementPct: 4},
		{Benchmark: "a", Policy: core.PolicyModelBased, Level: "clean", ImprovementPct: 8},
		{Benchmark: "a", Policy: core.PolicyModelBased, Level: "heavy", ImprovementPct: 6},
		{Benchmark: "b", Policy: core.PolicyModelBased, Level: "heavy", Err: errTest},
	}
	rows, cols, vals := RobustnessMatrix(cells)
	if len(rows) != 2 || len(cols) != 2 {
		t.Fatalf("shape %dx%d, want 2x2", len(rows), len(cols))
	}
	if vals[0][0] != 3 { // static-equal/clean: mean(2,4)
		t.Errorf("static-equal clean mean = %v, want 3", vals[0][0])
	}
	if vals[1][1] != 6 { // model-based/heavy: errored cell skipped
		t.Errorf("model-based heavy mean = %v, want 6", vals[1][1])
	}
	if vals[0][1] != 0 { // no cells at all: stays 0, not NaN
		t.Errorf("empty cell = %v, want 0", vals[0][1])
	}
	hc := HealthCounts(cells, core.PolicyModelBased, "heavy")
	if hc["(untracked)"] != 1 {
		t.Errorf("health counts = %v", hc)
	}
}

var errTest = errFor("test")

type errFor string

func (e errFor) Error() string { return string(e) }
