package experiment

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"intracache/internal/core"
	"intracache/internal/hierarchy"
	"intracache/internal/workload"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := QuickConfig().Validate(); err != nil {
		t.Fatalf("quick config invalid: %v", err)
	}
}

func TestConfigValidateErrors(t *testing.T) {
	c := DefaultConfig()
	c.NumThreads = 0
	if err := c.Validate(); err == nil {
		t.Error("zero threads accepted")
	}
	c = DefaultConfig()
	c.Intervals, c.Sections = 0, 0
	if err := c.Validate(); err == nil {
		t.Error("no run length accepted")
	}
	c = DefaultConfig()
	c.L2KB = 7 // not a valid geometry
	if err := c.Validate(); err == nil {
		t.Error("bad L2 geometry accepted")
	}
	// The removed partition geometries are refused, not ignored.
	for name, f := range map[string]func(*Config){
		"mechanism":  func(c *Config) { c.Mechanism = 1 },
		"set groups": func(c *Config) { c.SetGroups = 4 },
		"clusters":   func(c *Config) { c.Clusters = 4 },
	} {
		c = DefaultConfig()
		f(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestWithThreads(t *testing.T) {
	c := DefaultConfig()
	perThread := c.IntervalInstructions / uint64(c.NumThreads)
	c8 := c.WithThreads(8)
	if c8.NumThreads != 8 {
		t.Fatalf("NumThreads = %d", c8.NumThreads)
	}
	if c8.IntervalInstructions != perThread*8 {
		t.Errorf("interval instructions %d, want %d", c8.IntervalInstructions, perThread*8)
	}
	// Original unchanged.
	if c.NumThreads != 4 {
		t.Error("WithThreads mutated the receiver")
	}
}

func TestRunOneShared(t *testing.T) {
	cfg := QuickConfig()
	prof, err := workload.ByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunOne(cfg, prof, core.PolicyShared, ByIntervals)
	if err != nil {
		t.Fatal(err)
	}
	if r.Benchmark != "cg" || r.Policy != core.PolicyShared {
		t.Errorf("run labels wrong: %+v", r)
	}
	if r.RTS != nil {
		t.Error("shared policy has a runtime system")
	}
	if len(r.Result.Intervals) != cfg.Intervals {
		t.Errorf("intervals = %d, want %d", len(r.Result.Intervals), cfg.Intervals)
	}
	if r.Result.WallCycles == 0 || r.Result.TotalInstr == 0 {
		t.Error("empty result")
	}
}

func TestRunOneDynamicHasRTS(t *testing.T) {
	cfg := QuickConfig()
	r, err := RunOneByName(cfg, "cg", core.PolicyModelBased, ByIntervals)
	if err != nil {
		t.Fatal(err)
	}
	if r.RTS == nil {
		t.Fatal("model-based run lacks runtime system")
	}
	if len(r.Result.Intervals) != cfg.Intervals {
		t.Errorf("intervals = %d, want %d", len(r.Result.Intervals), cfg.Intervals)
	}
	if r.Result.FinalTargets == nil {
		t.Error("no final targets recorded")
	}
}

func TestRunOneByNameUnknown(t *testing.T) {
	if _, err := RunOneByName(QuickConfig(), "nope", core.PolicyShared, ByIntervals); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// A run whose chosen length is zero or negative does no work, so every
// run path refuses it instead of reporting zero cycles as a success,
// and a sweep over such cells fails before it journals anything.
func TestRunRefusesNonPositiveRunLength(t *testing.T) {
	prof, _ := workload.ByName("cg")
	profs, threads := twoApps(t)
	// Every driver that builds a simulation refuses a run that would do
	// no work. Fig10WaySensitivity and RunWithMigration use the interval
	// clock only.
	drivers := []struct {
		name  string
		modes []RunMode
		run   func(Config, RunMode) error
	}{
		{"RunOne", []RunMode{ByIntervals, BySections}, func(c Config, m RunMode) error {
			_, err := RunOne(c, prof, core.PolicyShared, m)
			return err
		}},
		{"RunWithEngine", []RunMode{ByIntervals, BySections}, func(c Config, m RunMode) error {
			_, err := RunWithEngine(c, prof, core.NewModelEngine(), m)
			return err
		}},
		{"RunSources", []RunMode{ByIntervals, BySections}, func(c Config, m RunMode) error {
			_, err := RunSources(c, "none", nil, core.PolicyShared, m)
			return err
		}},
		{"CheckpointedRun", []RunMode{ByIntervals, BySections}, func(c Config, m RunMode) error {
			_, err := CheckpointedRun(context.Background(), c, "cg", core.PolicyShared, m, CheckpointSpec{}, nil)
			return err
		}},
		{"RunMultiApp", []RunMode{ByIntervals, BySections}, func(c Config, m RunMode) error {
			_, err := RunMultiApp(c, profs, threads,
				&hierarchy.MissRateOSAllocator{ThreadsPerApp: threads}, modelEngines, m)
			return err
		}},
		{"RunMultiAppBaseline", []RunMode{ByIntervals, BySections}, func(c Config, m RunMode) error {
			_, err := RunMultiAppBaseline(c, profs, threads, core.PolicyStaticEqual, m)
			return err
		}},
		{"Fig10WaySensitivity", []RunMode{ByIntervals}, func(c Config, _ RunMode) error {
			_, err := Fig10WaySensitivity(c)
			return err
		}},
		{"RunWithMigration", []RunMode{ByIntervals}, func(c Config, _ RunMode) error {
			_, err := RunWithMigration(c, prof, core.PolicyShared, 0, 0, 1)
			return err
		}},
	}
	for _, n := range []int{0, -1} {
		for _, d := range drivers {
			for _, mode := range d.modes {
				cfg := QuickConfig()
				if mode == BySections {
					cfg.Sections = n
				} else {
					cfg.Intervals = n
				}
				if err := d.run(cfg, mode); err == nil {
					t.Errorf("%s mode %d accepted run length %d", d.name, mode, n)
				}
			}
		}

		cfg := QuickConfig()
		cfg.Sections = n
		dir := t.TempDir()
		points := []SweepPoint{{Label: "p0", Cfg: cfg}}
		if _, err := SweepJournaled(context.Background(), points, "cg", core.PolicyShared,
			core.PolicyModelBased, SweepOptions{JournalPath: filepath.Join(dir, "sweep.journal")}); err == nil {
			t.Errorf("SweepJournaled accepted Sections %d", n)
		}
		if _, err := RobustnessSweepJournaled(context.Background(), cfg, []string{"cg"}, nil, nil,
			SweepOptions{JournalPath: filepath.Join(dir, "robust.journal")}); err == nil {
			t.Errorf("RobustnessSweepJournaled accepted Sections %d", n)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("Sections %d: sweeps left %d files in the journal directory", n, len(entries))
		}
	}
}

func TestRunOneBySectionsFixedWork(t *testing.T) {
	cfg := QuickConfig()
	prof, _ := workload.ByName("bt")
	a, err := RunOne(cfg, prof, core.PolicyShared, BySections)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOne(cfg, prof, core.PolicyPrivate, BySections)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.TotalInstr != b.Result.TotalInstr {
		t.Errorf("fixed-work runs retired different instruction counts: %d vs %d",
			a.Result.TotalInstr, b.Result.TotalInstr)
	}
	want := uint64(cfg.Sections) * cfg.SectionInstructions * uint64(cfg.NumThreads)
	if a.Result.TotalInstr != want {
		t.Errorf("total instructions %d, want %d", a.Result.TotalInstr, want)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := QuickConfig()
	prof, _ := workload.ByName("swim")
	a, err := RunOne(cfg, prof, core.PolicyModelBased, ByIntervals)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOne(cfg, prof, core.PolicyModelBased, ByIntervals)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.WallCycles != b.Result.WallCycles {
		t.Errorf("nondeterministic: %d vs %d", a.Result.WallCycles, b.Result.WallCycles)
	}
}

func TestCompare(t *testing.T) {
	cfg := QuickConfig()
	prof, _ := workload.ByName("cg")
	c, err := Compare(cfg, prof, core.PolicyPrivate, core.PolicyModelBased)
	if err != nil {
		t.Fatal(err)
	}
	if c.Benchmark != "cg" {
		t.Errorf("benchmark = %s", c.Benchmark)
	}
	if c.BaselineCycles == 0 || c.CandidateCycles == 0 {
		t.Error("zero cycle counts")
	}
	wantPct := 100 * (float64(c.BaselineCycles) - float64(c.CandidateCycles)) / float64(c.BaselineCycles)
	if diff := c.ImprovementPct - wantPct; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("improvement %v, want %v", c.ImprovementPct, wantPct)
	}
}

func TestCompareAllCoversAllBenchmarks(t *testing.T) {
	cfg := QuickConfig()
	cfg.Sections = 5
	cs, err := CompareAll(cfg, core.PolicyShared, core.PolicyStaticEqual)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 9 {
		t.Fatalf("comparisons = %d, want 9", len(cs))
	}
	names := workload.Names()
	for i, c := range cs {
		if c.Benchmark != names[i] {
			t.Errorf("comparison %d is %s, want %s", i, c.Benchmark, names[i])
		}
	}
}

func TestMeanMaxImprovement(t *testing.T) {
	cs := []Comparison{
		{ImprovementPct: 10}, {ImprovementPct: -2}, {ImprovementPct: 4},
	}
	if got := MeanImprovement(cs); got != 4 {
		t.Errorf("mean = %v, want 4", got)
	}
	if got := MaxImprovement(cs); got != 10 {
		t.Errorf("max = %v, want 10", got)
	}
	if MeanImprovement(nil) != 0 || MaxImprovement(nil) != 0 {
		t.Error("empty comparisons should be 0")
	}
}

// TestHeadlineShape is the repository's acceptance test for the paper's
// headline result at reduced scale: on the benchmark with the starkest
// critical-thread imbalance (cg), the model-based dynamic scheme must
// beat the private cache, and must not lose (beyond noise) to the shared
// cache. Full-scale shapes are exercised by the benchmarks and
// cmd/figures; see EXPERIMENTS.md.
func TestHeadlineShape(t *testing.T) {
	cfg := QuickConfig()
	cfg.Sections = 40
	prof, _ := workload.ByName("cg")
	vsPriv, err := Compare(cfg, prof, core.PolicyPrivate, core.PolicyModelBased)
	if err != nil {
		t.Fatal(err)
	}
	if vsPriv.ImprovementPct <= 5 {
		t.Errorf("cg vs private improvement %.2f%%, want clearly positive", vsPriv.ImprovementPct)
	}
	vsShared, err := Compare(cfg, prof, core.PolicyShared, core.PolicyModelBased)
	if err != nil {
		t.Fatal(err)
	}
	if vsShared.ImprovementPct < -2 {
		t.Errorf("cg vs shared improvement %.2f%%, want non-negative", vsShared.ImprovementPct)
	}
}

// TestSmallWorkingSetShape checks the paper's observation that
// small-working-set benchmarks gain little from partitioning.
func TestSmallWorkingSetShape(t *testing.T) {
	cfg := QuickConfig()
	cfg.Sections = 20
	for _, name := range []string{"bt", "mg", "apsi"} {
		prof, _ := workload.ByName(name)
		c, err := Compare(cfg, prof, core.PolicyShared, core.PolicyModelBased)
		if err != nil {
			t.Fatal(err)
		}
		if c.ImprovementPct > 6 || c.ImprovementPct < -6 {
			t.Errorf("%s: improvement %.2f%%, want near zero for a cache-resident benchmark",
				name, c.ImprovementPct)
		}
	}
}

func TestRunWithEngine(t *testing.T) {
	cfg := QuickConfig()
	prof, _ := workload.ByName("cg")
	eng := core.NewModelEngine()
	run, err := RunWithEngine(cfg, prof, eng, ByIntervals)
	if err != nil {
		t.Fatal(err)
	}
	if run.RTS == nil || run.RTS.Engine() != eng {
		t.Error("engine not wired through")
	}
	if run.Result.FinalTargets == nil {
		t.Error("no partitioning happened")
	}
	// Sections mode works too.
	cfg.Sections = 5
	run2, err := RunWithEngine(cfg, prof, core.NewCPIProportionalEngine(), BySections)
	if err != nil {
		t.Fatal(err)
	}
	if run2.Result.Barriers != 5 {
		t.Errorf("barriers = %d, want 5", run2.Result.Barriers)
	}
}

func TestTADIPPolicyRuns(t *testing.T) {
	cfg := QuickConfig()
	run, err := RunOneByName(cfg, "swim", core.PolicyTADIP, ByIntervals)
	if err != nil {
		t.Fatal(err)
	}
	if run.RTS != nil {
		t.Error("TADIP has a runtime system")
	}
	if run.Result.WallCycles == 0 {
		t.Error("empty result")
	}
	// Work parity with other policies on fixed sections.
	cfg.Sections = 5
	a, err := RunOneByName(cfg, "swim", core.PolicyTADIP, BySections)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOneByName(cfg, "swim", core.PolicyShared, BySections)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.TotalInstr != b.Result.TotalInstr {
		t.Errorf("work differs: %d vs %d", a.Result.TotalInstr, b.Result.TotalInstr)
	}
}
