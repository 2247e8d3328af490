package intracache

import (
	"testing"

	"intracache/internal/experiment"
)

func quickCfg() Config {
	return experiment.QuickConfig()
}

func TestPoliciesAndParse(t *testing.T) {
	ps := Policies()
	if len(ps) != 7 {
		t.Fatalf("policies = %d, want 7", len(ps))
	}
	for _, p := range ps {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("bad name accepted")
	}
}

func TestBenchmarksAndProfiles(t *testing.T) {
	names := Benchmarks()
	profs := Profiles()
	if len(names) != 9 || len(profs) != 9 {
		t.Fatalf("benchmarks = %d, profiles = %d", len(names), len(profs))
	}
	for i, n := range names {
		if profs[i].Name != n {
			t.Errorf("order mismatch at %d: %s vs %s", i, n, profs[i].Name)
		}
		p, err := ProfileByName(n)
		if err != nil || p.Name != n {
			t.Errorf("ProfileByName(%q): %v %v", n, p.Name, err)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("bad profile name accepted")
	}
}

func TestSimulate(t *testing.T) {
	cfg := quickCfg()
	run, err := Simulate(cfg, "cg", PolicyModelBased, ByIntervals)
	if err != nil {
		t.Fatal(err)
	}
	if run.Result.WallCycles == 0 {
		t.Error("empty result")
	}
	if run.RTS == nil {
		t.Error("dynamic run has no runtime system")
	}
	if got := run.Result.AppCPI(); got <= 0 {
		t.Errorf("AppCPI = %v", got)
	}
}

func TestSimulateProfileCustom(t *testing.T) {
	cfg := quickCfg()
	prof, err := ProfileByName("bt")
	if err != nil {
		t.Fatal(err)
	}
	prof.Name = "custom"
	prof.WSKB = []int{120, 16, 16, 16}
	run, err := SimulateProfile(cfg, prof, PolicyShared, ByIntervals)
	if err != nil {
		t.Fatal(err)
	}
	if run.Benchmark != "custom" {
		t.Errorf("benchmark = %s", run.Benchmark)
	}
}

func TestCompareOn(t *testing.T) {
	cfg := quickCfg()
	cfg.Sections = 10
	c, err := CompareOn(cfg, "cg", PolicyPrivate, PolicyModelBased)
	if err != nil {
		t.Fatal(err)
	}
	if c.Benchmark != "cg" || c.BaselineCycles == 0 {
		t.Errorf("comparison = %+v", c)
	}
	if _, err := CompareOn(cfg, "nope", PolicyPrivate, PolicyModelBased); err == nil {
		t.Error("bad benchmark accepted")
	}
}

func TestCompareProfileAndAggregates(t *testing.T) {
	cfg := quickCfg()
	cfg.Sections = 8
	prof, _ := ProfileByName("bt")
	c, err := CompareProfile(cfg, prof, PolicyShared, PolicyStaticEqual)
	if err != nil {
		t.Fatal(err)
	}
	cs := []Comparison{c, {ImprovementPct: c.ImprovementPct + 10}}
	if MaxImprovement(cs) < MeanImprovement(cs) {
		t.Error("max < mean")
	}
}

func TestDefaultConfigUsable(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.NumThreads != 4 || cfg.L2Ways != 64 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
}

func TestCompareAllFacade(t *testing.T) {
	cfg := quickCfg()
	cfg.Sections = 4
	cs, err := CompareAll(cfg, PolicyShared, PolicyStaticEqual)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 9 {
		t.Fatalf("rows = %d", len(cs))
	}
}

func TestSimulateWithMigrationFacade(t *testing.T) {
	cfg := quickCfg()
	run, err := SimulateWithMigration(cfg, "cg", PolicyModelBased, 3, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Result.Intervals) != cfg.Intervals {
		t.Errorf("intervals = %d", len(run.Result.Intervals))
	}
	if _, err := SimulateWithMigration(cfg, "nope", PolicyModelBased, 3, 0, 2); err == nil {
		t.Error("unknown benchmark accepted")
	}
}
