package experiment

import (
	"math"
	"testing"

	"intracache/internal/core"
	"intracache/internal/workload"
)

func TestDefaultSeeds(t *testing.T) {
	seeds := DefaultSeeds(5)
	if len(seeds) != 5 {
		t.Fatalf("seeds = %d", len(seeds))
	}
	seen := map[uint64]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
	}
	// Deterministic.
	again := DefaultSeeds(5)
	for i := range seeds {
		if seeds[i] != again[i] {
			t.Fatal("DefaultSeeds not deterministic")
		}
	}
}

func TestCompareSeeds(t *testing.T) {
	cfg := QuickConfig()
	cfg.Sections = 8
	prof, _ := workload.ByName("cg")
	sc, err := CompareSeeds(cfg, prof, core.PolicyPrivate, core.PolicyModelBased,
		DefaultSeeds(3), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.PerSeed) != 3 {
		t.Fatalf("replicates = %d", len(sc.PerSeed))
	}
	if sc.Mean <= 0 {
		t.Errorf("cg vs private mean %.2f%%, want positive across seeds", sc.Mean)
	}
	if sc.CI95 < 0 {
		t.Errorf("negative CI: %v", sc.CI95)
	}
	// Three replicates: the 95% interval uses Student t with 2 degrees
	// of freedom, 4.303, not the normal 1.96.
	var ss float64
	for _, x := range sc.PerSeed {
		ss += (x - sc.Mean) * (x - sc.Mean)
	}
	if want := 4.303 * math.Sqrt(ss/2) / math.Sqrt(3); math.Abs(sc.CI95-want) > 1e-9*max(1, want) {
		t.Errorf("CI95 = %v, want t(0.975, 2)·s/√3 = %v", sc.CI95, want)
	}
	if sc.Min() > sc.Mean || sc.Max() < sc.Mean {
		t.Errorf("min %.2f / mean %.2f / max %.2f inconsistent", sc.Min(), sc.Mean, sc.Max())
	}
}

func TestCompareSeedsMatchesSingleRun(t *testing.T) {
	cfg := QuickConfig()
	cfg.Sections = 6
	prof, _ := workload.ByName("bt")
	single, err := Compare(cfg, prof, core.PolicyShared, core.PolicyStaticEqual)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := CompareSeeds(cfg, prof, core.PolicyShared, core.PolicyStaticEqual,
		[]uint64{cfg.Seed}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sc.PerSeed[0] != single.ImprovementPct {
		t.Errorf("seeded replicate %.4f != single run %.4f", sc.PerSeed[0], single.ImprovementPct)
	}
	if sc.CI95 != 0 {
		t.Errorf("single replicate has CI %v", sc.CI95)
	}
}

func TestCompareSeedsNoSeeds(t *testing.T) {
	prof, _ := workload.ByName("bt")
	if _, err := CompareSeeds(QuickConfig(), prof, core.PolicyShared, core.PolicyModelBased, nil, 1); err == nil {
		t.Error("empty seeds accepted")
	}
}

func TestCompareAllSeedsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep is slow")
	}
	cfg := QuickConfig()
	cfg.Sections = 5
	out, err := CompareAllSeeds(cfg, core.PolicyShared, core.PolicyStaticEqual, DefaultSeeds(2), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 9 {
		t.Fatalf("rows = %d", len(out))
	}
	for _, sc := range out {
		if len(sc.PerSeed) != 2 {
			t.Errorf("%s: replicates = %d", sc.Benchmark, len(sc.PerSeed))
		}
	}
}
