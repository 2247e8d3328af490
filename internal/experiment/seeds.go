package experiment

import (
	"fmt"
	"math"

	"intracache/internal/core"
	"intracache/internal/stats"
	"intracache/internal/workload"
)

// The paper reports single-run numbers from a deterministic simulator.
// Our workloads are synthetic and seeded, so improvement numbers carry
// seed-to-seed variation; this file provides multi-seed replication
// with confidence intervals so EXPERIMENTS.md claims can be made (and
// checked) statistically rather than from one lucky seed.

// SeededComparison aggregates one benchmark's baseline-vs-candidate
// improvement over several seeds.
type SeededComparison struct {
	Benchmark string
	// PerSeed holds the improvement percent of each replicate.
	PerSeed []float64
	// Mean and CI95 summarise them: Mean ± CI95 is the 95% confidence
	// interval of the mean (Student t, n−1 degrees of freedom).
	Mean float64
	CI95 float64
}

// Min returns the worst replicate.
func (s SeededComparison) Min() float64 {
	m, err := stats.Min(s.PerSeed)
	if err != nil {
		return 0
	}
	return m
}

// Max returns the best replicate.
func (s SeededComparison) Max() float64 {
	m, err := stats.Max(s.PerSeed)
	if err != nil {
		return 0
	}
	return m
}

// CompareSeeds runs baseline vs candidate on one benchmark across the
// given seeds (in parallel) and returns the replicate summary.
func CompareSeeds(cfg Config, prof workload.Profile, baseline, candidate core.Policy,
	seeds []uint64, workers int) (SeededComparison, error) {
	if len(seeds) == 0 {
		return SeededComparison{}, fmt.Errorf("experiment: no seeds")
	}
	out := SeededComparison{Benchmark: prof.Name, PerSeed: make([]float64, len(seeds))}
	errs := forEachIndex(len(seeds), workers, func(i int) error {
		c := cfg
		c.Seed = seeds[i]
		cmp, err := Compare(c, prof, baseline, candidate)
		if err != nil {
			return err
		}
		out.PerSeed[i] = cmp.ImprovementPct
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return SeededComparison{}, err
		}
	}
	out.Mean = stats.Mean(out.PerSeed)
	if n := len(out.PerSeed); n > 1 {
		// Sample standard deviation; with a handful of seeds the t
		// quantile, not the normal 1.96, gives the 95% interval.
		sd := stats.StdDev(out.PerSeed) * math.Sqrt(float64(n)/float64(n-1))
		out.CI95 = t975(n-1) * sd / math.Sqrt(float64(n))
	}
	return out, nil
}

// t975Table holds the two-sided 95% Student t quantiles t(0.975, df)
// for df = 1..30.
var t975Table = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// t975 returns t(0.975, df), and the normal 1.96 beyond the table.
func t975(df int) float64 {
	if df <= len(t975Table) {
		return t975Table[df-1]
	}
	return 1.96
}

// CompareAllSeeds runs CompareSeeds for every benchmark.
func CompareAllSeeds(cfg Config, baseline, candidate core.Policy,
	seeds []uint64, workers int) ([]SeededComparison, error) {
	profiles := workload.Profiles()
	out := make([]SeededComparison, len(profiles))
	for i, prof := range profiles {
		sc, err := CompareSeeds(cfg, prof, baseline, candidate, seeds, workers)
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", prof.Name, err)
		}
		out[i] = sc
	}
	return out, nil
}

// DefaultSeeds returns n well-spread deterministic seeds.
func DefaultSeeds(n int) []uint64 {
	out := make([]uint64, n)
	seed := uint64(42)
	for i := range out {
		out[i] = seed
		seed = seed*6364136223846793005 + 1442695040888963407
	}
	return out
}
