package experiment

import (
	"intracache/internal/core"
	"intracache/internal/fault"
)

// This file is the robustness harness: it sweeps policies × benchmarks
// × fault intensities to answer the production question the paper never
// had to — how much degraded telemetry can the dynamic partitioner
// absorb before it stops beating the shared-cache baseline, and does it
// fail soft (demote to static-equal) rather than fall over when the
// measurements become garbage?

// FaultLevel is one named fault intensity of a robustness sweep.
type FaultLevel struct {
	Name string
	Plan fault.Plan
}

// DefaultFaultLevels returns the canonical intensity ladder: clean,
// moderate (realistic counter noise), heavy (flaky telemetry), and
// catastrophic (measurements mostly garbage — the fail-soft regime).
func DefaultFaultLevels() []FaultLevel {
	return []FaultLevel{
		{Name: "clean", Plan: fault.Plan{}},
		{Name: "moderate", Plan: fault.Plan{
			Seed: 1, CPINoise: 0.10, DropRate: 0.05,
		}},
		{Name: "heavy", Plan: fault.Plan{
			Seed: 1, CPINoise: 0.5, DropRate: 0.2, StuckRate: 0.1, DecisionDelay: 2,
		}},
		{Name: "catastrophic", Plan: fault.Plan{
			Seed: 1, CPINoise: 3, DropRate: 0.5, StuckRate: 0.3, StallRate: 0.2, DecisionDelay: 4,
		}},
	}
}

// RobustnessCell is one (benchmark, policy, fault level) outcome.
type RobustnessCell struct {
	Benchmark string
	Policy    core.Policy
	Level     string
	// WallCycles is the faulted run's wall time; SharedCycles is the
	// clean shared-cache baseline on the same benchmark and work.
	WallCycles   uint64
	SharedCycles uint64
	// ImprovementPct is the cell's execution-time improvement over the
	// clean shared baseline (positive = faster than shared).
	ImprovementPct float64
	// Health is the controller's final health state ("" for policies
	// without health tracking).
	Health string
	// Faults counts the injected faults (zero value at the clean level).
	Faults fault.Stats
	// Attempts counts how many tries the cell took (0 when the result
	// was read back from a journal); Resumed marks journal read-back.
	Attempts int
	Resumed  bool
	Err      error
}

// RobustnessMatrix summarises a sweep as mean improvement over the
// shared baseline: one row per policy, one column per fault level,
// averaged across benchmarks. Errored cells are skipped; a (policy,
// level) pair with no successful cells reports NaN-free 0.
func RobustnessMatrix(cells []RobustnessCell) (rowLabels, colLabels []string, values [][]float64) {
	var policies []string
	var levels []string
	seenP := map[string]int{}
	seenL := map[string]int{}
	for _, c := range cells {
		p := c.Policy.String()
		if _, ok := seenP[p]; !ok {
			seenP[p] = len(policies)
			policies = append(policies, p)
		}
		if _, ok := seenL[c.Level]; !ok {
			seenL[c.Level] = len(levels)
			levels = append(levels, c.Level)
		}
	}
	sums := make([][]float64, len(policies))
	counts := make([][]int, len(policies))
	for i := range sums {
		sums[i] = make([]float64, len(levels))
		counts[i] = make([]int, len(levels))
	}
	for _, c := range cells {
		if c.Err != nil {
			continue
		}
		i, j := seenP[c.Policy.String()], seenL[c.Level]
		sums[i][j] += c.ImprovementPct
		counts[i][j]++
	}
	for i := range sums {
		for j := range sums[i] {
			if counts[i][j] > 0 {
				sums[i][j] /= float64(counts[i][j])
			}
		}
	}
	return policies, levels, sums
}

// HealthCounts tallies final controller health states for one policy at
// one fault level across benchmarks (e.g. how many runs ended demoted
// to "static" under catastrophic faults).
func HealthCounts(cells []RobustnessCell, policy core.Policy, level string) map[string]int {
	out := map[string]int{}
	for _, c := range cells {
		if c.Err != nil || c.Policy != policy || c.Level != level {
			continue
		}
		h := c.Health
		if h == "" {
			h = "(untracked)"
		}
		out[h]++
	}
	return out
}
