package core

import (
	"fmt"

	"intracache/internal/cache"
	"intracache/internal/sim"
)

// Engine is a partition engine: it converts one interval's measurements
// (plus whatever state it accumulates) into a way assignment. A nil
// return keeps the current assignment.
type Engine interface {
	// Decide is called once per execution interval with the interval's
	// per-thread counters, the measurement substrate, and the currently
	// installed assignment. A non-nil result must be a valid assignment
	// (non-negative entries summing to mon.Ways()).
	Decide(iv sim.IntervalStats, mon sim.Monitors, current []int) []int
	// Name identifies the engine in reports.
	Name() string
}

// EqualEngine keeps the initial equal split forever (static partition).
type EqualEngine struct{}

// Decide implements Engine by never changing the assignment.
func (EqualEngine) Decide(sim.IntervalStats, sim.Monitors, []int) []int { return nil }

// Name implements Engine.
func (EqualEngine) Name() string { return "static-equal" }

// validAssignment verifies an engine result.
func validAssignment(targets []int, ways, threads int) error {
	if len(targets) != threads {
		return fmt.Errorf("core: assignment for %d threads, want %d", len(targets), threads)
	}
	sum := 0
	for i, w := range targets {
		if w < 0 {
			return fmt.Errorf("core: negative ways %d for thread %d", w, i)
		}
		sum += w
	}
	if sum != ways {
		return fmt.Errorf("core: assignment sums to %d, want %d", sum, ways)
	}
	return nil
}

// proportionalShares converts non-negative weights into integer way
// counts summing to ways, with every thread guaranteed at least floor
// ways (clamped so n*floor <= ways). Remainder ways go to the largest
// fractional shares, ties to the lower thread index. All-zero weights
// fall back to an equal split.
func proportionalShares(weights []float64, ways, floor int) []int {
	n := len(weights)
	if floor*n > ways {
		floor = ways / n
	}
	if floor < 0 {
		floor = 0
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	out := make([]int, n)
	if total == 0 {
		copy(out, cache.EqualSplit(ways, n))
		return out
	}
	// Distribute the ways above the per-thread floor proportionally.
	spare := ways - floor*n
	fracs := make([]float64, n)
	assigned := 0
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		share := w / total * float64(spare)
		out[i] = floor + int(share)
		fracs[i] = share - float64(int(share))
		assigned += out[i]
	}
	for assigned < ways {
		best := 0
		for i := 1; i < n; i++ {
			if fracs[i] > fracs[best] {
				best = i
			}
		}
		out[best]++
		fracs[best] = -1
		assigned++
	}
	return out
}
