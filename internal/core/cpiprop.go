package core

import (
	"intracache/internal/sim"
)

// CPIProportionalEngine implements the paper's Sec. VI-A scheme
// (Fig. 12): at the end of each interval, thread t's way count is
//
//	partition_t = CPI_t / ΣCPI_i × TotalCacheWays
//
// so the slowest thread — the critical path thread — receives the
// largest share. The scheme is deliberately naive: it assumes CPI is a
// usable proxy for cache need without knowing how CPI responds to
// ways; the ModelEngine removes that assumption.
type CPIProportionalEngine struct{}

// NewCPIProportionalEngine returns the engine.
func NewCPIProportionalEngine() *CPIProportionalEngine { return &CPIProportionalEngine{} }

// Name implements Engine.
func (e *CPIProportionalEngine) Name() string { return "cpi-proportional" }

// Decide implements Engine.
func (e *CPIProportionalEngine) Decide(iv sim.IntervalStats, mon sim.Monitors, _ []int) []int {
	return cpiProportional(iv, mon)
}

// cpiProportional is the Fig. 12 rule, with every thread held at or
// above minWays so cache-light threads are not starved of ways.
func cpiProportional(iv sim.IntervalStats, mon sim.Monitors) []int {
	weights := make([]float64, len(iv.Threads))
	for t, ts := range iv.Threads {
		weights[t] = ts.CPI()
	}
	return proportionalShares(weights, mon.Ways(), minWays)
}
