//go:build !race

// The race detector makes sync.Pool drop items at random, so the
// decision path's allocation count is pinned only without it.

package core

import (
	"testing"

	"intracache/internal/cache"
	"intracache/internal/sim"
	"intracache/internal/xrand"
)

// TestModelEngineDecideAllocs pins the partition path: once the models
// hold their points, a decision allocates only the assignment it
// returns.
func TestModelEngineDecideAllocs(t *testing.T) {
	e := NewModelEngine()
	var mon sim.Monitors = fakeMon{ways: 64, threads: 8} // boxed once, not per call
	cur := []int{8, 8, 8, 8, 8, 8, 8, 8}
	r := xrand.New(1)
	for i := 0; i < 6; i++ {
		cpis := make([]float64, 8)
		for t := range cpis {
			cpis[t] = 1 + r.Float64()*8
		}
		if got := e.Decide(ivWith(i, cpis, cur), mon, cur); got != nil {
			cur = got
		}
	}
	iv := ivWith(6, []float64{2, 3, 9, 4, 2.5, 3.5, 5, 2.2}, cur)
	if got := e.Decide(iv, mon, cur); got == nil {
		t.Fatal("decision held the partition; the pin needs the search to move ways")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if e.Decide(iv, mon, cur) == nil {
			t.Fatal("decision held the partition")
		}
	})
	if allocs > 1 {
		t.Fatalf("ModelEngine.Decide: %v allocs, want <= 1 (the returned assignment)", allocs)
	}
}

// TestResilientEngineDecideAllocs bounds the hardened engine on the
// same path: the fit audit reuses pooled scratch, leaving the sample
// validation vector and the returned assignment.
func TestResilientEngineDecideAllocs(t *testing.T) {
	e := NewResilientEngine()
	var mon sim.Monitors = fakeMon{ways: 32, threads: 4}
	cur := cache.EqualSplit(32, 4)
	// Each thread's CPI falls with its ways, so the search moves ways
	// and the models collect the three points the fit audit needs.
	base := []float64{1, 3, 0.5, 2}
	interval := func(i int, ways []int) sim.IntervalStats {
		cpis := make([]float64, len(base))
		for t := range cpis {
			cpis[t] = base[t]*(1+16/float64(ways[t])) + 0.001*float64(i)
		}
		return ivWith(i, cpis, ways)
	}
	for i := 0; i < 12; i++ {
		if got := e.Decide(interval(i, cur), mon, cur); got != nil {
			cur = got
		}
	}
	audited := 0
	for _, m := range e.Model.Models() {
		if m.Len() >= 3 {
			audited++
		}
	}
	if audited == 0 {
		t.Fatal("no model has the three points the fit audit needs")
	}
	i := 12
	allocs := testing.AllocsPerRun(50, func() {
		i++
		e.Decide(interval(i, cur), mon, cur)
	})
	if e.Health() != HealthModel {
		t.Fatalf("health %v; the pin needs the model rung", e.Health())
	}
	// interval's two slices, assess's suspect vector, the assignment.
	if allocs > 4 {
		t.Fatalf("ResilientEngine.Decide: %v allocs, want <= 4", allocs)
	}
}
