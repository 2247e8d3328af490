package core

import (
	"fmt"

	"intracache/internal/cache"
	"intracache/internal/sim"
)

// RuntimeSystem is the paper's runtime system (Fig. 17): it implements
// sim.Controller, feeding each interval's monitor readings to a
// partition engine and handing the engine's assignment back to the
// simulator (the configuration unit). The per-interval history lives
// in sim.Result.Intervals, not here.
type RuntimeSystem struct {
	engine Engine
	// invalidAssignments counts engine outputs that failed validation
	// and were replaced with the equal split.
	invalidAssignments int
}

// NewRuntimeSystem wraps an engine. A nil engine is rejected.
func NewRuntimeSystem(engine Engine) (*RuntimeSystem, error) {
	if engine == nil {
		return nil, fmt.Errorf("core: nil partition engine")
	}
	return &RuntimeSystem{engine: engine}, nil
}

// Engine returns the wrapped partition engine.
func (r *RuntimeSystem) Engine() Engine { return r.engine }

// InvalidAssignments returns how many engine outputs failed validation
// and were replaced with the equal split.
func (r *RuntimeSystem) InvalidAssignments() int { return r.invalidAssignments }

// ControllerHealth implements sim.HealthReporter: engines that track a
// degradation level (ResilientEngine) report it; plain engines report
// "" (no health tracking).
func (r *RuntimeSystem) ControllerHealth() string {
	if h, ok := r.engine.(interface{ Health() Health }); ok {
		return h.Health().String()
	}
	return ""
}

// OnInterval implements sim.Controller.
func (r *RuntimeSystem) OnInterval(iv sim.IntervalStats, mon sim.Monitors) []int {
	targets := r.engine.Decide(iv, mon, currentFrom(iv))
	if targets != nil {
		if err := validAssignment(targets, mon.Ways(), mon.NumThreads()); err != nil {
			// Degrade instead of crashing the run: an engine that emits a
			// broken assignment (a bug, or a fallback chain fed garbage)
			// gets the safe static equal split installed in its place.
			r.invalidAssignments++
			targets = cache.EqualSplit(mon.Ways(), mon.NumThreads())
		}
	}
	return targets
}

// currentFrom recovers the assignment the interval ran under from the
// per-thread WaysAssigned snapshots.
func currentFrom(iv sim.IntervalStats) []int {
	out := make([]int, len(iv.Threads))
	for t, ts := range iv.Threads {
		out[t] = ts.WaysAssigned
	}
	return out
}

// NewEngine constructs the partition engine for a dynamic policy.
// Non-dynamic policies have no engine and return an error.
//
// PolicyModelBased gets the hardened ResilientEngine: under clean
// telemetry it is a transparent wrapper around ModelEngine (identical
// decisions), and under degraded telemetry it walks the fallback chain
// model → CPI-proportional → static-equal instead of chasing garbage.
func NewEngine(p Policy) (Engine, error) {
	switch p {
	case PolicyCPIProportional:
		return NewCPIProportionalEngine(), nil
	case PolicyModelBased:
		return NewResilientEngine(), nil
	case PolicyThroughputUCP:
		return NewUCPEngine(), nil
	case PolicyStaticEqual:
		return EqualEngine{}, nil
	default:
		return nil, fmt.Errorf("core: policy %v has no partition engine", p)
	}
}

// L2OrgFor maps a policy to the L2 organization it runs on.
func L2OrgFor(p Policy) sim.L2Organization {
	switch p {
	case PolicyShared:
		return sim.L2Shared
	case PolicyPrivate:
		return sim.L2PrivatePerCore
	case PolicyTADIP:
		return sim.L2TADIP
	default:
		return sim.L2Partitioned
	}
}

// ControllerFor returns the sim.Controller for a policy (nil for
// policies that never repartition: shared, private, static-equal).
// For dynamic policies the returned RuntimeSystem is also returned as
// its concrete type for introspection.
func ControllerFor(p Policy) (sim.Controller, *RuntimeSystem, error) {
	if !p.IsDynamic() {
		return nil, nil, nil
	}
	eng, err := NewEngine(p)
	if err != nil {
		return nil, nil, err
	}
	rts, err := NewRuntimeSystem(eng)
	if err != nil {
		return nil, nil, err
	}
	return rts, rts, nil
}
