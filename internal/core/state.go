package core

import (
	"cmp"
	"fmt"
	"slices"

	"intracache/internal/sim"
)

// CPIModelState is the serializable form of one thread's CPI model.
type CPIModelState struct {
	Points map[int]float64
	Stamps map[int]int
}

// ModelState captures the model's data points for checkpointing.
func (m *CPIModel) ModelState() CPIModelState {
	st := CPIModelState{Points: make(map[int]float64, len(m.pts)), Stamps: make(map[int]int, len(m.pts))}
	for _, p := range m.pts {
		st.Points[p.ways] = p.cpi
		st.Stamps[p.ways] = p.stamp
	}
	return st
}

// RestoreModelState overlays a snapshot onto the model. It refuses a
// snapshot Observe could never have produced — a negative way count, a
// non-positive or non-finite CPI, or a point without a stamp (or the
// reverse) — because such a point breaks every fit built on it; the
// model is left unchanged then.
func (m *CPIModel) RestoreModelState(st CPIModelState) error {
	if len(st.Points) != len(st.Stamps) {
		return fmt.Errorf("core: model snapshot has %d points but %d stamps", len(st.Points), len(st.Stamps))
	}
	pts := make([]modelPoint, 0, len(st.Points))
	for w, c := range st.Points {
		pts = append(pts, modelPoint{ways: w, cpi: c, stamp: st.Stamps[w]})
	}
	slices.SortFunc(pts, func(a, b modelPoint) int { return cmp.Compare(a.ways, b.ways) })
	for _, p := range pts {
		if _, ok := st.Stamps[p.ways]; !ok {
			return fmt.Errorf("core: model snapshot point at %d ways has no stamp", p.ways)
		}
		if !validPoint(p.ways, p.cpi) {
			return fmt.Errorf("core: model snapshot point (%d ways, CPI %v) is invalid", p.ways, p.cpi)
		}
	}
	m.pts = pts
	return nil
}

// ModelEngineState is the serializable mutable state of a ModelEngine.
type ModelEngineState struct {
	Models   []CPIModelState
	Interval int
}

// EngineState captures the engine's mutable state for checkpointing.
func (e *ModelEngine) EngineState() ModelEngineState {
	st := ModelEngineState{Interval: e.interval}
	for _, m := range e.models {
		st.Models = append(st.Models, m.ModelState())
	}
	return st
}

// RestoreEngineState overlays a snapshot onto the engine.
func (e *ModelEngine) RestoreEngineState(st ModelEngineState) error {
	if len(st.Models) > 0 {
		e.ensure(len(st.Models))
		for i, ms := range st.Models {
			if err := e.models[i].RestoreModelState(ms); err != nil {
				return fmt.Errorf("core: restoring thread %d model: %w", i, err)
			}
		}
	}
	e.interval = st.Interval
	return nil
}

// ResilientEngineState is the serializable mutable state of a
// ResilientEngine, including its wrapped ModelEngine's state.
type ResilientEngineState struct {
	Model ModelEngineState

	Health       Health
	Ring         []bool
	Pos          int
	Filled       int
	SinceChange  int
	LastReported []sim.ThreadIntervalStats
	HaveReported bool
	LastGood     []sim.ThreadIntervalStats
	HaveGood     []bool
	ResetSplit   bool
	Demotions    int
	Promotions   int
	Rejected     uint64
}

// EngineState captures the engine's mutable state for checkpointing.
func (e *ResilientEngine) EngineState() ResilientEngineState {
	st := ResilientEngineState{
		Health:       e.health,
		Pos:          e.pos,
		Filled:       e.filled,
		SinceChange:  e.sinceChange,
		HaveReported: e.haveReported,
		ResetSplit:   e.resetSplit,
		Demotions:    e.demotions,
		Promotions:   e.promotions,
		Rejected:     e.rejected,
	}
	if e.Model != nil {
		st.Model = e.Model.EngineState()
	}
	st.Ring = append([]bool(nil), e.ring...)
	st.LastReported = append([]sim.ThreadIntervalStats(nil), e.lastReported...)
	st.LastGood = append([]sim.ThreadIntervalStats(nil), e.lastGood...)
	st.HaveGood = append([]bool(nil), e.haveGood...)
	return st
}

// RestoreEngineState overlays a snapshot onto the engine. It refuses a
// snapshot the engine could never have produced and that would index
// out of range on the next Decide: a quality window of the wrong size,
// a window position or fill count outside it, or per-thread state
// (reported and trusted samples, their flags, and the models) of
// unequal lengths. Per-thread state and models may each be empty: an
// engine that has not decided yet, or whose model never ran, has none.
func (e *ResilientEngine) RestoreEngineState(st ResilientEngineState) error {
	if st.Ring != nil && len(st.Ring) != window {
		return fmt.Errorf("core: restore quality window has %d slots, engine has %d", len(st.Ring), window)
	}
	if st.Pos < 0 || st.Pos >= window || st.Filled < 0 || st.Filled > window {
		return fmt.Errorf("core: restore window position %d / fill %d outside a %d-slot window", st.Pos, st.Filled, window)
	}
	n := len(st.LastReported)
	if len(st.LastGood) != n || len(st.HaveGood) != n ||
		(n > 0 && len(st.Model.Models) > 0 && len(st.Model.Models) != n) {
		return fmt.Errorf("core: restore per-thread state disagrees: %d reported, %d trusted, %d trusted flags, %d models",
			n, len(st.LastGood), len(st.HaveGood), len(st.Model.Models))
	}
	if st.Health < HealthModel || st.Health > HealthStatic {
		return fmt.Errorf("core: restore health %d out of range", st.Health)
	}
	if e.Model == nil {
		e.Model = NewModelEngine()
	}
	if err := e.Model.RestoreEngineState(st.Model); err != nil {
		return err
	}
	if st.Ring != nil {
		e.ring = append([]bool(nil), st.Ring...)
	}
	e.lastReported = append([]sim.ThreadIntervalStats(nil), st.LastReported...)
	e.lastGood = append([]sim.ThreadIntervalStats(nil), st.LastGood...)
	e.haveGood = append([]bool(nil), st.HaveGood...)
	e.health = st.Health
	e.pos = st.Pos
	e.filled = st.Filled
	e.sinceChange = st.SinceChange
	e.haveReported = st.HaveReported
	e.resetSplit = st.ResetSplit
	e.demotions = st.Demotions
	e.promotions = st.Promotions
	e.rejected = st.Rejected
	return nil
}

// EngineSnapshot is a union over the snapshot types of the stock
// engines. Exactly one pointer is set for stateful engines; Stateless
// marks engines (equal, CPI-proportional, UCP) that decide from the
// current interval alone and need nothing preserved.
type EngineSnapshot struct {
	Model     *ModelEngineState
	Resilient *ResilientEngineState
	Stateless bool
}

// CaptureEngine snapshots any stock engine. Custom Engine
// implementations are rejected: silently resuming them with amnesia
// would break the bit-identical-resume guarantee.
func CaptureEngine(e Engine) (EngineSnapshot, error) {
	switch eng := e.(type) {
	case nil:
		return EngineSnapshot{Stateless: true}, nil
	case *ResilientEngine:
		st := eng.EngineState()
		return EngineSnapshot{Resilient: &st}, nil
	case *ModelEngine:
		st := eng.EngineState()
		return EngineSnapshot{Model: &st}, nil
	case *CPIProportionalEngine, *UCPEngine, EqualEngine:
		return EngineSnapshot{Stateless: true}, nil
	default:
		return EngineSnapshot{}, fmt.Errorf("core: engine %T does not support checkpointing", e)
	}
}

// RestoreEngine overlays a snapshot onto an engine produced by the same
// policy as the capture.
func RestoreEngine(e Engine, st EngineSnapshot) error {
	switch {
	case st.Stateless:
		switch e.(type) {
		case nil, *CPIProportionalEngine, *UCPEngine, EqualEngine:
			return nil
		default:
			return fmt.Errorf("core: stateless snapshot cannot restore engine %T", e)
		}
	case st.Resilient != nil:
		eng, ok := e.(*ResilientEngine)
		if !ok {
			return fmt.Errorf("core: resilient snapshot cannot restore engine %T", e)
		}
		return eng.RestoreEngineState(*st.Resilient)
	case st.Model != nil:
		eng, ok := e.(*ModelEngine)
		if !ok {
			return fmt.Errorf("core: model snapshot cannot restore engine %T", e)
		}
		return eng.RestoreEngineState(*st.Model)
	default:
		return fmt.Errorf("core: empty engine snapshot")
	}
}

// RuntimeSystemState is the serializable mutable state of a
// RuntimeSystem: the wrapped engine's snapshot and the validation
// counter.
type RuntimeSystemState struct {
	Engine             EngineSnapshot
	InvalidAssignments int
}

// State captures the runtime system's mutable state for checkpointing.
func (r *RuntimeSystem) State() (RuntimeSystemState, error) {
	eng, err := CaptureEngine(r.engine)
	if err != nil {
		return RuntimeSystemState{}, err
	}
	return RuntimeSystemState{Engine: eng, InvalidAssignments: r.invalidAssignments}, nil
}

// Restore overlays a snapshot onto the runtime system.
func (r *RuntimeSystem) Restore(st RuntimeSystemState) error {
	if err := RestoreEngine(r.engine, st.Engine); err != nil {
		return err
	}
	r.invalidAssignments = st.InvalidAssignments
	return nil
}
