package sim

import (
	"fmt"

	"intracache/internal/cache"
	"intracache/internal/mem"
	"intracache/internal/trace"
	"intracache/internal/umon"
)

// ThreadSnapshot is the serializable state of one simulated thread.
type ThreadSnapshot struct {
	Source      trace.SourceState
	Cycles      uint64
	Waiting     bool
	SectionLeft uint64
	TotalInstr  uint64
	StallCycles uint64
	IV          ThreadIntervalStats
}

// State is a full snapshot of a Simulator taken at an execution-interval
// boundary. Together with the (deterministic) construction parameters it
// is sufficient to resume the run bit-identically: every piece of
// mutable machine state is captured — caches, monitors, DRAM banks,
// per-thread cursors and RNGs, and the interval bookkeeping. Controller
// state is not included; controllers are
// checkpointed by their owner (see internal/checkpoint).
type State struct {
	NumThreads int
	L2Org      L2Organization

	Threads []ThreadSnapshot
	L1      []cache.State
	L2      *cache.State
	L2Priv  []cache.State
	Mon     *umon.State
	DRAM    *mem.State

	IntervalIdx   int
	IntervalAccum uint64
	Intervals     []IntervalStats
	Barriers      int
	CurTargets    []int
}

// State captures the simulator's complete mutable state. It fails when
// any thread's instruction source does not support checkpointing (does
// not implement trace.StatefulSource).
func (s *Simulator) State() (State, error) {
	st := State{
		NumThreads:    s.p.NumThreads,
		L2Org:         s.p.L2Org,
		Threads:       make([]ThreadSnapshot, len(s.threads)),
		L1:            make([]cache.State, len(s.l1)),
		IntervalIdx:   s.intervalIdx,
		IntervalAccum: s.intervalAccum,
		Barriers:      s.barriers,
	}
	for i := range s.threads {
		th := &s.threads[i]
		src, ok := th.gen.(trace.StatefulSource)
		if !ok {
			return State{}, fmt.Errorf("sim: thread %d source %T does not support checkpointing", i, th.gen)
		}
		st.Threads[i] = ThreadSnapshot{
			Source:      src.SourceState(),
			Cycles:      th.cycles,
			Waiting:     th.waiting,
			SectionLeft: th.sectionLeft,
			TotalInstr:  th.totalInstr,
			StallCycles: th.stallCycles,
			IV:          th.iv,
		}
	}
	for i, c := range s.l1 {
		st.L1[i] = c.State()
	}
	if s.l2 != nil {
		l2 := s.l2.State()
		st.L2 = &l2
	}
	for _, c := range s.l2Priv {
		st.L2Priv = append(st.L2Priv, c.State())
	}
	if s.mon != nil {
		m := s.mon.State()
		st.Mon = &m
	}
	if s.dram != nil {
		d := s.dram.State()
		st.DRAM = &d
	}
	for _, iv := range s.intervals {
		cp := iv
		cp.Threads = append([]ThreadIntervalStats(nil), iv.Threads...)
		st.Intervals = append(st.Intervals, cp)
	}
	if s.curTargets != nil {
		st.CurTargets = append([]int(nil), s.curTargets...)
	}
	return st, nil
}

// Restore overlays a snapshot onto a freshly constructed simulator. The
// simulator must have been built with the same Params and the same
// source/controller/phase configuration the snapshot was captured
// under; Restore verifies structure but cannot verify workload
// identity — resuming against a different workload silently yields a
// different (still self-consistent) run.
func (s *Simulator) Restore(st State) error {
	switch {
	case st.NumThreads != s.p.NumThreads:
		return fmt.Errorf("sim: restore has %d threads, simulator has %d", st.NumThreads, s.p.NumThreads)
	case st.L2Org != s.p.L2Org:
		return fmt.Errorf("sim: restore L2 organization %v, simulator has %v", st.L2Org, s.p.L2Org)
	case len(st.Threads) != len(s.threads):
		return fmt.Errorf("sim: restore has %d thread snapshots, want %d", len(st.Threads), len(s.threads))
	case len(st.L1) != len(s.l1):
		return fmt.Errorf("sim: restore has %d L1 snapshots, want %d", len(st.L1), len(s.l1))
	case (st.L2 == nil) != (s.l2 == nil):
		return fmt.Errorf("sim: restore shared-L2 presence mismatch")
	case len(st.L2Priv) != len(s.l2Priv):
		return fmt.Errorf("sim: restore has %d private-L2 snapshots, want %d", len(st.L2Priv), len(s.l2Priv))
	case (st.Mon == nil) != (s.mon == nil):
		return fmt.Errorf("sim: restore UMON presence mismatch")
	case (st.DRAM == nil) != (s.dram == nil):
		return fmt.Errorf("sim: restore DRAM presence mismatch")
	case st.CurTargets != nil && len(st.CurTargets) != len(s.curTargets):
		return fmt.Errorf("sim: restore has %d way targets, want %d", len(st.CurTargets), len(s.curTargets))
	}
	for i := range s.threads {
		th := &s.threads[i]
		src, ok := th.gen.(trace.StatefulSource)
		if !ok {
			return fmt.Errorf("sim: thread %d source %T does not support checkpointing", i, th.gen)
		}
		snap := st.Threads[i]
		if err := src.RestoreSourceState(snap.Source); err != nil {
			return fmt.Errorf("sim: thread %d: %w", i, err)
		}
		th.cycles = snap.Cycles
		th.waiting = snap.Waiting
		th.sectionLeft = snap.SectionLeft
		th.totalInstr = snap.TotalInstr
		th.stallCycles = snap.StallCycles
		th.iv = snap.IV
	}
	for i, c := range s.l1 {
		if err := c.Restore(st.L1[i]); err != nil {
			return fmt.Errorf("sim: L1[%d]: %w", i, err)
		}
	}
	if s.l2 != nil {
		if err := s.l2.Restore(*st.L2); err != nil {
			return fmt.Errorf("sim: L2: %w", err)
		}
	}
	for i, c := range s.l2Priv {
		if err := c.Restore(st.L2Priv[i]); err != nil {
			return fmt.Errorf("sim: private L2[%d]: %w", i, err)
		}
	}
	if s.mon != nil {
		if err := s.mon.Restore(*st.Mon); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	if s.dram != nil {
		if err := s.dram.Restore(*st.DRAM); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	s.intervalIdx = st.IntervalIdx
	s.intervalAccum = st.IntervalAccum
	s.intervals = nil
	for _, iv := range st.Intervals {
		cp := iv
		cp.Threads = append([]ThreadIntervalStats(nil), iv.Threads...)
		s.intervals = append(s.intervals, cp)
	}
	s.barriers = st.Barriers
	if st.CurTargets != nil {
		copy(s.curTargets, st.CurTargets)
	}
	// The ready queue is derived state (thread clocks + waiting flags),
	// deliberately absent from State; rebuild it for the new clocks.
	s.rebuildHeap()
	return nil
}
