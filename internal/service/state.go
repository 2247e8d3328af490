package service

import (
	"fmt"

	"intracache/internal/checkpoint"
	"intracache/internal/core"
	"intracache/internal/sim"
)

// State is the checkpointable form of a Service: the full session
// table plus the global counters that steer decisions (tick, rotation
// index) or that the taxonomy reports must not forget across a restart
// (Stats counters). Decision-latency measurements are deliberately
// absent — latency belongs to a run, not to the decision stream — so a
// restored service reports fresh percentiles but emits bit-identical
// decisions. So is draining: it belongs to the process that is
// stopping, and a restored service serves.
type State struct {
	Tick     uint64
	RR       int
	Order    []string
	Stats    Stats
	Sessions []SessionState
}

// SessionState is one session's checkpointable form. Runtime carries
// the ResilientEngine snapshot (health rung, hysteresis window, model
// points) through the same core.RuntimeSystemState the simulator
// checkpoints use.
type SessionState struct {
	App     string
	Threads int
	Ways    int

	Queue    []Sample
	Current  []int
	Interval int
	LastRung string
	LastTick uint64
	// Epoch is the allocation epoch watchers long-poll on. Absent in
	// pre-watch checkpoints (gob leaves it zero); Restore clamps it to
	// the creation value 1 so watch semantics hold after an upgrade.
	Epoch uint64

	DroppedOldest   uint64
	DroppedPressure uint64
	Mismatches      uint64

	Runtime core.RuntimeSystemState
}

// State captures the service for checkpointing. Safe to call
// concurrently with Ingest/Tick; the capture is a consistent cut.
func (s *Service) State() (State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	st := State{
		Tick:  s.tick,
		RR:    s.rr,
		Order: append([]string(nil), s.order...),
		Stats: s.stats,
	}
	for _, app := range s.order {
		sess := s.sessions[app]
		rst, err := sess.rts.State()
		if err != nil {
			return State{}, fmt.Errorf("service: capturing session %q: %w", app, err)
		}
		ss := SessionState{
			App:             sess.app,
			Threads:         sess.threads,
			Ways:            sess.ways,
			Current:         append([]int(nil), sess.current...),
			Interval:        sess.interval,
			LastRung:        sess.lastRung,
			LastTick:        sess.lastTick,
			Epoch:           sess.epoch,
			DroppedOldest:   sess.droppedOldest,
			DroppedPressure: sess.droppedPressure,
			Mismatches:      sess.mismatches,
			Runtime:         rst,
		}
		for _, smp := range sess.queue {
			cp := smp
			cp.Threads = append([]sim.ThreadIntervalStats(nil), smp.Threads...)
			ss.Queue = append(ss.Queue, cp)
		}
		st.Sessions = append(st.Sessions, ss)
	}
	return st, nil
}

// Restore overlays a captured state onto an empty service. Restoring
// into a service that already has sessions is refused — a restart
// restores first, then ingests.
func (s *Service) Restore(st State) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	if len(s.sessions) != 0 {
		return fmt.Errorf("service: restore into a non-empty service (%d sessions)", len(s.sessions))
	}
	if len(st.Order) != len(st.Sessions) {
		return fmt.Errorf("service: state order has %d entries, sessions %d", len(st.Order), len(st.Sessions))
	}
	if st.RR < 0 {
		// Tick indexes the order with RR modulo its length.
		return fmt.Errorf("service: state rotation index %d is negative", st.RR)
	}
	sessions := make(map[string]*session, len(st.Sessions))
	for i, ss := range st.Sessions {
		if ss.App == "" || ss.App != st.Order[i] {
			return fmt.Errorf("service: session %d (%q) disagrees with order entry %q", i, ss.App, st.Order[i])
		}
		if ss.Threads <= 0 || ss.Threads > maxThreadsPerApp || ss.Ways <= 0 || ss.Ways > maxWaysPerApp {
			return fmt.Errorf("service: session %q has invalid shape %d threads / %d ways", ss.App, ss.Threads, ss.Ways)
		}
		if len(ss.Current) != ss.Threads {
			return fmt.Errorf("service: session %q allocation has %d entries for %d threads", ss.App, len(ss.Current), ss.Threads)
		}
		eng := core.NewResilientEngine()
		rts, err := core.NewRuntimeSystem(eng)
		if err != nil {
			return err
		}
		if err := rts.Restore(ss.Runtime); err != nil {
			return fmt.Errorf("service: restoring session %q: %w", ss.App, err)
		}
		// Restore has checked the engine's per-thread state against
		// itself; it must also be for this session's threads, or empty
		// before the engine's first decision.
		r := ss.Runtime.Engine.Resilient
		if n := max(len(r.LastReported), len(r.Model.Models)); n != 0 && n != ss.Threads {
			return fmt.Errorf("service: session %q engine has state for %d threads, session has %d", ss.App, n, ss.Threads)
		}
		sess := &session{
			app:             ss.App,
			threads:         ss.Threads,
			ways:            ss.Ways,
			eng:             eng,
			rts:             rts,
			current:         append([]int(nil), ss.Current...),
			interval:        ss.Interval,
			lastRung:        ss.LastRung,
			lastTick:        ss.LastTick,
			epoch:           ss.Epoch,
			watch:           make(chan struct{}),
			droppedOldest:   ss.DroppedOldest,
			droppedPressure: ss.DroppedPressure,
			mismatches:      ss.Mismatches,
		}
		if sess.epoch == 0 {
			sess.epoch = 1 // pre-watch checkpoint: creation epoch
		}
		for _, smp := range ss.Queue {
			cp := smp
			cp.Threads = append([]sim.ThreadIntervalStats(nil), smp.Threads...)
			sess.queue = append(sess.queue, cp)
		}
		sessions[ss.App] = sess
	}
	s.sessions = sessions
	s.order = append([]string(nil), st.Order...)
	s.tick = st.Tick
	s.rr = st.RR
	s.stats = st.Stats
	s.stats.Sessions = len(sessions)
	return nil
}

// SaveCheckpoint captures the service and writes it atomically inside
// the standard CRC64 checkpoint envelope, in the binary encoding of
// codec.go.
func (s *Service) SaveCheckpoint(path string) error {
	st, err := s.State()
	if err != nil {
		return err
	}
	return checkpoint.SaveSealed(path, encodeState(nil, &st))
}

// LoadCheckpoint reads a SaveCheckpoint file, in the binary encoding or
// in the gob encoding of files written before it, and restores it into
// s (which must be empty).
func (s *Service) LoadCheckpoint(path string) error {
	payload, err := checkpoint.LoadSealed(path)
	if err != nil {
		return err
	}
	st, err := decodeCheckpoint(payload)
	if err != nil {
		return err
	}
	return s.Restore(st)
}
