package cache

import "fmt"

// LineState is the serializable form of one cache line.
type LineState struct {
	Tag     uint64
	LastUse uint64
	LastAcc int16
	Owner   int16
	Valid   bool
	Dirty   bool
}

// State is a full snapshot of a cache's mutable contents. Geometry and
// mode are carried so a restore can verify it is being applied to a
// structurally identical cache.
type State struct {
	Cfg         Config
	Mode        Mode
	Lines       []LineState
	OwnCount    []int16
	Target      []int
	Clock       uint64
	Stats       Stats
	TadipInsert bool
	Psel        []int
	BipCount    []uint32
}

// State captures the cache's complete mutable state for checkpointing.
func (c *Cache) State() State {
	st := State{
		Cfg:         c.cfg,
		Mode:        c.mode,
		Lines:       make([]LineState, len(c.tagv)),
		OwnCount:    make([]int16, len(c.ownCount)),
		Target:      make([]int, len(c.target)),
		Clock:       c.clock,
		Stats:       c.Stats(),
		TadipInsert: c.tadipInsert,
	}
	for i := range st.Lines {
		st.Lines[i] = LineState{
			Tag: c.tags[i], LastUse: c.lastUse[i], LastAcc: c.lastAcc[i],
			Owner: c.owner[i], Valid: c.tagv[i] != 0, Dirty: c.dirty[i],
		}
	}
	copy(st.OwnCount, c.ownCount)
	copy(st.Target, c.target)
	if c.psel != nil {
		st.Psel = append([]int(nil), c.psel...)
		st.BipCount = append([]uint32(nil), c.bipCount...)
	}
	return st
}

// Restore overlays a snapshot onto the cache. The cache must have been
// constructed with the same configuration and mode the snapshot was
// captured under.
func (c *Cache) Restore(st State) error {
	switch {
	case st.Cfg != c.cfg:
		return fmt.Errorf("cache: restore config %+v does not match %+v", st.Cfg, c.cfg)
	case st.Mode != c.mode:
		return fmt.Errorf("cache: restore mode %v does not match %v", st.Mode, c.mode)
	case len(st.Lines) != len(c.tagv):
		return fmt.Errorf("cache: restore has %d lines, want %d", len(st.Lines), len(c.tagv))
	case len(st.OwnCount) != len(c.ownCount):
		return fmt.Errorf("cache: restore has %d ownership counters, want %d", len(st.OwnCount), len(c.ownCount))
	case len(st.Stats.Threads) != len(c.stats.Threads):
		return fmt.Errorf("cache: restore has %d thread stats, want %d", len(st.Stats.Threads), len(c.stats.Threads))
	}
	if err := c.checkTargets(st.Target); err != nil {
		return fmt.Errorf("cache: restore: %w", err)
	}
	for i, ln := range st.Lines {
		if ln.Valid && (ln.Owner < 0 || int(ln.Owner) >= c.cfg.NumThreads) {
			return fmt.Errorf("cache: restore line %d has owner %d out of range", i, ln.Owner)
		}
		c.tags[i] = ln.Tag
		c.lastUse[i] = ln.LastUse
		c.lastAcc[i] = ln.LastAcc
		c.owner[i] = ln.Owner
		c.dirty[i] = ln.Dirty
		if ln.Valid {
			c.tagv[i] = ln.Tag<<1 | 1
		} else {
			c.tagv[i] = 0
		}
	}
	copy(c.ownCount, st.OwnCount)
	copy(c.target, st.Target)
	c.clock = st.Clock
	copy(c.stats.Threads, st.Stats.Threads)
	c.tadipInsert = st.TadipInsert
	if st.TadipInsert {
		if len(st.Psel) != c.cfg.NumThreads || len(st.BipCount) != c.cfg.NumThreads {
			return fmt.Errorf("cache: restore TADIP state sized %d/%d, want %d",
				len(st.Psel), len(st.BipCount), c.cfg.NumThreads)
		}
		c.psel = append([]int(nil), st.Psel...)
		c.bipCount = append([]uint32(nil), st.BipCount...)
	}
	// The resident-line index and recency lists are derived state,
	// deliberately absent from State; rebuild them for the restored
	// contents (before the invariant check, which cross-validates them
	// against the line arrays).
	c.idxRebuild()
	c.lruRebuild()
	if err := c.checkInvariants(); err != nil {
		return fmt.Errorf("cache: restored state is inconsistent: %w", err)
	}
	return nil
}
