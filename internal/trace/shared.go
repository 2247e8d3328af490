package trace

// Shared trace segments. DESIGN.md §5f measured that the deterministic
// per-instruction RNG stream is a large share of a simulation run's
// cost, and that a thread's instruction stream depends solely on its
// own generator state and consumption count, never on the cache
// configuration it is simulated under. Runs that consume the same
// stream — sweep cells over cache geometry, baseline-vs-candidate
// policy pairs — can therefore share it: a SegmentCache keyed on
// (ThreadSpec, generator state) holds run-length-encoded segments of
// ChunkInstructions instructions, the first run to reach a segment
// generates and publishes it, and later runs replay it without paying
// for generation. Everything happens on the consuming goroutine.
//
// Determinism is preserved exactly, not approximately. Every segment
// records the full generator state (GenState) it was generated from, so
// the generator state at the current consumption point is always
// reconstructible: restore a scratch generator to the segment's start
// state and replay the consumed prefix. SourceState() returns that
// state, byte-identical to what the bare ThreadGen would have reported,
// which keeps checkpoints interchangeable between shared and bare runs.
//
// The one thing a cached segment cannot know is where the simulator's
// interval boundaries fall: SetPhase arrives at config-dependent
// per-thread instruction offsets. SharedGen reacts to SetPhase as
// follows:
//
//   - Same scales as the current phase: ThreadGen.SetPhase is
//     behaviourally a no-op (the samplers rebuild to identical
//     parameters and consume no randomness), so the current segment
//     stays valid. The only exception is a degenerate stride
//     configuration (StrideBytes larger than the scaled working set)
//     where SetPhase's stridePos clamp can fire; samePhaseInert detects
//     it and falls through to the conservative path. Constant-phase
//     workloads (PhaseConstant profiles) hit this fast path at every
//     interval and stay fully cacheable.
//   - Changed scales: the stream ahead genuinely depends on this run's
//     configuration. SharedGen computes the exact state at the
//     consumption point, applies the phase to the real generator there,
//     and detaches from the cache permanently (the cache bypass): from
//     the first behaviour-changing SetPhase onward the stream is
//     config-specific and must not be shared.
//
// After a detach, a checkpoint restore, or a cache that stopped growing
// under its byte budget, SharedGen delegates straight to the wrapped
// generator.

import (
	"fmt"
	"sync"

	"intracache/internal/xrand"
)

// segment is a run-length-encoded slice of one thread's stream: exactly
// ChunkInstructions instructions generated from the start state under a
// fixed phase. Segments are immutable once published, so any number of
// cache-sharing runs may hold them at once.
type segment struct {
	start   GenState       // generator state the segment was generated from
	end     GenState       // generator state after the last instruction
	recs    []replayRecord // memory accesses, each preceded by a non-memory gap
	tailGap uint64         // trailing non-memory instructions after the last access
}

// memBytes approximates the segment's resident size for cache budgeting.
func (s *segment) memBytes() int64 {
	return int64(len(s.recs))*24 + 160
}

// genSegment consumes one segment's worth of instructions from g.
func genSegment(g *ThreadGen) *segment {
	seg := &segment{start: *g.SourceState().Gen}
	left := uint64(ChunkInstructions)
	for left > 0 {
		nonMem, in := g.NextRun(left)
		if in.IsMem {
			seg.recs = append(seg.recs, replayRecord{gap: nonMem, addr: in.Addr, write: in.Write})
			left -= nonMem + 1
		} else {
			// The run was cut by left, so this is the segment's tail.
			seg.tailGap += nonMem
			left -= nonMem
		}
	}
	seg.end = *g.SourceState().Gen
	return seg
}

// segKey identifies one shareable stream prefix: the thread's spec plus
// the full generator state at the point the run attached. Two runs with
// the same workload, seed and thread index produce identical keys (the
// workload layer derives per-thread RNGs deterministically), while any
// difference in spec, seed or initial phase yields a different key.
// Both component types are flat value structs, so the key is directly
// comparable and needs no serialization.
type segKey struct {
	spec  ThreadSpec
	start GenState
}

// cacheEntry is the segments generated so far for one key, plus the
// generator state at the frontier (end of the last segment) so any
// attached run can extend it.
type cacheEntry struct {
	key     segKey
	segs    []*segment
	end     GenState // state after segs[len-1]; key.start when empty
	bytes   int64
	refs    int
	lastUse uint64
	full    bool // budget exhausted: entry no longer grows
}

// CacheStats reports SegmentCache counters for observability and tests.
type CacheStats struct {
	Entries int
	Bytes   int64
	// Hits counts segments served from the cache; Misses counts
	// segments generated by an attached run (published when the budget
	// allowed).
	Hits   uint64
	Misses uint64
	// Evictions counts entries dropped to fit the budget. Detaches
	// counts runs that left the cache because a SetPhase changed their
	// stream (the config-dependence bypass).
	Evictions uint64
	Detaches  uint64
}

// SegmentCache shares generated segments between runs. All methods are
// safe for concurrent use (sweep cells run on parallel workers);
// segments are immutable and published under the cache lock,
// generation happens outside it.
type SegmentCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	clock   uint64
	entries map[segKey]*cacheEntry

	hits, misses, evictions, detaches uint64
}

// NewSegmentCache creates a cache bounded to budgetBytes of segment
// data. When the budget is exceeded, unreferenced entries are evicted
// least-recently-used first; if every entry is in use the growing entry
// simply stops caching (its runs keep generating privately).
func NewSegmentCache(budgetBytes int64) *SegmentCache {
	return &SegmentCache{budget: budgetBytes, entries: make(map[segKey]*cacheEntry)}
}

// Flush drops every entry (attached runs detach lazily: their entry
// pointer keeps its segments alive until they release it, but no new
// run will find it). Counters are preserved.
func (c *SegmentCache) Flush() {
	c.mu.Lock()
	c.entries = make(map[segKey]*cacheEntry)
	c.used = 0
	c.mu.Unlock()
}

// Stats returns a snapshot of the cache counters.
func (c *SegmentCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   len(c.entries),
		Bytes:     c.used,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Detaches:  c.detaches,
	}
}

// attach registers a run on the entry for key, creating it if needed.
func (c *SegmentCache) attach(spec ThreadSpec, start GenState) *cacheEntry {
	key := segKey{spec: spec, start: start}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		e = &cacheEntry{key: key, end: start}
		c.entries[key] = e
	}
	e.refs++
	c.clock++
	e.lastUse = c.clock
	return e
}

// release drops a run's reference; unreferenced entries stay cached
// (that is the point — the next cell reuses them) until evicted.
// detached additionally counts the release as a cache bypass.
func (c *SegmentCache) release(e *cacheEntry, detached bool) {
	c.mu.Lock()
	e.refs--
	if detached {
		c.detaches++
	}
	c.mu.Unlock()
}

// fetch returns segment k if it exists; otherwise atFrontier reports
// whether k is the next segment to be generated and frontier is the
// generator state to generate it from.
func (c *SegmentCache) fetch(e *cacheEntry, k int) (seg *segment, frontier GenState, atFrontier bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	e.lastUse = c.clock
	if k < len(e.segs) {
		c.hits++
		return e.segs[k], GenState{}, false
	}
	if k > len(e.segs) {
		// Unreachable by construction: runs consume sequentially from 0,
		// so the first miss is always the next ungenerated position.
		panic(fmt.Sprintf("trace: segment fetch at %d past cache frontier %d", k, len(e.segs)))
	}
	return nil, e.end, !e.full
}

// publish offers a freshly generated segment as entry position k.
// It returns the canonical segment for k — the existing one if another
// run raced ahead (identical content by determinism) — and whether the
// entry is still caching. ok=false means the budget is exhausted with
// every entry referenced: the caller should release the entry and
// continue privately.
func (c *SegmentCache) publish(e *cacheEntry, k int, seg *segment) (canon *segment, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses++
	if k < len(e.segs) {
		return e.segs[k], true
	}
	if e.full || k > len(e.segs) {
		return seg, !e.full
	}
	sz := seg.memBytes()
	if c.used+sz > c.budget {
		c.evictLocked(c.used + sz - c.budget)
	}
	if c.used+sz > c.budget {
		e.full = true
		return seg, false
	}
	e.segs = append(e.segs, seg)
	e.end = seg.end
	e.bytes += sz
	c.used += sz
	return seg, true
}

// evictLocked frees at least need bytes by dropping unreferenced
// entries, least recently used first. Caller holds c.mu.
func (c *SegmentCache) evictLocked(need int64) {
	for need > 0 {
		var victim *cacheEntry
		for _, e := range c.entries {
			if e.refs > 0 || len(e.segs) == 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(c.entries, victim.key)
		c.used -= victim.bytes
		need -= victim.bytes
		c.evictions++
	}
}

// SharedGen wraps a ThreadGen so its stream is served from, and
// published to, a SegmentCache, as described in the file comment. It
// implements RunSource and StatefulSource, so it drops into the
// simulator anywhere a bare generator does; Close must be called when
// the run ends to release the cache entry. Like ThreadGen, a SharedGen
// is owned by one simulated thread and its methods must not be called
// concurrently.
type SharedGen struct {
	gen     *ThreadGen
	scratch *ThreadGen // lazily built; replays prefixes for state accounting

	ws, str float64 // current phase, clamped like ThreadGen.SetPhase

	cache    *SegmentCache
	entry    *cacheEntry
	started  bool // attachment point pinned (first consumption)
	bypassed bool // left the cache on a behaviour-changing SetPhase
	direct   bool // delegating straight to gen, for good

	// Consumer cursor over cur. inGap counts consumed instructions of
	// the current gap (record gap, or tail gap once pos == len(recs)).
	cur     *segment
	pos     int
	inGap   uint64
	inSeg   uint64
	nextSeg int // stream index of the next segment to consume

	// genAt is the segment index the generator is positioned at (its
	// state equals that segment's start); cache hits leave it behind.
	genAt int
}

// Shared wraps gen to share its stream through cache. The caller must
// not use gen directly afterwards (the wrapper owns its state); all
// consumption, phase changes and checkpointing go through the
// SharedGen.
func Shared(gen *ThreadGen, cache *SegmentCache) *SharedGen {
	s := &SharedGen{gen: gen, cache: cache}
	s.ws, s.str = gen.Phase()
	return s
}

var (
	_ RunSource      = (*SharedGen)(nil)
	_ StatefulSource = (*SharedGen)(nil)
)

// Bypassed reports whether the run detached from the segment cache
// because a SetPhase made its stream config-dependent.
func (s *SharedGen) Bypassed() bool { return s.bypassed }

// Spec returns the underlying generator's spec.
func (s *SharedGen) Spec() ThreadSpec { return s.gen.Spec() }

// Next implements Source.
func (s *SharedGen) Next() Instr {
	if s.direct {
		return s.gen.Next()
	}
	_, in := s.NextRun(1)
	if in.IsMem {
		return in
	}
	return Instr{}
}

// NextRun implements RunSource with the same contract as ThreadGen:
// the emitted stream, and the state SourceState reports, are
// bit-identical to the wrapped generator consumed directly.
func (s *SharedGen) NextRun(max uint64) (nonMem uint64, in Instr) {
	if s.direct {
		return s.gen.NextRun(max)
	}
	for nonMem < max {
		if s.cur == nil || s.inSeg == ChunkInstructions {
			s.advanceSegment()
			if s.direct {
				n2, in2 := s.gen.NextRun(max - nonMem)
				return nonMem + n2, in2
			}
		}
		seg := s.cur
		if s.pos >= len(seg.recs) {
			take := seg.tailGap - s.inGap
			if take > max-nonMem {
				take = max - nonMem
			}
			s.inGap += take
			s.inSeg += take
			nonMem += take
			continue
		}
		rec := &seg.recs[s.pos]
		if s.inGap < rec.gap {
			take := rec.gap - s.inGap
			if take > max-nonMem {
				take = max - nonMem
			}
			s.inGap += take
			s.inSeg += take
			nonMem += take
			continue
		}
		s.inGap = 0
		s.pos++
		s.inSeg++
		return nonMem, Instr{IsMem: true, Write: rec.write, Addr: rec.addr}
	}
	return nonMem, Instr{}
}

// SetPhase implements Source. Same-phase calls that are provably inert
// keep the current segment (and the cache attachment); anything else
// rolls back to the exact consumption-point state, applies the phase
// there and detaches from the cache, since the stream ahead now depends
// on when this run's intervals end.
func (s *SharedGen) SetPhase(wsScale, streamScale float64) {
	if s.direct || !s.started {
		// The generator is at the consumption point: an ordinary
		// SetPhase (before the first segment, it also shapes the key).
		s.gen.SetPhase(wsScale, streamScale)
		s.ws, s.str = s.gen.Phase()
		return
	}
	cw := clamp(wsScale, 0.05, 20)
	cs := clamp(streamScale, 0, 20)
	if cw == s.ws && cs == s.str && s.samePhaseInert() {
		return
	}
	st := s.syncState()
	if err := s.gen.RestoreSourceState(SourceState{Gen: &st}); err != nil {
		panic(fmt.Sprintf("trace: shared rollback restore: %v", err))
	}
	s.goDirect(true)
	s.gen.SetPhase(wsScale, streamScale)
	s.ws, s.str = s.gen.Phase()
}

// samePhaseInert reports whether re-applying the current phase is a
// guaranteed behavioural no-op. ThreadGen.SetPhase with unchanged
// scales rebuilds identical samplers and draws no randomness; the only
// state it can touch is the stridePos clamp, which cannot fire while
// stridePos < wsBytes — an invariant the stride walk maintains whenever
// StrideBytes <= wsBytes. The degenerate opposite case (a stride longer
// than the scaled working set) conservatively reports false.
func (s *SharedGen) samePhaseInert() bool {
	spec := s.gen.Spec()
	if spec.StrideWeight == 0 {
		return true
	}
	ws := uint64(float64(spec.PrivateBytes) * s.ws)
	if ws < uint64(spec.LineBytes) {
		ws = uint64(spec.LineBytes)
	}
	return uint64(spec.StrideBytes) <= ws
}

// syncState reconstructs the generator state at the current
// consumption point. Outside a segment the generator is already there;
// otherwise a scratch generator replays the consumed prefix of the
// current segment from its recorded start state.
func (s *SharedGen) syncState() GenState {
	switch {
	case s.direct || s.cur == nil:
		return *s.gen.SourceState().Gen
	case s.inSeg == 0:
		return s.cur.start
	case s.inSeg == ChunkInstructions:
		return s.cur.end
	}
	if s.scratch == nil {
		g, err := NewThread(s.gen.Spec(), xrand.New(1))
		if err != nil {
			// The wrapped generator was built from this spec, so it
			// validated once already.
			panic(fmt.Sprintf("trace: shared scratch generator: %v", err))
		}
		// The placeholder seed never reaches the stream: every use
		// restores a recorded GenState, which carries the true base RNG.
		s.scratch = g
	}
	st := s.cur.start
	if err := s.scratch.RestoreSourceState(SourceState{Gen: &st}); err != nil {
		panic(fmt.Sprintf("trace: shared rollback restore: %v", err))
	}
	left := s.inSeg
	for left > 0 {
		nonMem, in := s.scratch.NextRun(left)
		left -= nonMem
		if in.IsMem {
			left--
		}
	}
	return *s.scratch.SourceState().Gen
}

// goDirect drops the segment cursor and leaves the cache for good; the
// caller has positioned the generator at the consumption point.
// detached counts the departure as a cache bypass.
func (s *SharedGen) goDirect(detached bool) {
	s.cur = nil
	s.pos, s.inGap, s.inSeg = 0, 0, 0
	if s.entry != nil {
		s.cache.release(s.entry, detached)
		s.entry = nil
		s.bypassed = detached
	}
	s.direct = true
}

// SourceState implements StatefulSource. The returned snapshot is
// byte-identical to what the wrapped generator would report if it had
// been consumed directly to the same point, so checkpoints written by
// shared and bare runs are interchangeable.
func (s *SharedGen) SourceState() SourceState {
	st := s.syncState()
	return SourceState{Gen: &st}
}

// RestoreSourceState implements StatefulSource. The resumed run stays
// private (no cache attachment): a mid-stream state is a poor sharing
// key, and resumed runs are rare enough that correctness-by-simplicity
// wins.
func (s *SharedGen) RestoreSourceState(st SourceState) error {
	if st.Gen == nil {
		return fmt.Errorf("trace: state is not a generator snapshot")
	}
	s.goDirect(false)
	if err := s.gen.RestoreSourceState(st); err != nil {
		return err
	}
	s.ws, s.str = s.gen.Phase()
	return nil
}

// Close releases the cache entry. The source must not be used
// afterwards. Closing twice is harmless.
func (s *SharedGen) Close() {
	if s.entry != nil {
		s.cache.release(s.entry, false)
		s.entry = nil
	}
}

// advanceSegment makes cur the next segment of the stream, or flips to
// direct delegation once the run is generating privately.
func (s *SharedGen) advanceSegment() {
	if !s.started {
		// The first consumption pins the attachment point: the entry is
		// keyed on the generator's full state (spec, RNG, cursors, phase).
		s.started = true
		s.entry = s.cache.attach(s.gen.Spec(), *s.gen.SourceState().Gen)
	}
	if s.entry == nil {
		// Private since publishing the segment just consumed: the
		// generator sits at its end, the consumption point.
		s.goDirect(false)
		return
	}
	k := s.nextSeg
	seg, frontier, atFrontier := s.cache.fetch(s.entry, k)
	if seg == nil {
		// A miss is always the next ungenerated position (consumption
		// is sequential), so the generator belongs at the frontier —
		// where it already is if it generated segment k-1.
		if s.genAt != k {
			if err := s.gen.RestoreSourceState(SourceState{Gen: &frontier}); err != nil {
				panic(fmt.Sprintf("trace: shared frontier restore: %v", err))
			}
			s.genAt = k
		}
		if !atFrontier {
			// The entry stopped growing under budget pressure.
			s.goDirect(false)
			return
		}
		var ok bool
		seg, ok = s.cache.publish(s.entry, k, genSegment(s.gen))
		s.genAt = k + 1
		if !ok {
			s.cache.release(s.entry, false)
			s.entry = nil
		}
	}
	s.cur = seg
	s.pos, s.inGap, s.inSeg = 0, 0, 0
	s.nextSeg++
}
