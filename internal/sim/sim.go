// Package sim implements the trace-driven CMP simulator the evaluation
// runs on: N in-order cores with private L1 caches, a shared (optionally
// way-partitioned, optionally private-per-core) L2, blocking-miss timing,
// barrier-bound parallel sections, and execution-interval bookkeeping.
//
// It replaces the paper's Simics/Solaris/UltraSPARC-III testbed. The
// paper's mechanism needs three behaviours from its substrate, and the
// simulator provides exactly these:
//
//  1. Per-thread CPI dominated by L2 miss behaviour (in-order blocking
//     model: CPI = 1 + memRatio·(L1-miss·L2-lat + L2-miss·mem-lat)).
//  2. Way-partitioned LRU replacement in the shared L2 (internal/cache).
//  3. Barrier semantics: a parallel section ends when its slowest
//     thread — the critical path thread — arrives; earlier threads
//     stall (Fig. 1 of the paper).
//
// Threads execute in global cycle order (each step advances the thread
// with the smallest cycle clock), so the interleaving of cache accesses
// between fast and slow threads is realistic, which matters for both
// contention and the inter-thread interaction statistics.
package sim

import (
	"context"
	"fmt"
	"math/bits"

	"intracache/internal/cache"
	"intracache/internal/mem"
	"intracache/internal/trace"
	"intracache/internal/umon"
)

// L2Organization selects how the L2 level is built.
type L2Organization int

const (
	// L2Shared is one unpartitioned shared cache with global LRU.
	L2Shared L2Organization = iota
	// L2Partitioned is one shared cache with way-partitioning enforced
	// by replacement (Section V); targets are set by the Controller.
	L2Partitioned
	// L2PrivatePerCore splits the L2 into equal per-core private caches
	// (no cross-core hits; shared data is replicated). The paper's
	// "statically partitioned cache (private cache)" baseline.
	L2PrivatePerCore
	// L2TADIP is one shared cache managed by thread-aware dynamic
	// insertion (cache.SharedTADIP) — the adaptive-insertion
	// alternative the paper's related work proposes instead of
	// partitioning.
	L2TADIP
)

// String returns the organization name.
func (o L2Organization) String() string {
	switch o {
	case L2Shared:
		return "shared"
	case L2Partitioned:
		return "partitioned"
	case L2PrivatePerCore:
		return "private"
	case L2TADIP:
		return "shared-tadip"
	default:
		return fmt.Sprintf("L2Organization(%d)", int(o))
	}
}

// Params configures a simulation.
type Params struct {
	NumThreads int

	// L1 geometry for each core's private L1 (NumThreads instances).
	L1 cache.Config
	// L2 geometry for the shared L2. For L2PrivatePerCore, capacity and
	// ways are divided equally among cores.
	L2    cache.Config
	L2Org L2Organization

	// Timing (cycles). An instruction always costs BaseCycles; a memory
	// instruction adds L2HitCycles on an L1 miss that hits in L2, and
	// MemCycles on an L2 miss.
	BaseCycles  uint64
	L2HitCycles uint64
	MemCycles   uint64

	// SectionInstructions is the per-thread instruction count of one
	// barrier-delimited parallel section.
	SectionInstructions uint64
	// IntervalInstructions is the aggregate (all-thread) instruction
	// count of one execution interval (the paper's 15 M).
	IntervalInstructions uint64

	// UMONSampleStride, if nonzero, attaches a UCP-style utility
	// monitor sampling one in that many L2 sets.
	UMONSampleStride int

	// DRAM, if non-nil, replaces the flat MemCycles latency with a
	// banked open-row DRAM model (internal/mem): L2 misses then contend
	// for banks and see row-hit/row-conflict latency variation.
	DRAM *mem.Config

	// TADIPInsertion enables thread-aware dynamic insertion on the
	// shared/partitioned L2 in addition to whatever eviction regime the
	// organization uses — with L2Partitioned this is the hybrid of the
	// paper's scheme and adaptive insertion. Ignored for private L2s
	// (single-owner caches have nothing to duel over). L2TADIP implies it.
	TADIPInsertion bool

	// MaskPartitioning switches the L2Partitioned organization from the
	// paper's eviction-control mechanism (Sec. V) to commercial-style
	// contiguous way masks (cache.PartitionedMask) — the mechanism
	// ablation.
	MaskPartitioning bool

	// Mechanism once selected the partitioning geometry of the
	// L2Partitioned organization. Way targets (cache.MechWays) are the
	// only geometry left; the field remains for callers that still set
	// it, and Validate refuses any other value.
	Mechanism cache.Mechanism
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.NumThreads <= 0 {
		return fmt.Errorf("sim: NumThreads %d must be positive", p.NumThreads)
	}
	if err := p.L1.Validate(); err != nil {
		return fmt.Errorf("sim: L1: %w", err)
	}
	if err := p.L2.Validate(); err != nil {
		return fmt.Errorf("sim: L2: %w", err)
	}
	if p.L2.NumThreads != p.NumThreads {
		return fmt.Errorf("sim: L2.NumThreads %d != NumThreads %d", p.L2.NumThreads, p.NumThreads)
	}
	if p.L2Org == L2PrivatePerCore {
		if p.L2.Ways%p.NumThreads != 0 {
			return fmt.Errorf("sim: %d L2 ways not divisible by %d cores for private split",
				p.L2.Ways, p.NumThreads)
		}
	}
	if p.Mechanism != cache.MechWays {
		return fmt.Errorf("sim: partitioning mechanism %d was removed; only ways (0) remains", int(p.Mechanism))
	}
	if p.BaseCycles == 0 {
		return fmt.Errorf("sim: BaseCycles must be positive")
	}
	if p.SectionInstructions == 0 {
		return fmt.Errorf("sim: SectionInstructions must be positive")
	}
	if p.IntervalInstructions == 0 {
		return fmt.Errorf("sim: IntervalInstructions must be positive")
	}
	if p.UMONSampleStride < 0 {
		return fmt.Errorf("sim: negative UMONSampleStride")
	}
	if p.DRAM != nil {
		if err := p.DRAM.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// ThreadIntervalStats is one thread's counters over one execution
// interval, the information the paper's runtime system reads from the
// hardware performance monitors.
type ThreadIntervalStats struct {
	Instructions uint64
	ActiveCycles uint64 // cycles spent executing (barrier stalls excluded)
	StallCycles  uint64 // cycles spent waiting at barriers
	L1Misses     uint64
	L2Accesses   uint64
	L2Hits       uint64
	L2Misses     uint64
	WaysAssigned int // L2 way target during the interval (partitioned orgs)
}

// CPI returns the thread's active cycles-per-instruction for the
// interval; threads that retired nothing report 0.
func (t ThreadIntervalStats) CPI() float64 {
	if t.Instructions == 0 {
		return 0
	}
	return float64(t.ActiveCycles) / float64(t.Instructions)
}

// IntervalStats aggregates one interval.
type IntervalStats struct {
	Index   int
	Threads []ThreadIntervalStats
}

// OverallCPI returns the interval's application CPI under the paper's
// definition CPI_overall = max_t CPI_t (the critical path thread's CPI).
func (iv IntervalStats) OverallCPI() float64 {
	var m float64
	for _, t := range iv.Threads {
		if c := t.CPI(); c > m {
			m = c
		}
	}
	return m
}

// Monitors exposes the measurement substrate to a Controller.
type Monitors interface {
	// MissCurve returns the thread's UMON miss-vs-ways curve, or nil if
	// no UMON is attached.
	MissCurve(thread int) []uint64
	// Ways returns the L2 associativity being partitioned.
	Ways() int
	// NumThreads returns the number of threads.
	NumThreads() int
}

// Controller decides L2 partitions. OnInterval is invoked at the end of
// every execution interval with that interval's per-thread counters; a
// non-nil return installs new per-thread way targets (must sum to
// Ways()). Returning nil keeps the current targets. Controllers for
// non-partitioned organizations simply return nil.
type Controller interface {
	OnInterval(iv IntervalStats, mon Monitors) []int
}

// HealthReporter is an optional Controller extension: controllers that
// track their own degradation state (e.g. a fallback chain demoting
// from model-based to static partitioning under bad telemetry) expose
// it here, and the simulator records it in Result.ControllerHealth.
type HealthReporter interface {
	// ControllerHealth names the controller's current health state
	// ("" when the controller does not track health).
	ControllerHealth() string
}

// PhaseFunc maps (thread, interval) to the thread's working-set and
// stream scaling for that interval, modelling program phase behaviour.
type PhaseFunc func(thread, interval int) (wsScale, streamScale float64)

// threadState is one simulated core/thread.
type threadState struct {
	gen trace.Source
	// runSrc caches gen's RunSource capability (nil when the source only
	// supports one-at-a-time Next); resolved once so the hot path never
	// type-asserts.
	runSrc      trace.RunSource
	cycles      uint64 // wall-clock cycle count (includes barrier stalls)
	waiting     bool
	sectionLeft uint64

	totalInstr  uint64
	stallCycles uint64

	iv ThreadIntervalStats
}

// Result summarises a completed run.
type Result struct {
	WallCycles   uint64 // cycles until the last barrier of the last section
	TotalInstr   uint64
	Intervals    []IntervalStats
	Barriers     int
	ThreadCycles []uint64 // per-thread wall cycles
	ThreadInstr  []uint64
	ThreadStall  []uint64
	L2Stats      cache.Stats // aggregate L2 counters (summed across private caches if split)
	FinalTargets []int       // last installed way targets (partitioned org), else nil
	// ControllerHealth is the controller's final health state, when the
	// controller implements HealthReporter ("" otherwise).
	ControllerHealth string
}

// AppCPI returns the application-level CPI: wall cycles divided by
// per-thread instructions (the work each thread completed). Lower is
// better; it reflects the critical path, because wall cycles are set by
// the slowest thread of each section.
func (r Result) AppCPI() float64 {
	if r.TotalInstr == 0 {
		return 0
	}
	perThread := r.TotalInstr / uint64(len(r.ThreadInstr))
	if perThread == 0 {
		return 0
	}
	return float64(r.WallCycles) / float64(perThread)
}

// Simulator runs one application (a set of thread generators) over one
// cache hierarchy under one Controller.
type Simulator struct {
	p       Params
	threads []threadState
	l1      []*cache.Cache
	l2      *cache.Cache   // shared/partitioned organizations
	l2Priv  []*cache.Cache // private organization
	mon     *umon.Monitor
	dram    *mem.Model
	ctl     Controller
	phase   PhaseFunc

	intervalIdx   int
	intervalAccum uint64
	intervals     []IntervalStats
	barriers      int
	curTargets    []int

	// heap is a min-heap of runnable threads ordered by (cycles, index) —
	// the run-ahead scheduler's ready queue. Each entry packs
	// (cycles << idxBits) | threadIndex into one word so heap ordering is
	// a single integer compare while remaining exactly the lexicographic
	// (cycles, index) order. Only the root's clock changes while it
	// executes, so one key write-back plus sift-down per batch keeps it
	// valid. Rebuilt at barriers and restores; not serialized.
	heap    []uint64
	idxBits uint
	idxMask uint64
	// refStep switches the simulator to the retained pre-optimization
	// stepper (one linear scan + one instruction per step). The batched
	// scheduler is pinned bit-identical to it by differential tests.
	refStep bool
}

// New builds a simulator. gens must contain exactly p.NumThreads
// instruction sources (synthetic generators or trace replayers). ctl
// may be nil (no repartitioning). phase may be nil (no phase
// modulation).
func New(p Params, gens []trace.Source, ctl Controller, phase PhaseFunc) (*Simulator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(gens) != p.NumThreads {
		return nil, fmt.Errorf("sim: %d generators for %d threads", len(gens), p.NumThreads)
	}
	s := &Simulator{p: p, ctl: ctl, phase: phase}
	// Packed heap keys reserve the low idxBits for the thread index. The
	// clock occupies the remaining 64-idxBits bits, far beyond any
	// reachable cycle count (2^58 cycles even at 64 threads).
	s.idxBits = uint(bits.Len(uint(p.NumThreads - 1)))
	s.idxMask = 1<<s.idxBits - 1
	s.threads = make([]threadState, p.NumThreads)
	s.l1 = make([]*cache.Cache, p.NumThreads)
	for i := range s.threads {
		if gens[i] == nil {
			return nil, fmt.Errorf("sim: nil source for thread %d", i)
		}
		s.threads[i].gen = gens[i]
		s.threads[i].runSrc, _ = gens[i].(trace.RunSource)
		s.threads[i].sectionLeft = p.SectionInstructions
		l1cfg := p.L1
		l1cfg.NumThreads = 1
		l1, err := cache.New(l1cfg, cache.SharedLRU)
		if err != nil {
			return nil, fmt.Errorf("sim: L1[%d]: %w", i, err)
		}
		s.l1[i] = l1
	}
	switch p.L2Org {
	case L2Shared:
		l2, err := cache.New(p.L2, cache.SharedLRU)
		if err != nil {
			return nil, err
		}
		s.l2 = l2
	case L2TADIP:
		l2, err := cache.New(p.L2, cache.SharedTADIP)
		if err != nil {
			return nil, err
		}
		s.l2 = l2
	case L2Partitioned:
		mode := cache.Partitioned
		if p.MaskPartitioning {
			mode = cache.PartitionedMask
		}
		l2, err := cache.New(p.L2, mode)
		if err != nil {
			return nil, err
		}
		s.l2 = l2
		s.curTargets = l2.Targets()
	case L2PrivatePerCore:
		cfg := p.L2
		cfg.SizeBytes /= p.NumThreads
		cfg.Ways /= p.NumThreads
		cfg.NumThreads = 1
		s.l2Priv = make([]*cache.Cache, p.NumThreads)
		for i := range s.l2Priv {
			l2, err := cache.New(cfg, cache.SharedLRU)
			if err != nil {
				return nil, fmt.Errorf("sim: private L2 split: %w", err)
			}
			s.l2Priv[i] = l2
		}
	default:
		return nil, fmt.Errorf("sim: unknown L2 organization %v", p.L2Org)
	}
	if p.TADIPInsertion && s.l2 != nil {
		s.l2.EnableTADIPInsertion()
	}
	if p.UMONSampleStride > 0 {
		m, err := umon.New(umon.Config{
			Sets:         p.L2.Sets(),
			Ways:         p.L2.Ways,
			LineBytes:    p.L2.LineBytes,
			NumThreads:   p.NumThreads,
			SampleStride: p.UMONSampleStride,
		})
		if err != nil {
			return nil, err
		}
		s.mon = m
	}
	if p.DRAM != nil {
		d, err := mem.New(*p.DRAM)
		if err != nil {
			return nil, err
		}
		s.dram = d
	}
	s.applyPhase(0)
	s.noteTargets()
	s.rebuildHeap()
	return s, nil
}

// SetReferenceStepper selects between the batched run-ahead scheduler
// (default) and the retained one-instruction-at-a-time reference
// stepper. The two are bit-identical by construction; the reference
// exists so differential tests (and bisects) can prove it. Call it
// before running, not mid-batch.
func (s *Simulator) SetReferenceStepper(on bool) {
	s.refStep = on
	s.rebuildHeap()
}

// Params returns the simulator's parameters.
func (s *Simulator) Params() Params { return s.p }

// MissCurve implements Monitors.
func (s *Simulator) MissCurve(thread int) []uint64 {
	if s.mon == nil {
		return nil
	}
	return s.mon.MissCurve(thread)
}

// Ways implements Monitors.
func (s *Simulator) Ways() int { return s.p.L2.Ways }

// NumThreads implements Monitors.
func (s *Simulator) NumThreads() int { return s.p.NumThreads }

// Targets returns the current L2 way targets, or nil for organizations
// without partitioning.
func (s *Simulator) Targets() []int {
	if s.curTargets == nil {
		return nil
	}
	out := make([]int, len(s.curTargets))
	copy(out, s.curTargets)
	return out
}

// DRAMStats returns the DRAM model's counters, or a zero value when
// the flat latency model is in use.
func (s *Simulator) DRAMStats() mem.Stats {
	if s.dram == nil {
		return mem.Stats{}
	}
	return s.dram.Stats()
}

// L2CacheStats returns aggregate L2 counters.
func (s *Simulator) L2CacheStats() cache.Stats {
	if s.l2 != nil {
		return s.l2.Stats()
	}
	agg := cache.Stats{Threads: make([]cache.ThreadStats, s.p.NumThreads)}
	for i, c := range s.l2Priv {
		agg.Threads[i] = c.Stats().Threads[0]
	}
	return agg
}

// applyPhase pushes interval's phase scaling into every generator.
func (s *Simulator) applyPhase(interval int) {
	if s.phase == nil {
		return
	}
	for t := range s.threads {
		ws, str := s.phase(t, interval)
		s.threads[t].gen.SetPhase(ws, str)
	}
}

// noteTargets records the current targets into each thread's interval
// snapshot field.
func (s *Simulator) noteTargets() {
	for t := range s.threads {
		if s.curTargets != nil {
			s.threads[t].iv.WaysAssigned = s.curTargets[t]
		} else if s.p.L2Org == L2PrivatePerCore {
			s.threads[t].iv.WaysAssigned = s.p.L2.Ways / s.p.NumThreads
		} else {
			s.threads[t].iv.WaysAssigned = s.p.L2.Ways
		}
	}
}

// advance executes the next stretch of the simulation: one instruction
// under the reference stepper; under the default scheduler, run-ahead
// batches until an execution interval ends or every thread waits at the
// barrier. Either way it returns false when every thread is blocked at
// the barrier (the caller then releases it), and it returns to the
// caller immediately after completing an execution interval so hooks,
// cancellation, and checkpoints observe every boundary.
func (s *Simulator) advance() bool {
	if s.refStep {
		return s.stepRef()
	}
	return s.stepBatch()
}

// stepRef executes one instruction on the globally-earliest runnable
// thread — the retained pre-optimization stepper (O(NumThreads) scan
// per instruction). It is the behavioural reference the run-ahead
// scheduler is differentially tested against.
func (s *Simulator) stepRef() bool {
	// Pick the runnable thread with the smallest cycle clock.
	sel := -1
	for i := range s.threads {
		if s.threads[i].waiting {
			continue
		}
		if sel == -1 || s.threads[i].cycles < s.threads[sel].cycles {
			sel = i
		}
	}
	if sel == -1 {
		return false
	}
	th := &s.threads[sel]
	in := th.gen.Next()
	cost := s.p.BaseCycles
	if in.IsMem {
		cost += s.memAccess(sel, th, in)
	}
	th.cycles += cost
	th.iv.ActiveCycles += cost
	th.iv.Instructions++
	th.totalInstr++
	th.sectionLeft--
	if th.sectionLeft == 0 {
		th.waiting = true
	}

	s.intervalAccum++
	if s.intervalAccum >= s.p.IntervalInstructions {
		s.endInterval()
	}
	return true
}

// memAccess walks one memory instruction through the L1→L2→memory
// hierarchy on behalf of thread sel and returns the cycles it adds on
// top of BaseCycles. th.cycles must not yet include this instruction's
// cost (the DRAM model timestamps the access with the pre-instruction
// clock). Shared by the reference stepper and the batched scheduler so
// the two cannot drift.
func (s *Simulator) memAccess(sel int, th *threadState, in trace.Instr) uint64 {
	if s.l1[sel].Access(0, in.Addr, in.Write).Hit {
		return 0
	}
	th.iv.L1Misses++
	var l2res cache.AccessResult
	if s.l2 != nil {
		l2res = s.l2.Access(sel, in.Addr, in.Write)
	} else {
		l2res = s.l2Priv[sel].Access(0, in.Addr, in.Write)
	}
	if s.mon != nil {
		s.mon.Observe(sel, in.Addr)
	}
	th.iv.L2Accesses++
	if l2res.Hit {
		th.iv.L2Hits++
		return s.p.L2HitCycles
	}
	th.iv.L2Misses++
	if s.dram != nil {
		return s.dram.Access(in.Addr, th.cycles)
	}
	return s.p.MemCycles
}

// stepBatch is the run-ahead scheduler. The ready queue is a min-heap
// of runnable threads keyed by (cycles, index) — exactly the order the
// reference stepper's per-instruction argmin scan resolves ties in —
// and the root thread executes a *batch* of instructions until its
// clock lexicographically passes the runner-up (the smaller of the
// root's heap children), it blocks at the barrier, or it completes an
// execution interval. Scheduling cost is thereby amortized to one
// sift-down per batch instead of an O(NumThreads) scan per instruction,
// and stretches of non-memory instructions inside a batch are retired
// through trace.RunSource.NextRun with a single run-length add. Batches
// follow each other in place until an interval completes (true) or
// every thread waits at the barrier (false), so the run loop is
// entered once per interval or section, not once per batch.
func (s *Simulator) stepBatch() bool {
	for len(s.heap) > 0 {
		if s.runBatch() {
			return true
		}
	}
	return false
}

// runBatch runs one batch of the ready queue's root and reports
// whether it completed an execution interval. The heap must be
// non-empty.
func (s *Simulator) runBatch() bool {
	selKey := s.heap[0] & s.idxMask
	sel := int32(selKey)
	th := &s.threads[sel]

	// The runner-up bound: the thread keeps executing while its packed
	// key stays below the smaller of the root's children — i.e. while
	// (cycles, sel) < (ruCycles, ruIdx) lexicographically. With no other
	// runnable thread the bound is +inf.
	ruKey := ^uint64(0)
	hasRU := false
	if len(s.heap) > 1 {
		ruKey = s.heap[1]
		if len(s.heap) > 2 && s.heap[2] < ruKey {
			ruKey = s.heap[2]
		}
		hasRU = true
	}
	ruCycles := ruKey >> s.idxBits
	ruIdx := int32(ruKey & s.idxMask)

	base := s.p.BaseCycles
	for {
		// Batch bound: how many instructions may retire before a
		// boundary the reference stepper would observe per-instruction.
		// All three bounds are exact, so checking them per *batch* is
		// equivalent to checking them per instruction.
		max := th.sectionLeft
		if left := s.p.IntervalInstructions - s.intervalAccum; left < max {
			max = left
		}
		if hasRU {
			// The scheduling precondition is evaluated before each
			// instruction: instruction j (0-based) of a pure-compute run
			// requires cycles + j*base lex< (ruCycles, ruIdx). base == 1
			// (the common configuration) skips the integer divisions.
			headroom := ruCycles - th.cycles
			var byClock uint64
			switch {
			case base == 1 && sel < ruIdx:
				byClock = headroom + 1
			case base == 1:
				byClock = headroom
			case sel < ruIdx:
				byClock = headroom/base + 1
			default:
				byClock = (headroom + base - 1) / base // ceil: strict inequality
			}
			if byClock < max {
				max = byClock
			}
		}

		var n uint64
		var in trace.Instr
		if th.runSrc != nil {
			n, in = th.runSrc.NextRun(max)
		} else if in = th.gen.Next(); !in.IsMem {
			n, in = 1, trace.Instr{}
		}
		// Retire the compute run and the trailing memory instruction (if
		// any) with one fused bookkeeping update. The memory access must
		// see th.cycles inclusive of the run's cycles but exclusive of
		// its own cost (the DRAM model timestamps with the pre-access
		// clock), so the clock is split out from the rest.
		instrs := n
		cost := n * base
		if in.IsMem {
			th.cycles += cost
			mem := base + s.memAccess(int(sel), th, in)
			th.cycles += mem
			cost += mem
			instrs++
			th.iv.ActiveCycles += cost
		} else {
			th.cycles += cost
			th.iv.ActiveCycles += cost
		}
		th.iv.Instructions += instrs
		th.totalInstr += instrs
		th.sectionLeft -= instrs
		s.intervalAccum += instrs

		if th.sectionLeft == 0 {
			th.waiting = true
			s.popHeapRoot()
			if s.intervalAccum >= s.p.IntervalInstructions {
				s.endInterval()
				return true
			}
			return false
		}
		if s.intervalAccum >= s.p.IntervalInstructions {
			s.heap[0] = th.cycles<<s.idxBits | selKey
			s.siftDown(0)
			s.endInterval()
			return true
		}
		// Still runnable and mid-interval: keep the batch going while
		// this thread remains the earliest.
		if hasRU {
			if key := th.cycles<<s.idxBits | selKey; key >= ruKey {
				s.heap[0] = key
				s.siftDown(0)
				return false
			}
		}
	}
}

// rebuildHeap reconstructs the ready queue from scratch (construction,
// barrier release, restore, stepper switch).
func (s *Simulator) rebuildHeap() {
	s.heap = s.heap[:0]
	for i := range s.threads {
		if !s.threads[i].waiting {
			s.heap = append(s.heap, s.threads[i].cycles<<s.idxBits|uint64(i))
		}
	}
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// siftDown restores the heap property below node i.
func (s *Simulator) siftDown(i int) {
	n := len(s.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && s.heap[r] < s.heap[l] {
			m = r
		}
		if s.heap[m] >= s.heap[i] {
			return
		}
		s.heap[i], s.heap[m] = s.heap[m], s.heap[i]
		i = m
	}
}

// popHeapRoot removes the ready queue's root (a thread that just
// blocked at the barrier).
func (s *Simulator) popHeapRoot() {
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	if n > 1 {
		s.siftDown(0)
	}
}

// releaseBarrier advances all threads to the critical thread's arrival
// time and starts the next parallel section.
func (s *Simulator) releaseBarrier() {
	var barrier uint64
	for i := range s.threads {
		if s.threads[i].cycles > barrier {
			barrier = s.threads[i].cycles
		}
	}
	for i := range s.threads {
		th := &s.threads[i]
		stall := barrier - th.cycles
		th.stallCycles += stall
		th.iv.StallCycles += stall
		th.cycles = barrier
		th.waiting = false
		th.sectionLeft = s.p.SectionInstructions
	}
	s.barriers++
	s.rebuildHeap()
}

// endInterval snapshots counters, consults the controller, applies new
// targets and phase scaling, and resets per-interval state.
func (s *Simulator) endInterval() {
	iv := IntervalStats{Index: s.intervalIdx, Threads: make([]ThreadIntervalStats, s.p.NumThreads)}
	for t := range s.threads {
		iv.Threads[t] = s.threads[t].iv
	}
	s.intervals = append(s.intervals, iv)

	if s.ctl != nil {
		if targets := s.ctl.OnInterval(iv, s); targets != nil {
			if s.p.L2Org != L2Partitioned {
				panic(fmt.Sprintf("sim: controller returned targets for %v organization", s.p.L2Org))
			}
			if err := s.l2.SetTargets(targets); err != nil {
				panic(fmt.Sprintf("sim: controller targets rejected: %v", err))
			}
			copy(s.curTargets, targets)
		}
	}
	if s.mon != nil {
		s.mon.Decay()
	}
	s.intervalIdx++
	s.intervalAccum = 0
	for t := range s.threads {
		s.threads[t].iv = ThreadIntervalStats{}
	}
	s.noteTargets()
	s.applyPhase(s.intervalIdx)
}

// SwapThreads exchanges the workload generators of threads i and j,
// modelling an OS migration of the two software threads between cores.
// Everything that belongs to the *core* stays put — private L1
// contents, the L2 way target, cycle clocks, counters — exactly as on
// real hardware, so after a swap each core briefly executes a workload
// its cache state and way allocation were tuned for another thread.
// The paper (Sec. VII) reports that its scheme's predictions are
// transiently suboptimal after a migration but re-adapt quickly; this
// hook lets tests and experiments reproduce that scenario.
func (s *Simulator) SwapThreads(i, j int) error {
	if i < 0 || i >= s.p.NumThreads || j < 0 || j >= s.p.NumThreads {
		return fmt.Errorf("sim: SwapThreads(%d, %d) out of range [0,%d)", i, j, s.p.NumThreads)
	}
	s.threads[i].gen, s.threads[j].gen = s.threads[j].gen, s.threads[i].gen
	s.threads[i].runSrc, s.threads[j].runSrc = s.threads[j].runSrc, s.threads[i].runSrc
	return nil
}

// RunSections executes n barrier-delimited parallel sections to
// completion and returns the run summary.
func (s *Simulator) RunSections(n int) Result {
	res, _ := s.RunSectionsContext(context.Background(), n, nil)
	return res
}

// RunIntervals executes until n execution intervals have completed
// (releasing barriers as sections finish) and returns the run summary.
// Intervals and sections are independent clocks, as in the paper: an
// interval can span multiple sections and vice versa.
func (s *Simulator) RunIntervals(n int) Result {
	res, _ := s.RunIntervalsContext(context.Background(), n, nil)
	return res
}

func (s *Simulator) result() Result {
	res := Result{
		Barriers:     s.barriers,
		ThreadCycles: make([]uint64, s.p.NumThreads),
		ThreadInstr:  make([]uint64, s.p.NumThreads),
		ThreadStall:  make([]uint64, s.p.NumThreads),
		L2Stats:      s.L2CacheStats(),
	}
	res.Intervals = append(res.Intervals, s.intervals...)
	for i := range s.threads {
		res.ThreadCycles[i] = s.threads[i].cycles
		res.ThreadInstr[i] = s.threads[i].totalInstr
		res.ThreadStall[i] = s.threads[i].stallCycles
		res.TotalInstr += s.threads[i].totalInstr
		if s.threads[i].cycles > res.WallCycles {
			res.WallCycles = s.threads[i].cycles
		}
	}
	if s.curTargets != nil {
		res.FinalTargets = append([]int(nil), s.curTargets...)
	}
	if h, ok := s.ctl.(HealthReporter); ok {
		res.ControllerHealth = h.ControllerHealth()
	}
	return res
}
