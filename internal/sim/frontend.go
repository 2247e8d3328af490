package sim

import (
	"fmt"

	"intracache/internal/cache"
	"intracache/internal/trace"
)

// frontEnd is one core's instruction supply: its thread's source,
// filtered through the core's private L1. An L1 hit costs exactly what
// a non-memory instruction costs and touches no counter, so the front
// end hands the scheduler a stream in which hits are ordinary
// instructions and only L1 misses are memory accesses; memAccess starts
// at the L2. A private L1 sees only its own core's accesses, so the
// filtered stream depends on the thread's stream alone, never on the
// L2 or on the other threads — which is what lets two runs of one
// workload share it (pair.go).
type frontEnd struct {
	src trace.Source
	// runSrc caches src's RunSource capability (nil when the source
	// only supports one-at-a-time Next); resolved once so the hot path
	// never type-asserts.
	runSrc trace.RunSource
	l1     *cache.Cache

	// lk, set while the thread's stream is shared in a lockstep pair,
	// supplies the stream instead of src and l1; cur is this run's
	// position in it.
	lk  *link
	cur trace.Cursor
}

// link is one thread's stream shared by the two runs of a lockstep
// pair: gen, the front end whose generator and L1 produce it, and the
// window of what one run has taken and the other not yet.
type link struct {
	gen *frontEnd
	w   *trace.Window
}

func newFrontEnd(src trace.Source, l1 *cache.Cache) frontEnd {
	rs, _ := src.(trace.RunSource)
	return frontEnd{src: src, runSrc: rs, l1: l1}
}

// gen returns the front end's source as a generator; the sources of
// shared threads always are one.
func (f *frontEnd) gen() *trace.ThreadGen { return f.src.(*trace.ThreadGen) }

// setSource replaces the thread's source, leaving the L1 with the core.
func (f *frontEnd) setSource(src trace.Source) {
	f.src = src
	f.runSrc, _ = src.(trace.RunSource)
}

// pull consumes up to max instructions from the front end's own source
// and L1 with the trace.RunSource contract, counting L1 hits as
// non-memory instructions. A thread whose stream is shared (lk set)
// takes its runs from lk.next instead.
func (f *frontEnd) pull(max uint64) (uint64, trace.Instr) {
	var n uint64
	for {
		var k uint64
		var in trace.Instr
		if f.runSrc != nil {
			k, in = f.runSrc.NextRun(max - n)
		} else if in = f.src.Next(); !in.IsMem {
			k = 1
		}
		n += k
		if in.IsMem && f.l1.Access(0, in.Addr, in.Write).Hit {
			if n++; n < max {
				continue
			}
			in = trace.Instr{}
		}
		return n, in
	}
}

// next consumes one instruction through Next, for the reference
// stepper.
func (f *frontEnd) next() trace.Instr {
	if f.lk != nil {
		_, in := f.lk.next(&f.cur, 1)
		return in
	}
	in := f.src.Next()
	if in.IsMem && f.l1.Access(0, in.Addr, in.Write).Hit {
		in = trace.Instr{}
	}
	return in
}

// next serves the run at c like pull, but from the shared stream: a
// replay of what the other run took, which may stop short of max at the
// end of the window, or, at the end, new instructions from the
// generating front end, noted for the other run.
func (l *link) next(c *trace.Cursor, max uint64) (uint64, trace.Instr) {
	if !l.w.AtEnd(c) {
		return l.w.Replay(c, max)
	}
	n, in := l.gen.pull(max)
	l.w.Note(c, n, in)
	return n, in
}

// setPhase forwards a phase change to the source. A shared stream must
// not change: the pair unlinks a thread before any section in which its
// phase would change, so here the call can only be inert and is
// dropped.
func (f *frontEnd) setPhase(ws, str float64) {
	if f.lk == nil {
		f.src.SetPhase(ws, str)
		return
	}
	if !f.lk.gen.gen().PhaseInert(ws, str) {
		panic(fmt.Sprintf("sim: phase (%v, %v) would change a shared stream", ws, str))
	}
}
