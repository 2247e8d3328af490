package sim

import (
	"context"
	"fmt"
	"reflect"

	"intracache/internal/trace"
)

// Lockstep pairs. Every comparison the evaluation makes runs one
// workload at one seed under two policies. The front end (frontEnd)
// makes a thread's L1-filtered stream a function of its generator
// alone, so the two runs of a comparison consume identical streams
// until a phase change makes them depend on each run's own interval
// timing. RunPair exploits that: it advances the two simulators in
// turn, a slice of each parallel section at a time, over one shared
// front end per thread — the generator and L1 of a's front end. A run
// that reaches the end of what has been taken from a thread's stream
// generates and L1-filters the next instructions and notes them into
// the thread's trace.Window; the other run replays them from there.
// After every slice the window drops what both runs have passed, so it
// holds only what lies between the two runs. Every section retires exactly
// SectionInstructions per thread in both runs, so at a section
// boundary both stand at the same point of every stream.
//
// The same fixed section length makes the interval boundaries a
// section crosses, and with them its SetPhase calls, known before it
// runs. A thread whose phase would change its stream in the coming
// section is unlinked before that section starts: b's own generator
// and L1, idle until then, take over the shared state at that point,
// and from then on each run generates the thread privately. Unlinking
// at the end of the pair does the same, so afterwards each simulator
// is exactly where it would be had it run alone.

// pairSlices is how many slices a pair cuts each section into.
const pairSlices = 4

// RunPair runs a and b for n parallel sections each in lockstep over
// shared front ends, as described above, and returns their results —
// each the Result the simulator returns when run alone for n sections.
// The two must be different simulators with equal thread counts and
// section lengths, standing at a section boundary. A thread is shared
// when both sources are trace.ThreadGen generators with equal specs and
// states and both L1s hold the same state; any other thread runs
// privately in each simulator.
// Cancellation is observed at interval boundaries and barriers, as in
// RunSectionsContext; after an error the partial results are returned,
// and neither simulator can be checkpointed any more.
func RunPair(ctx context.Context, a, b *Simulator, n int) (Result, Result, error) {
	if err := checkPair(a, b); err != nil {
		return Result{}, Result{}, err
	}
	links := linkThreads(a, b)
	slice := max(1, uint64(a.p.NumThreads)*a.p.SectionInstructions/pairSlices)
	for k := 0; k < n; k++ {
		for t, l := range links {
			if l != nil && (a.phaseChangeAhead(t) || b.phaseChangeAhead(t)) {
				links[t] = nil
				if err := unlink(a, b, t); err != nil {
					return a.result(), b.result(), err
				}
			}
		}
		var doneA, doneB bool
		for !doneA || !doneB {
			var err error
			if !doneA {
				doneA, err = a.runSlice(ctx, slice, nil)
			}
			if err == nil && !doneB {
				doneB, err = b.runSlice(ctx, slice, nil)
			}
			if err != nil {
				return a.result(), b.result(), err
			}
			for t, l := range links {
				if l != nil {
					l.w.Trim(&a.threads[t].fe.cur, &b.threads[t].fe.cur)
				}
			}
		}
	}
	for t, l := range links {
		if l != nil {
			if err := unlink(a, b, t); err != nil {
				return a.result(), b.result(), err
			}
		}
	}
	return a.result(), b.result(), nil
}

// checkPair reports why a and b cannot run as a lockstep pair.
func checkPair(a, b *Simulator) error {
	switch {
	case a == b:
		return fmt.Errorf("sim: a lockstep pair needs two simulators")
	case a.p.NumThreads != b.p.NumThreads || a.p.SectionInstructions != b.p.SectionInstructions:
		return fmt.Errorf("sim: lockstep pair: simulators differ in threads or section length")
	case !a.atSectionStart() || !b.atSectionStart():
		return fmt.Errorf("sim: lockstep pair: a simulator is not at a section boundary")
	}
	return nil
}

// atSectionStart reports whether every thread stands at the start of a
// parallel section.
func (s *Simulator) atSectionStart() bool {
	for i := range s.threads {
		if th := &s.threads[i]; th.waiting || th.sectionLeft != s.p.SectionInstructions {
			return false
		}
	}
	return true
}

// linkThreads shares every thread whose stream a and b share (see RunPair)
// through the generator and L1 of a's front end, and returns the links
// (nil for threads that run privately).
func linkThreads(a, b *Simulator) []*link {
	links := make([]*link, len(a.threads))
	for t := range a.threads {
		fa, fb := &a.threads[t].fe, &b.threads[t].fe
		ga, okA := fa.src.(*trace.ThreadGen)
		gb, okB := fb.src.(*trace.ThreadGen)
		if !okA || !okB || ga.Spec() != gb.Spec() ||
			*ga.SourceState().Gen != *gb.SourceState().Gen ||
			!reflect.DeepEqual(fa.l1.State(), fb.l1.State()) {
			continue
		}
		l := &link{gen: fa, w: trace.NewWindow(a.p.L1.LineBytes)}
		fa.lk, fa.cur = l, trace.Cursor{}
		fb.lk, fb.cur = l, trace.Cursor{}
		links[t] = l
	}
	return links
}

// unlink ends thread t's sharing at a section boundary, where a and b
// stand at the same point of its stream: b's own generator and L1,
// idle while linked, take over the shared ones' state.
func unlink(a, b *Simulator, t int) error {
	fa, fb := &a.threads[t].fe, &b.threads[t].fe
	if err := fb.gen().CopyFrom(fa.gen()); err != nil {
		return fmt.Errorf("sim: unlink thread %d: %w", t, err)
	}
	if err := fb.l1.Restore(fa.l1.State()); err != nil {
		return fmt.Errorf("sim: unlink thread %d: L1: %w", t, err)
	}
	fa.lk, fb.lk = nil, nil
	return nil
}

// phaseChangeAhead reports whether the section about to run would
// change shared thread t's stream: whether any SetPhase at an interval
// boundary the section crosses is not inert for its generator. It is
// called at a section start, where every thread has
// SectionInstructions to go, so the section retires exactly
// NumThreads·SectionInstructions instructions.
func (s *Simulator) phaseChangeAhead(t int) bool {
	if s.phase == nil {
		return false
	}
	g := s.threads[t].fe.lk.gen.gen()
	ends := (s.intervalAccum + uint64(s.p.NumThreads)*s.p.SectionInstructions) / s.p.IntervalInstructions
	for j := 1; j <= int(ends); j++ {
		if !g.PhaseInert(s.phase(t, s.intervalIdx+j)) {
			return true
		}
	}
	return false
}
