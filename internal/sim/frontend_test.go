package sim

import (
	"context"
	"testing"
)

// TestPairSharesStreams: in a pair of identically seeded runs every
// thread is shared; whichever run goes first generates through the
// shared front end, b's own generators stay untouched until the pair
// unlinks them, and trimming after both runs' slices keeps each window
// well short of a section.
func TestPairSharesStreams(t *testing.T) {
	const section = 6_000
	a := makeStepSim(t, L2Shared, false, section, 12_000)
	b := makeStepSim(t, L2PrivatePerCore, false, section, 12_000)
	links := linkThreads(a, b)
	for th, l := range links {
		if l == nil {
			t.Fatalf("thread %d not linked", th)
		}
	}
	own := func(s *Simulator, th int) uint64 { return s.threads[th].fe.gen().Instructions() }
	ctx := context.Background()
	slice := uint64(len(links)) * section / pairSlices
	first, second := b, a // b goes first: it generates through a's front end
	for k := 0; k < 3*pairSlices; k++ {
		for _, s := range []*Simulator{first, second} {
			if _, err := s.runSlice(ctx, slice, nil); err != nil {
				t.Fatal(err)
			}
		}
		first, second = second, first
		for th, l := range links {
			l.w.Trim(&a.threads[th].fe.cur, &b.threads[th].fe.cur)
			if l.w.Len() > section/2 {
				t.Errorf("slice %d: thread %d's window holds %d records", k, th, l.w.Len())
			}
			if got := own(b, th); got != 0 {
				t.Errorf("slice %d: b's own generator for thread %d generated %d instructions", k, th, got)
			}
		}
	}
	for th := range links {
		if err := unlink(a, b, th); err != nil {
			t.Fatal(err)
		}
		if want := uint64(3 * section); own(a, th) != want || own(b, th) != want {
			t.Errorf("thread %d: unlinked at %d and %d instructions, want %d", th, own(a, th), own(b, th), want)
		}
	}
}
