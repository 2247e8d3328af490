package trace

// Tests of Window and of the generator properties a lockstep pair of
// simulations relies on to share one thread's stream (internal/sim
// pair.go). The TestPipelined* and TestSharedConcurrentRuns names are
// kept as stable test IDs from the segment cache this replaced; the
// two modes are the pair's two consumers: "sync-direct" pulls the
// generator and notes every run into the window, "sync-cached" reads
// the same stream back out of it.

import (
	"sync"
	"testing"

	"intracache/internal/xrand"
)

// pipeSpec returns a spec exercising every mixture component.
func pipeSpec(variant int) ThreadSpec {
	return ThreadSpec{
		MemRatio:        0.4,
		WriteRatio:      0.3,
		PrivateBase:     uint64(variant+1) << 32,
		PrivateBytes:    48 * 1024,
		ZipfAlpha:       0.9,
		StreamBase:      uint64(variant+1)<<32 | 1<<28,
		StreamBytes:     128 * 1024,
		StreamWeight:    0.2,
		StrideBytes:     256,
		StrideWeight:    0.1,
		SharedBase:      1 << 40,
		SharedBytes:     32 * 1024,
		SharedWeight:    0.1,
		SharedZipfAlpha: 0.7,
		LineBytes:       64,
	}
}

func newPipeGen(t *testing.T, spec ThreadSpec, seed uint64) *ThreadGen {
	t.Helper()
	g, err := NewThread(spec, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// drain consumes exactly n instructions from src with a deterministic
// mix of Next and NextRun calls and returns the per-instruction stream.
func drain(src Source, n uint64, patternSeed uint64) []Instr {
	out := make([]Instr, 0, n)
	pat := xrand.New(patternSeed)
	rs, _ := src.(RunSource)
	for uint64(len(out)) < n {
		left := n - uint64(len(out))
		if rs == nil || pat.Bool(0.3) {
			out = append(out, src.Next())
			continue
		}
		max := 1 + pat.Uint64n(700)
		if max > left {
			max = left
		}
		nonMem, in := rs.NextRun(max)
		for i := uint64(0); i < nonMem; i++ {
			out = append(out, Instr{})
		}
		if in.IsMem {
			out = append(out, in)
		}
	}
	return out
}

func diffStreams(t *testing.T, name string, want, got []Instr) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: stream lengths %d vs %d", name, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: instruction %d diverged: want %+v, got %+v", name, i, want[i], got[i])
		}
	}
}

// consumer is one of a window's two readers over one shared generator,
// as each run of a pair is: at the end of the window it pulls g and
// notes the run, behind it it replays. SetPhase drops the calls
// PhaseInert reports inert, as a shared stream does.
type consumer struct {
	g *ThreadGen
	w *Window
	c Cursor
}

func (r *consumer) Next() Instr {
	_, in := r.NextRun(1)
	return in
}

func (r *consumer) NextRun(max uint64) (uint64, Instr) {
	if !r.w.AtEnd(&r.c) {
		return r.w.Replay(&r.c, max)
	}
	n, in := r.g.NextRun(max)
	r.w.Note(&r.c, n, in)
	return n, in
}

func (r *consumer) SetPhase(ws, str float64) {
	if !r.g.PhaseInert(ws, str) {
		r.g.SetPhase(ws, str)
	}
}

// pairStreams runs two consumers of one window over stretches of n
// instructions: the first drains a stretch, pulling the generator, the
// second replays the same stretch, and the window is trimmed, as a
// pair does at every slice. before, if set, runs ahead of stretch i.
// It returns each mode's stream.
func pairStreams(g *ThreadGen, stretches int, n uint64, before func(i int, first *consumer)) map[string][]Instr {
	w := NewWindow(g.Spec().LineBytes)
	first, second := &consumer{g: g, w: w}, &consumer{g: g, w: w}
	out := map[string][]Instr{}
	for i := 0; i < stretches; i++ {
		if before != nil {
			before(i, first)
		}
		out["sync-direct"] = append(out["sync-direct"], drain(first, n, uint64(100+i))...)
		out["sync-cached"] = append(out["sync-cached"], drain(second, n, uint64(200+i))...)
		w.Trim(&first.c, &second.c)
	}
	return out
}

// TestPipelinedMatchesGenerator: both consumers see exactly the bare
// generator's stream, across window resets, whatever run lengths each
// asks for.
func TestPipelinedMatchesGenerator(t *testing.T) {
	const stretches, n = 8, 5_000
	ref := newPipeGen(t, pipeSpec(0), 11)
	want := drain(ref, stretches*n, 7)
	got := pairStreams(newPipeGen(t, pipeSpec(0), 11), stretches, n, nil)
	for _, mode := range []string{"sync-direct", "sync-cached"} {
		t.Run(mode, func(t *testing.T) { diffStreams(t, mode, want, got[mode]) })
	}
}

// TestPipelinedSetPhaseEquivalence drives the reference through a
// schedule of SetPhase calls — repeated identical phases and changing
// ones — and the recorder through the same schedule with the inert
// calls dropped: both consumers must still see the reference stream.
func TestPipelinedSetPhaseEquivalence(t *testing.T) {
	phases := []struct{ ws, str float64 }{
		{1, 1}, {1, 1}, {1.5, 0.6}, {1.5, 0.6}, {0.7, 1.4}, {1, 1}, {0.05, 20}, {1, 1},
	}
	const n = 4_000
	ref := newPipeGen(t, pipeSpec(1), 23)
	var want []Instr
	for i, ph := range phases {
		ref.SetPhase(ph.ws, ph.str)
		want = append(want, drain(ref, n, uint64(i))...)
	}
	g := newPipeGen(t, pipeSpec(1), 23)
	got := pairStreams(g, len(phases), n, func(i int, first *consumer) {
		first.SetPhase(phases[i].ws, phases[i].str)
	})
	for _, mode := range []string{"sync-direct", "sync-cached"} {
		t.Run(mode, func(t *testing.T) { diffStreams(t, mode, want, got[mode]) })
	}
	if rs, gs := ref.SourceState(), g.SourceState(); *rs.Gen != *gs.Gen {
		t.Fatalf("SourceState diverged:\nref %+v\ngot %+v", *rs.Gen, *gs.Gen)
	}
}

// TestPipelinedDegenerateStride covers the one spec shape where
// re-applying an identical phase is NOT inert (stride longer than the
// scaled working set, so SetPhase's stridePos clamp can fire):
// PhaseInert must report it, so that the call is applied rather than
// dropped.
func TestPipelinedDegenerateStride(t *testing.T) {
	spec := pipeSpec(2)
	spec.PrivateBytes = 4096
	spec.StrideBytes = 60000 // far beyond the working set at every scale
	spec.StrideWeight = 0.3
	const stretches, n = 6, 3_000
	ref := newPipeGen(t, spec, 31)
	var want []Instr
	for i := 0; i < stretches; i++ {
		ref.SetPhase(1, 1)
		want = append(want, drain(ref, n, uint64(i))...)
	}
	g := newPipeGen(t, spec, 31)
	if g.PhaseInert(1, 1) {
		t.Fatal("PhaseInert(1, 1) with a stride beyond the working set: want false")
	}
	got := pairStreams(g, stretches, n, func(_ int, first *consumer) { first.SetPhase(1, 1) })
	for _, mode := range []string{"sync-direct", "sync-cached"} {
		t.Run(mode, func(t *testing.T) { diffStreams(t, mode, want, got[mode]) })
	}
}

// TestPipelinedCacheSharing: whichever consumer reaches the end of the
// window generates, so two consumers that take turns leading see the
// same stream, and the replaying one never advances the generator.
func TestPipelinedCacheSharing(t *testing.T) {
	g := newPipeGen(t, pipeSpec(3), 5)
	w := NewWindow(64)
	a, b := &consumer{g: g, w: w}, &consumer{g: g, w: w}
	var sa, sb []Instr
	for i := 0; i < 6; i++ {
		lead, lag := a, b
		if i%2 == 1 {
			lead, lag = b, a
		}
		x := drain(lead, 5_000, uint64(i))
		if w.Len() == 0 {
			t.Fatalf("stretch %d: the leading consumer noted no records", i)
		}
		instrs := g.Instructions()
		y := drain(lag, 5_000, uint64(50+i))
		if g.Instructions() != instrs {
			t.Fatalf("stretch %d: the replay advanced the generator", i)
		}
		if lead == a {
			sa, sb = append(sa, x...), append(sb, y...)
		} else {
			sa, sb = append(sa, y...), append(sb, x...)
		}
		w.Trim(&a.c, &b.c)
	}
	diffStreams(t, "shared", sa, sb)
}

// TestPipelinedCacheBudget: trimming after both consumers passed a
// stretch empties the window and keeps its storage, so a pair that
// trims after every slice needs room for about one slice.
func TestPipelinedCacheBudget(t *testing.T) {
	g := newPipeGen(t, pipeSpec(4), 9)
	w := NewWindow(64)
	a, b := &consumer{g: g, w: w}, &consumer{g: g, w: w}
	var capacity int
	for i := 0; i < 6; i++ {
		drain(a, ChunkInstructions, uint64(i))
		if i == 0 {
			capacity = cap(w.recs)
		} else if cap(w.recs) != capacity {
			t.Fatalf("stretch %d: storage grew from %d to %d records", i, capacity, cap(w.recs))
		}
		if w.Len() == 0 || w.Len() > ChunkInstructions {
			t.Fatalf("stretch %d: %d records for %d instructions", i, w.Len(), ChunkInstructions)
		}
		drain(b, ChunkInstructions, uint64(50+i))
		w.Trim(&a.c, &b.c)
		if w.Len() != 0 || w.pend != 0 {
			t.Fatalf("stretch %d: %d records and %d pending instructions left after both passed",
				i, w.Len(), w.pend)
		}
	}
}

// TestPipelinedEviction: Trim drops only what both consumers passed,
// so the lagging one still replays everything it has not consumed, and
// a replay at the end of the window returns nothing.
func TestPipelinedEviction(t *testing.T) {
	g := newPipeGen(t, pipeSpec(5), 13)
	w := NewWindow(64)
	a, b := &consumer{g: g, w: w}, &consumer{g: g, w: w}
	want := drain(a, 3_000, 1)
	got := drain(b, 1_000, 2)
	w.Trim(&a.c, &b.c)
	if w.Len() == 0 {
		t.Fatal("Trim dropped records the lagging consumer has not passed")
	}
	c := b.c
	var replayed uint64
	for !w.AtEnd(&c) {
		n, in := w.Replay(&c, 1<<40)
		replayed += n
		if in.IsMem {
			replayed++
		}
	}
	if replayed != 2_000 {
		t.Errorf("the lagging consumer replayed %d instructions to the end of the window, want 2000", replayed)
	}
	got = append(got, drain(b, 2_000, 3)...)
	diffStreams(t, "lagging consumer", want, got)
}

// TestPipelinedCacheBypassOnPhaseChange: a phase change makes the
// stream ahead differ from the unchanged one, so a thread must stop
// sharing before it; PhaseInert tells the two apart.
func TestPipelinedCacheBypassOnPhaseChange(t *testing.T) {
	a := newPipeGen(t, pipeSpec(6), 17)
	b := newPipeGen(t, pipeSpec(6), 17)
	if !a.PhaseInert(1, 1) {
		t.Error("PhaseInert: the current phase must be inert")
	}
	if a.PhaseInert(1.5, 1) || a.PhaseInert(1, 0.5) {
		t.Error("PhaseInert reported a changed phase inert")
	}
	c := newPipeGen(t, pipeSpec(6), 17)
	c.SetPhase(0.01, 30) // clamped to (0.05, 20)
	if !c.PhaseInert(0.02, 25) || !c.PhaseInert(0.05, 20) {
		t.Error("PhaseInert: scales that clamp to the current phase must be inert")
	}
	drain(a, 2_000, 1)
	drain(b, 2_000, 1)
	b.SetPhase(1.5, 0.5)
	sa, sb := drain(a, 5_000, 2), drain(b, 5_000, 2)
	same := true
	for i := range sa {
		if sa[i] != sb[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("a changed phase left the stream unchanged; the test shows nothing")
	}
}

// TestPipelinedRestore: a generator restored from another's state
// mid-stream — what unlinking a pair's thread does — continues that
// stream exactly, for the recorder and for the replay of what it
// records.
func TestPipelinedRestore(t *testing.T) {
	ref := newPipeGen(t, pipeSpec(7), 19)
	drain(ref, 12_345, 1)
	st := ref.SourceState()
	want := drain(ref, 4*ChunkInstructions, 2)
	g, err := NewThread(pipeSpec(7), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RestoreSourceState(st); err != nil {
		t.Fatal(err)
	}
	got := pairStreams(g, 4, ChunkInstructions, nil)
	for _, mode := range []string{"sync-direct", "sync-cached"} {
		t.Run(mode, func(t *testing.T) { diffStreams(t, mode, want, got[mode]) })
	}
}

// TestSharedConcurrentRuns: pairs on parallel goroutines (the sweep's
// workers) generate identical streams; their generators share only the
// process-wide Zipf tables, which the race detector watches here.
func TestSharedConcurrentRuns(t *testing.T) {
	const runs = 4
	streams := make([]map[string][]Instr, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := NewThread(pipeSpec(8), xrand.New(29))
			if err != nil {
				t.Error(err)
				return
			}
			streams[i] = pairStreams(g, 4, 6_000, func(k int, first *consumer) {
				first.SetPhase(1+0.1*float64(k), 1)
			})
		}(i)
	}
	wg.Wait()
	for i := 1; i < runs; i++ {
		for _, mode := range []string{"sync-direct", "sync-cached"} {
			diffStreams(t, mode, streams[0][mode], streams[i][mode])
		}
	}
}

// TestWindowPacking: gaps too long for a record's gap field, addresses
// that are not line-aligned and addresses outside the first three
// regions round-trip exactly.
func TestWindowPacking(t *testing.T) {
	ins := []struct {
		gap uint64
		in  Instr
	}{
		{0, Instr{IsMem: true, Addr: 64}},                               // region 0
		{3, Instr{IsMem: true, Write: true, Addr: 1<<44 | 128}},         // region 1
		{winGapEsc, Instr{IsMem: true, Addr: 100}},                      // not line-aligned
		{1 << 40, Instr{IsMem: true, Addr: 1 << 63}},                    // region 2, a long gap
		{winGapEsc - 1, Instr{IsMem: true, Write: true, Addr: 1 << 50}}, // a fourth region
		{2, Instr{IsMem: true, Addr: 1<<44 | winOffMask<<6}},            // region 1's last line
	}
	w := NewWindow(64)
	var gen, play Cursor
	for _, r := range ins {
		w.Note(&gen, r.gap, r.in)
	}
	w.Note(&gen, 7, Instr{})
	if len(w.wide) != 2 || len(w.gaps) != 2 {
		t.Fatalf("%d wide addresses and %d long gaps kept aside, want 2 and 2", len(w.wide), len(w.gaps))
	}
	for i, r := range ins {
		if n, in := w.Replay(&play, ^uint64(0)); n != r.gap || in != r.in {
			t.Fatalf("record %d: got (%d, %+v), want (%d, %+v)", i, n, in, r.gap, r.in)
		}
	}
	if n, in := w.Replay(&play, ^uint64(0)); n != 7 || in.IsMem || !w.AtEnd(&play) {
		t.Fatalf("tail: got (%d, %+v), want 7 non-memory instructions and the end", n, in)
	}
	w.Trim(&gen, &play)
	if w.Len() != 0 || len(w.wide) != 0 || len(w.gaps) != 0 || w.pend != 0 {
		t.Errorf("window not empty after both passed it: %d records, %d wide, %d gaps, %d pending",
			w.Len(), len(w.wide), len(w.gaps), w.pend)
	}
}

// TestCopyFrom: a generator copied from another mid-stream — how a
// pair hands a shared thread to the replaying run's own generator —
// continues exactly as the original and as a restored one, across
// chunk boundaries; generators of different specs refuse the copy.
func TestCopyFrom(t *testing.T) {
	src := newPipeGen(t, pipeSpec(9), 37)
	drain(src, 12_345, 1)
	restored := newPipeGen(t, pipeSpec(9), 1)
	if err := restored.RestoreSourceState(src.SourceState()); err != nil {
		t.Fatal(err)
	}
	copied := newPipeGen(t, pipeSpec(9), 2)
	if err := copied.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	want := drain(src, 3*ChunkInstructions, 2)
	diffStreams(t, "restored", want, drain(restored, 3*ChunkInstructions, 2))
	diffStreams(t, "copied", want, drain(copied, 3*ChunkInstructions, 2))
	if ss, cs := src.SourceState(), copied.SourceState(); *ss.Gen != *cs.Gen {
		t.Fatalf("state diverged:\nsource %+v\ncopy   %+v", *ss.Gen, *cs.Gen)
	}
	if err := newPipeGen(t, pipeSpec(10), 37).CopyFrom(src); err == nil {
		t.Error("CopyFrom between different specs was accepted")
	}
}
