package trace

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

// pipeModes enumerates the SharedGen operating modes under test: a
// zero-budget cache, which stores nothing, so the wrapper falls back to
// direct delegation after its first segment, and a fresh shared cache.
func pipeModes(budget int64) map[string]func() *SegmentCache {
	return map[string]func() *SegmentCache{
		"sync-direct": func() *SegmentCache { return NewSegmentCache(0) },
		"sync-cached": func() *SegmentCache { return NewSegmentCache(budget) },
	}
}

// TestPipelinedMatchesGenerator: in every mode, the shared stream and
// the reported SourceState must be bit-identical to the bare
// generator's, across segment boundaries and checkpoints taken at
// arbitrary consumption points.
func TestPipelinedMatchesGenerator(t *testing.T) {
	const total = 40_000
	for name, mkCache := range pipeModes(1 << 20) {
		t.Run(name, func(t *testing.T) {
			ref := newPipeGen(t, pipeSpec(0), 11)
			p := Shared(newPipeGen(t, pipeSpec(0), 11), mkCache())
			defer p.Close()
			for chunk := 0; chunk < 8; chunk++ {
				want := drain(ref, total/8, uint64(100+chunk))
				got := drain(p, total/8, uint64(100+chunk))
				diffStreams(t, name, want, got)
				refSt := ref.SourceState()
				pSt := p.SourceState()
				if *refSt.Gen != *pSt.Gen {
					t.Fatalf("chunk %d: SourceState diverged:\nref %+v\npipe %+v", chunk, *refSt.Gen, *pSt.Gen)
				}
			}
		})
	}
}

// TestPipelinedSetPhaseEquivalence drives both sources through the same
// schedule of SetPhase calls at the same instruction offsets — repeated
// identical phases (the inert fast path) and changing phases (rollback
// and regeneration) — and demands an identical stream and state.
func TestPipelinedSetPhaseEquivalence(t *testing.T) {
	phases := []struct{ ws, str float64 }{
		{1, 1}, {1, 1}, {1.5, 0.6}, {1.5, 0.6}, {0.7, 1.4}, {1, 1}, {0.05, 20}, {1, 1},
	}
	for name, mkCache := range pipeModes(1 << 20) {
		t.Run(name, func(t *testing.T) {
			ref := newPipeGen(t, pipeSpec(1), 23)
			p := Shared(newPipeGen(t, pipeSpec(1), 23), mkCache())
			defer p.Close()
			for i, ph := range phases {
				ref.SetPhase(ph.ws, ph.str)
				p.SetPhase(ph.ws, ph.str)
				want := drain(ref, 4_000, uint64(i))
				got := drain(p, 4_000, uint64(i))
				diffStreams(t, name, want, got)
				if rs, ps := ref.SourceState(), p.SourceState(); *rs.Gen != *ps.Gen {
					t.Fatalf("phase %d: SourceState diverged:\nref %+v\npipe %+v", i, *rs.Gen, *ps.Gen)
				}
			}
		})
	}
}

// TestPipelinedDegenerateStride covers the one spec shape where
// re-applying an identical phase is NOT inert in the synchronous
// generator (stride longer than the scaled working set, so SetPhase's
// stridePos clamp can fire): SharedGen must detect it and take the
// conservative rollback path rather than keep replaying its segment.
func TestPipelinedDegenerateStride(t *testing.T) {
	spec := pipeSpec(2)
	spec.PrivateBytes = 4096
	spec.StrideBytes = 60000 // far beyond the working set at every scale
	spec.StrideWeight = 0.3
	for name, mkCache := range pipeModes(1 << 20) {
		t.Run(name, func(t *testing.T) {
			ref := newPipeGen(t, spec, 31)
			p := Shared(newPipeGen(t, spec, 31), mkCache())
			defer p.Close()
			for i := 0; i < 6; i++ {
				// Same scales every time: inert for normal specs, but the
				// clamp makes it behaviourally significant here.
				ref.SetPhase(1, 1)
				p.SetPhase(1, 1)
				diffStreams(t, name, drain(ref, 3_000, uint64(i)), drain(p, 3_000, uint64(i)))
			}
			if rs, ps := ref.SourceState(), p.SourceState(); *rs.Gen != *ps.Gen {
				t.Fatalf("SourceState diverged:\nref %+v\npipe %+v", *rs.Gen, *ps.Gen)
			}
		})
	}
}

// TestPipelinedCacheSharing: two identically-seeded runs on one cache
// must produce one entry, with the second run served from segments the
// first generated.
func TestPipelinedCacheSharing(t *testing.T) {
	cache := NewSegmentCache(4 << 20)
	const n = 30 * ChunkInstructions
	a := Shared(newPipeGen(t, pipeSpec(3), 5), cache)
	wantStream := drain(a, n, 1)
	a.Close()

	before := cache.Stats()
	if before.Entries != 1 || before.Misses == 0 {
		t.Fatalf("first run: stats %+v, want 1 entry and generated segments", before)
	}

	b := Shared(newPipeGen(t, pipeSpec(3), 5), cache)
	gotStream := drain(b, n, 1)
	b.Close()
	diffStreams(t, "shared", wantStream, gotStream)

	after := cache.Stats()
	if after.Entries != 1 {
		t.Errorf("second run created a new entry: %+v", after)
	}
	if after.Hits < 30 {
		t.Errorf("second run hit only %d segments, want the whole prefix (~30)", after.Hits)
	}
	if after.Misses != before.Misses {
		t.Errorf("second run regenerated segments: misses %d -> %d", before.Misses, after.Misses)
	}
}

// TestPipelinedCacheBypassOnPhaseChange is the config-dependence test
// the design requires: a run whose SetPhase schedule changes behaviour
// must detach from the shared cache (bypass) and still match the
// synchronous stream, while leaving the cached prefix intact for other
// runs.
func TestPipelinedCacheBypassOnPhaseChange(t *testing.T) {
	cache := NewSegmentCache(1 << 20)
	mk := func() *SharedGen {
		return Shared(newPipeGen(t, pipeSpec(4), 9), cache)
	}
	// Run A: constant phase, fills the cache.
	a := mk()
	drain(a, 20_000, 2)
	a.Close()
	if got := cache.Stats(); got.Detaches != 0 {
		t.Fatalf("constant-phase run detached: %+v", got)
	}

	// Run B: same workload, but its (config-dependent) interval schedule
	// changes the phase mid-stream. It must bypass the cache from that
	// point and still equal the synchronous generator.
	ref := newPipeGen(t, pipeSpec(4), 9)
	b := mk()
	diffStreams(t, "pre-change", drain(ref, 7_000, 3), drain(b, 7_000, 3))
	if b.Bypassed() {
		t.Fatal("run bypassed before any phase change")
	}
	ref.SetPhase(1.8, 0.4)
	b.SetPhase(1.8, 0.4)
	if !b.Bypassed() {
		t.Fatal("behaviour-changing SetPhase did not trigger the cache bypass")
	}
	diffStreams(t, "post-change", drain(ref, 7_000, 4), drain(b, 7_000, 4))
	b.Close()

	st := cache.Stats()
	if st.Detaches == 0 {
		t.Error("cache recorded no detach")
	}

	// Run C: constant phase again — still served by the cached prefix,
	// unpolluted by B's detour.
	c := mk()
	pre := cache.Stats()
	want := drain(newPipeGen(t, pipeSpec(4), 9), 20_000, 5)
	diffStreams(t, "after-bypass", want, drain(c, 20_000, 5))
	c.Close()
	if post := cache.Stats(); post.Misses != pre.Misses {
		t.Errorf("constant-phase run after bypass regenerated segments: misses %d -> %d",
			pre.Misses, post.Misses)
	}
}

// TestPipelinedCacheBudget: a budget far too small for the stream must
// stop the entry from growing (and/or evict it) without perturbing the
// generated stream.
func TestPipelinedCacheBudget(t *testing.T) {
	cache := NewSegmentCache(4 * 1024) // smaller than one segment
	ref := newPipeGen(t, pipeSpec(5), 13)
	p := Shared(newPipeGen(t, pipeSpec(5), 13), cache)
	defer p.Close()
	diffStreams(t, "budget", drain(ref, 40_000, 6), drain(p, 40_000, 6))
	st := cache.Stats()
	if st.Bytes > 4*1024 {
		t.Errorf("cache holds %d bytes, over its %d budget", st.Bytes, 4*1024)
	}
	if *ref.SourceState().Gen != *p.SourceState().Gen {
		t.Error("SourceState diverged under budget pressure")
	}
}

// TestPipelinedEviction: entries left unreferenced are evicted LRU when
// a new workload needs the space.
func TestPipelinedEviction(t *testing.T) {
	// One 30k-instruction workload fills four ~79 KB segments.
	const budget = 512 * 1024
	cache := NewSegmentCache(budget)
	for v := 0; v < 6; v++ {
		p := Shared(newPipeGen(t, pipeSpec(10+v), uint64(40+v)), cache)
		drain(p, 30_000, uint64(v))
		p.Close()
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Errorf("six 30k-instruction workloads in a 512 KiB cache evicted nothing: %+v", st)
	}
	if st.Bytes > budget {
		t.Errorf("cache holds %d bytes, over budget: %+v", st.Bytes, st)
	}
}

// TestPipelinedRestore: checkpoints are interchangeable between the
// bare generator and SharedGen, mid-segment included.
func TestPipelinedRestore(t *testing.T) {
	for name, mkCache := range pipeModes(1 << 20) {
		t.Run(name, func(t *testing.T) {
			ref := newPipeGen(t, pipeSpec(6), 17)
			p := Shared(newPipeGen(t, pipeSpec(6), 17), mkCache())
			drain(ref, 9_500, 7)
			drain(p, 9_500, 7)
			st := p.SourceState()

			// Resume a fresh bare generator from the shared source's
			// snapshot and a fresh shared source from the same snapshot:
			// all three must continue identically.
			g2 := newPipeGen(t, pipeSpec(6), 1)
			if err := g2.RestoreSourceState(st); err != nil {
				t.Fatal(err)
			}
			p2 := Shared(newPipeGen(t, pipeSpec(6), 1), mkCache())
			if err := p2.RestoreSourceState(st); err != nil {
				t.Fatal(err)
			}
			want := drain(ref, 8_000, 8)
			diffStreams(t, "pipe-continue", want, drain(p, 8_000, 8))
			diffStreams(t, "gen-resumed", want, drain(g2, 8_000, 8))
			diffStreams(t, "pipe-resumed", want, drain(p2, 8_000, 8))
			p.Close()
			p2.Close()
		})
	}
}

// TestSharedConcurrentRuns races several runs of one workload over one
// cache, the way parallel sweep workers share it: every run must see
// the bare generator's stream whichever run publishes a segment first,
// including a run that detaches on a phase change midway.
func TestSharedConcurrentRuns(t *testing.T) {
	const runs, n = 4, 5 * ChunkInstructions
	ref := newPipeGen(t, pipeSpec(7), 3)
	want := drain(ref, n/2, 0)
	ref.SetPhase(1.6, 0.5)
	wantPhased := append(want[:n/2:n/2], drain(ref, n/2, 0)...)
	phasedState := *ref.SourceState().Gen
	full := newPipeGen(t, pipeSpec(7), 3)
	want = append(want, drain(full, n, 0)[n/2:]...)
	// n ends on a segment boundary, where SourceState is read from the
	// last segment's recorded end state.
	state := *full.SourceState().Gen

	cache := NewSegmentCache(4 << 20)
	var wg sync.WaitGroup
	for r := 0; r < runs; r++ {
		src := Shared(newPipeGen(t, pipeSpec(7), 3), cache)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer src.Close()
			got := drain(src, n/2, uint64(r))
			exp, expState := want, state
			if r == 0 {
				src.SetPhase(1.6, 0.5)
				exp, expState = wantPhased, phasedState
			}
			got = append(got, drain(src, n/2, uint64(r))...)
			if st := *src.SourceState().Gen; st != expState {
				t.Errorf("run %d: SourceState diverged:\nwant %+v\n got %+v", r, expState, st)
			}
			for i := range exp {
				if got[i] != exp[i] {
					t.Errorf("run %d: instruction %d diverged: want %+v, got %+v", r, i, exp[i], got[i])
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if st := cache.Stats(); st.Entries != 1 || st.Detaches != 1 {
		t.Errorf("stats %+v, want one shared entry and one detach", st)
	}
}
