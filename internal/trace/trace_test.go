package trace

import (
	"math"
	"testing"
	"testing/quick"

	"intracache/internal/xrand"
)

func baseSpec() ThreadSpec {
	return ThreadSpec{
		MemRatio:        0.4,
		WriteRatio:      0.25,
		PrivateBase:     0x1000_0000,
		PrivateBytes:    64 * 1024,
		ZipfAlpha:       0.7,
		StreamBase:      0x2000_0000,
		StreamBytes:     1 << 20,
		StreamWeight:    0.2,
		SharedBase:      0x3000_0000,
		SharedBytes:     32 * 1024,
		SharedWeight:    0.1,
		SharedZipfAlpha: 0.9,
		LineBytes:       64,
	}
}

func mustThread(t *testing.T, spec ThreadSpec, seed uint64) *ThreadGen {
	t.Helper()
	g, err := NewThread(spec, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSpecValidate(t *testing.T) {
	if err := baseSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	mod := func(f func(*ThreadSpec)) ThreadSpec {
		s := baseSpec()
		f(&s)
		return s
	}
	bad := map[string]ThreadSpec{
		"memratio>1":      mod(func(s *ThreadSpec) { s.MemRatio = 1.5 }),
		"memratio<0":      mod(func(s *ThreadSpec) { s.MemRatio = -0.1 }),
		"writeratio>1":    mod(func(s *ThreadSpec) { s.WriteRatio = 2 }),
		"negative weight": mod(func(s *ThreadSpec) { s.StreamWeight = -0.1 }),
		"weights>1":       mod(func(s *ThreadSpec) { s.StreamWeight = 0.7; s.SharedWeight = 0.5 }),
		"zero line":       mod(func(s *ThreadSpec) { s.LineBytes = 0 }),
		"tiny private":    mod(func(s *ThreadSpec) { s.PrivateBytes = 32 }),
		"tiny stream":     mod(func(s *ThreadSpec) { s.StreamBytes = 1 }),
		"tiny shared":     mod(func(s *ThreadSpec) { s.SharedBytes = 1 }),
		"neg alpha":       mod(func(s *ThreadSpec) { s.ZipfAlpha = -1 }),
	}
	for name, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestNewThreadRejectsBadSpec(t *testing.T) {
	s := baseSpec()
	s.MemRatio = 7
	if _, err := NewThread(s, xrand.New(1)); err == nil {
		t.Error("bad spec accepted by NewThread")
	}
}

func TestDeterminism(t *testing.T) {
	a := mustThread(t, baseSpec(), 42)
	b := mustThread(t, baseSpec(), 42)
	for i := 0; i < 5000; i++ {
		ia, ib := a.Next(), b.Next()
		if ia != ib {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, ia, ib)
		}
	}
}

func TestMemRatio(t *testing.T) {
	g := mustThread(t, baseSpec(), 7)
	const n = 100000
	mem := 0
	for i := 0; i < n; i++ {
		if g.Next().IsMem {
			mem++
		}
	}
	if got := float64(mem) / n; math.Abs(got-0.4) > 0.01 {
		t.Errorf("memory ratio %v, want ~0.4", got)
	}
	if g.Instructions() != n {
		t.Errorf("Instructions() = %d, want %d", g.Instructions(), n)
	}
}

func TestWriteRatio(t *testing.T) {
	g := mustThread(t, baseSpec(), 11)
	mem, writes := 0, 0
	for i := 0; i < 200000; i++ {
		in := g.Next()
		if in.IsMem {
			mem++
			if in.Write {
				writes++
			}
		}
	}
	if got := float64(writes) / float64(mem); math.Abs(got-0.25) > 0.02 {
		t.Errorf("write ratio %v, want ~0.25", got)
	}
}

// regionOf classifies an address against the spec's regions.
func regionOf(s ThreadSpec, addr uint64) string {
	switch {
	case addr >= s.PrivateBase && addr < s.PrivateBase+20*s.PrivateBytes:
		return "private"
	case addr >= s.StreamBase && addr < s.StreamBase+s.StreamBytes:
		return "stream"
	case addr >= s.SharedBase && addr < s.SharedBase+s.SharedBytes:
		return "shared"
	default:
		return "unknown"
	}
}

func TestMixtureWeights(t *testing.T) {
	s := baseSpec()
	g := mustThread(t, s, 13)
	counts := map[string]int{}
	mem := 0
	for i := 0; i < 300000; i++ {
		in := g.Next()
		if !in.IsMem {
			continue
		}
		mem++
		counts[regionOf(s, in.Addr)]++
	}
	if counts["unknown"] > 0 {
		t.Fatalf("%d accesses outside all regions", counts["unknown"])
	}
	if got := float64(counts["stream"]) / float64(mem); math.Abs(got-0.2) > 0.02 {
		t.Errorf("stream share %v, want ~0.2", got)
	}
	if got := float64(counts["shared"]) / float64(mem); math.Abs(got-0.1) > 0.015 {
		t.Errorf("shared share %v, want ~0.1", got)
	}
}

func TestAddressesLineAligned(t *testing.T) {
	s := baseSpec()
	g := mustThread(t, s, 17)
	for i := 0; i < 50000; i++ {
		in := g.Next()
		if in.IsMem && in.Addr%uint64(s.LineBytes) != 0 {
			t.Fatalf("address %#x not line aligned", in.Addr)
		}
	}
}

func TestStreamSequential(t *testing.T) {
	s := baseSpec()
	s.StreamWeight = 1
	s.SharedWeight = 0
	s.MemRatio = 1
	g := mustThread(t, s, 19)
	var prev uint64
	first := true
	for i := 0; i < 1000; i++ {
		in := g.Next()
		if !first && in.Addr != prev+64 && in.Addr != s.StreamBase {
			t.Fatalf("stream not sequential: %#x after %#x", in.Addr, prev)
		}
		prev = in.Addr
		first = false
	}
}

func TestStreamWraps(t *testing.T) {
	s := baseSpec()
	s.StreamWeight = 1
	s.SharedWeight = 0
	s.MemRatio = 1
	s.StreamBytes = 4 * 64 // four lines
	g := mustThread(t, s, 23)
	seen := map[uint64]int{}
	for i := 0; i < 40; i++ {
		seen[g.Next().Addr]++
	}
	if len(seen) != 4 {
		t.Fatalf("stream over 4 lines visited %d distinct addrs", len(seen))
	}
	for addr, n := range seen {
		if n != 10 {
			t.Errorf("addr %#x visited %d times, want 10", addr, n)
		}
	}
}

func TestZipfSkewsPrivateReuse(t *testing.T) {
	s := baseSpec()
	s.StreamWeight = 0
	s.SharedWeight = 0
	s.MemRatio = 1
	s.ZipfAlpha = 1.1
	g := mustThread(t, s, 29)
	counts := map[uint64]int{}
	for i := 0; i < 100000; i++ {
		counts[g.Next().Addr]++
	}
	// The hottest line must be far hotter than the typical line.
	maxCount := 0
	for _, n := range counts {
		if n > maxCount {
			maxCount = n
		}
	}
	mean := 100000.0 / float64(len(counts))
	if float64(maxCount) < 4*mean {
		t.Errorf("Zipf skew too weak: max %d vs mean %.1f", maxCount, mean)
	}
}

func TestSetPhaseGrowsWorkingSet(t *testing.T) {
	s := baseSpec()
	s.StreamWeight = 0
	s.SharedWeight = 0
	s.MemRatio = 1
	s.ZipfAlpha = 0 // uniform, so footprint is easy to measure
	g := mustThread(t, s, 31)

	distinct := func() int {
		seen := map[uint64]bool{}
		for i := 0; i < 30000; i++ {
			seen[g.Next().Addr] = true
		}
		return len(seen)
	}
	small := distinct()
	g.SetPhase(4, 1)
	big := distinct()
	if float64(big) < 2*float64(small) {
		t.Errorf("footprint did not grow with wsScale: %d -> %d", small, big)
	}
	g.SetPhase(1, 1)
	back := distinct()
	if math.Abs(float64(back)-float64(small)) > 0.2*float64(small) {
		t.Errorf("footprint did not shrink back: %d vs %d", back, small)
	}
}

func TestSetPhaseScalesStreamWeight(t *testing.T) {
	s := baseSpec()
	g := mustThread(t, s, 37)
	streamShare := func() float64 {
		mem, stream := 0, 0
		for i := 0; i < 100000; i++ {
			in := g.Next()
			if !in.IsMem {
				continue
			}
			mem++
			if regionOf(s, in.Addr) == "stream" {
				stream++
			}
		}
		return float64(stream) / float64(mem)
	}
	base := streamShare()
	g.SetPhase(1, 3)
	boosted := streamShare()
	if boosted < base*2 {
		t.Errorf("stream share did not scale: %v -> %v", base, boosted)
	}
	ws, ss := g.Phase()
	if ws != 1 || ss != 3 {
		t.Errorf("Phase() = (%v,%v), want (1,3)", ws, ss)
	}
}

func TestPhaseClamping(t *testing.T) {
	g := mustThread(t, baseSpec(), 41)
	g.SetPhase(1000, -5)
	ws, ss := g.Phase()
	if ws != 20 {
		t.Errorf("wsScale clamped to %v, want 20", ws)
	}
	if ss != 0 {
		t.Errorf("streamScale clamped to %v, want 0", ss)
	}
	// Generator must still work with stream weight scaled to zero.
	sawMem := false
	for i := 0; i < 1000; i++ {
		if g.Next().IsMem {
			sawMem = true
		}
	}
	if !sawMem {
		t.Error("no memory instructions after clamped SetPhase")
	}
}

func TestNoStreamNoSharedSpec(t *testing.T) {
	s := baseSpec()
	s.StreamWeight = 0
	s.StreamBytes = 0
	s.SharedWeight = 0
	s.SharedBytes = 0
	g := mustThread(t, s, 43)
	for i := 0; i < 10000; i++ {
		in := g.Next()
		if in.IsMem && regionOf(baseSpec(), in.Addr) != "private" {
			t.Fatalf("access %#x escaped the private region", in.Addr)
		}
	}
}

// Property: all generated memory addresses stay inside the union of the
// declared regions (using the max working-set scale bound), for any
// seed and any phase scaling.
func TestQuickAddressesInBounds(t *testing.T) {
	f := func(seed uint64, wsRaw, ssRaw uint8) bool {
		s := baseSpec()
		g, err := NewThread(s, xrand.New(seed))
		if err != nil {
			return false
		}
		g.SetPhase(float64(wsRaw%40)/2+0.1, float64(ssRaw%10)/3)
		for i := 0; i < 3000; i++ {
			in := g.Next()
			if in.IsMem && regionOf(s, in.Addr) == "unknown" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkNext(b *testing.B) {
	g, err := NewThread(baseSpec(), xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}

func TestStrideValidation(t *testing.T) {
	s := baseSpec()
	s.StrideWeight = 0.1
	if err := s.Validate(); err == nil {
		t.Error("stride weight without stride bytes accepted")
	}
	s.StrideBytes = 256
	if err := s.Validate(); err != nil {
		t.Errorf("valid stride spec rejected: %v", err)
	}
	s.StrideWeight = 0.9 // 0.9 + 0.2 stream + 0.1 shared > 1
	if err := s.Validate(); err == nil {
		t.Error("over-unity mixture with stride accepted")
	}
}

func TestStridePattern(t *testing.T) {
	s := baseSpec()
	s.StreamWeight = 0
	s.SharedWeight = 0
	s.MemRatio = 1
	s.StrideBytes = 256
	s.StrideWeight = 1
	g := mustThread(t, s, 47)
	var prev uint64
	first := true
	for i := 0; i < 500; i++ {
		in := g.Next()
		if in.Addr < s.PrivateBase || in.Addr >= s.PrivateBase+s.PrivateBytes {
			t.Fatalf("stride escaped the private region: %#x", in.Addr)
		}
		if !first {
			delta := int64(in.Addr) - int64(prev)
			if delta != 256 && delta >= 0 { // wrap produces a negative jump
				t.Fatalf("stride delta %d, want 256 or wrap", delta)
			}
		}
		prev = in.Addr
		first = false
	}
}

func TestStrideWrapsWithinScaledRegion(t *testing.T) {
	s := baseSpec()
	s.StreamWeight = 0
	s.SharedWeight = 0
	s.MemRatio = 1
	s.StrideBytes = 4096
	s.StrideWeight = 1
	g := mustThread(t, s, 53)
	// Shrink the working set; stride positions must stay inside it.
	g.SetPhase(0.25, 1)
	limit := uint64(float64(s.PrivateBytes)*0.25) + uint64(s.LineBytes)
	for i := 0; i < 2000; i++ {
		in := g.Next()
		if in.Addr >= s.PrivateBase+limit {
			t.Fatalf("stride %#x escaped the scaled region (limit %#x)", in.Addr, s.PrivateBase+limit)
		}
	}
}

func TestStrideFootprintSmallerThanWS(t *testing.T) {
	// A large stride touches only every Nth line of the region; the
	// footprint must be about PrivateBytes/Stride lines.
	s := baseSpec()
	s.StreamWeight = 0
	s.SharedWeight = 0
	s.MemRatio = 1
	s.StrideBytes = 1024
	s.StrideWeight = 1
	g := mustThread(t, s, 59)
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		seen[g.Next().Addr] = true
	}
	want := int(s.PrivateBytes) / s.StrideBytes
	if len(seen) < want-1 || len(seen) > want+1 {
		t.Errorf("stride footprint %d lines, want ~%d", len(seen), want)
	}
}

// TestSeekInstructionsMatchesReplay pins the O(log n) fast-forward the
// time-sharded driver relies on: seeking to an arbitrary instruction
// count equals generating that many instructions from scratch, for
// offsets on, before and after chunk boundaries.
func TestSeekInstructionsMatchesReplay(t *testing.T) {
	for _, n := range []uint64{0, 1, ChunkInstructions - 1, ChunkInstructions,
		ChunkInstructions + 1, 3*ChunkInstructions + 1234, 10 * ChunkInstructions} {
		ref := newPipeGen(t, pipeSpec(5), 17)
		var left = n
		for left > 0 {
			nonMem, in := ref.NextRun(left)
			left -= nonMem
			if in.IsMem {
				left--
			}
		}
		g := newPipeGen(t, pipeSpec(5), 17)
		g.SeekInstructions(n)
		if rs, gs := ref.SourceState(), g.SourceState(); *rs.Gen != *gs.Gen {
			t.Errorf("SeekInstructions(%d) state:\n got %+v\nwant %+v", n, *gs.Gen, *rs.Gen)
		}
		// And the continuation streams agree.
		diffStreams(t, "seek-continuation", drain(ref, 5_000, n), drain(g, 5_000, n))
	}
}

// TestSeekInstructionsUnderPhase: seeking under a non-default phase
// must match a generator that had the same phase applied at
// construction time and then generated sequentially.
func TestSeekInstructionsUnderPhase(t *testing.T) {
	const n = 2*ChunkInstructions + 999
	ref := newPipeGen(t, pipeSpec(6), 29)
	ref.SetPhase(1.7, 0.5)
	var left uint64 = n
	for left > 0 {
		nonMem, in := ref.NextRun(left)
		left -= nonMem
		if in.IsMem {
			left--
		}
	}
	g := newPipeGen(t, pipeSpec(6), 29)
	g.SetPhase(1.7, 0.5)
	g.SeekInstructions(n)
	if rs, gs := ref.SourceState(), g.SourceState(); *rs.Gen != *gs.Gen {
		t.Fatalf("state:\n got %+v\nwant %+v", *gs.Gen, *rs.Gen)
	}
}

// TestChunkStartIsPureFunction pins the property parallel generation
// is built on: the state at any chunk boundary depends only on (spec,
// base RNG, phase, chunk index), never on how the stream got there.
func TestChunkStartIsPureFunction(t *testing.T) {
	// Path A: generate three chunks sequentially.
	a := newPipeGen(t, pipeSpec(0), 3)
	var left uint64 = 3 * ChunkInstructions
	for left > 0 {
		nonMem, in := a.NextRun(left)
		left -= nonMem
		if in.IsMem {
			left--
		}
	}
	// Path B: seek straight to chunk 3.
	b := newPipeGen(t, pipeSpec(0), 3)
	b.SeekChunk(3)
	if as, bs := a.SourceState(), b.SourceState(); *as.Gen != *bs.Gen {
		t.Fatalf("chunk 3 start differs by path:\nsequential %+v\n      seek %+v", *as.Gen, *bs.Gen)
	}
	// Path C: a different generator instance restored to the recorded
	// base, as pool workers are.
	c, err := NewThread(pipeSpec(0), xrand.New(999))
	if err != nil {
		t.Fatal(err)
	}
	st := b.SourceState()
	if err := c.RestoreSourceState(st); err != nil {
		t.Fatal(err)
	}
	c.SeekChunk(3)
	if bs, cs := b.SourceState(), c.SourceState(); *bs.Gen != *cs.Gen {
		t.Fatalf("worker-style restore diverged:\nwant %+v\n got %+v", *bs.Gen, *cs.Gen)
	}
}
