// Package trace generates synthetic per-thread memory access streams.
//
// The paper's evaluation never depends on program semantics — only on
// each thread's cache behaviour: the size of its working set, how
// skewed its reuse is, how much of its traffic streams through memory
// with no reuse, how much lands in data shared with sibling threads,
// and how all of that drifts across execution phases. A thread is
// therefore modelled as a stochastic mixture of three address sources:
//
//   - a private working set, sampled with a Zipf distribution over its
//     cache lines (hot head → some L1 hits; long tail → L2 pressure
//     proportional to the working-set size vs. allocated cache space);
//   - a streaming region, scanned sequentially with effectively no
//     reuse (classic cache polluter);
//   - a shared region, sampled with Zipf, common to all threads of the
//     application (source of constructive inter-thread interactions).
//
// Phase behaviour (paper Sec. IV-A1, Figs. 6/7) enters through
// SetPhase, which rescales the working set and stream intensity per
// execution interval.
//
// # Substream chunk discipline
//
// A thread's stream is defined as the concatenation of fixed-length
// chunks of ChunkInstructions instructions. Chunk k draws its
// randomness from substream k of the thread's base RNG (the xoshiro
// stream advanced k·2^128 draws, see xrand.Substream), and opens by
// redrawing the thread's streaming and strided cursors from that
// substream's first draws. The switch to chunk k+1 is eager — it
// happens the moment chunk k's last instruction is consumed — so the
// generator state at a chunk boundary IS the next chunk's start state.
// Together these make the start of any chunk a pure function of (spec,
// base RNG, phase, chunk index): a restored generator rederives its
// chunk's substream from the base state alone and continues exactly as
// an uninterrupted one would. The cursor redraw keeps chunk-local behaviour faithful: a
// streaming chunk starts at a random line of the streaming region
// instead of always at offset 0, so the polluter character of the
// region is preserved across the chunked stream.
package trace

import (
	"fmt"
	"math"

	"intracache/internal/xrand"
)

// ThreadSpec parameterises one thread's access stream.
type ThreadSpec struct {
	// MemRatio is the probability that an instruction is a memory access.
	MemRatio float64
	// WriteRatio is the probability that a memory access is a write.
	WriteRatio float64

	// PrivateBase/PrivateBytes delimit the thread's private region.
	PrivateBase  uint64
	PrivateBytes uint64
	// ZipfAlpha skews reuse within the private working set (0 = uniform).
	ZipfAlpha float64

	// StreamBase/StreamBytes delimit the streaming region; StreamWeight
	// is the fraction of memory accesses that stream through it.
	StreamBase   uint64
	StreamBytes  uint64
	StreamWeight float64

	// StrideBytes/StrideWeight add a strided sweep over the private
	// region (dense numerical kernels: fixed-stride column walks).
	// Reuse recurs on each wrap of the region, so the pattern is
	// cache-friendly when the swept footprint fits the allocation.
	StrideBytes  int
	StrideWeight float64

	// SharedBase/SharedBytes delimit the region shared with sibling
	// threads; SharedWeight is the fraction of memory accesses that
	// target it. SharedZipfAlpha skews them toward a common hot head.
	SharedBase      uint64
	SharedBytes     uint64
	SharedWeight    float64
	SharedZipfAlpha float64

	// LineBytes is the cache line size used to quantise the regions.
	LineBytes int
}

// Validate reports whether the spec is internally consistent.
func (s ThreadSpec) Validate() error {
	switch {
	case s.MemRatio < 0 || s.MemRatio > 1:
		return fmt.Errorf("trace: MemRatio %v out of [0,1]", s.MemRatio)
	case s.WriteRatio < 0 || s.WriteRatio > 1:
		return fmt.Errorf("trace: WriteRatio %v out of [0,1]", s.WriteRatio)
	case s.StreamWeight < 0 || s.SharedWeight < 0 || s.StrideWeight < 0:
		return fmt.Errorf("trace: negative mixture weight")
	case s.StreamWeight+s.SharedWeight+s.StrideWeight > 1:
		return fmt.Errorf("trace: mixture weights sum to %v, exceeding 1",
			s.StreamWeight+s.SharedWeight+s.StrideWeight)
	case s.StrideWeight > 0 && s.StrideBytes <= 0:
		return fmt.Errorf("trace: StrideWeight without a positive StrideBytes")
	case s.LineBytes <= 0:
		return fmt.Errorf("trace: LineBytes %d must be positive", s.LineBytes)
	case s.PrivateBytes < uint64(s.LineBytes):
		return fmt.Errorf("trace: PrivateBytes %d smaller than one line", s.PrivateBytes)
	case s.StreamWeight > 0 && s.StreamBytes < uint64(s.LineBytes):
		return fmt.Errorf("trace: StreamBytes %d smaller than one line", s.StreamBytes)
	case s.SharedWeight > 0 && s.SharedBytes < uint64(s.LineBytes):
		return fmt.Errorf("trace: SharedBytes %d smaller than one line", s.SharedBytes)
	case s.ZipfAlpha < 0 || s.SharedZipfAlpha < 0:
		return fmt.Errorf("trace: negative Zipf alpha")
	}
	return nil
}

// Instr is one generated instruction. Non-memory instructions have
// IsMem false and undefined Addr/Write.
type Instr struct {
	IsMem bool
	Write bool
	Addr  uint64
}

// ChunkInstructions is the substream chunk length: every this many
// instructions the generator switches to the next 2^128-draw substream
// of its base RNG and redraws its region cursors (see the package
// comment). The value is stream-defining — changing it changes every
// generated trace.
const ChunkInstructions = 8192

// chunkMask exploits that ChunkInstructions is a power of two.
const chunkMask = ChunkInstructions - 1

// zipfBuckets caps the Zipf table size: regions are sampled through at
// most this many equal-width buckets of lines, with uniform placement
// inside a bucket. This bounds per-phase rebuild cost while preserving
// the skewed reuse-frequency profile the cache sees.
const zipfBuckets = 512

// regionSampler draws line-granular addresses from a region with a
// (bucketed) Zipf rank distribution.
type regionSampler struct {
	base      uint64
	lines     uint64
	lineBytes uint64
	z         *xrand.Zipf
	rng       *xrand.Rand
	perBucket uint64
}

func newRegionSampler(base, bytes uint64, lineBytes int, alpha float64, rng *xrand.Rand) *regionSampler {
	lines := bytes / uint64(lineBytes)
	if lines == 0 {
		lines = 1
	}
	buckets := int(lines)
	if buckets > zipfBuckets {
		buckets = zipfBuckets
	}
	return &regionSampler{
		base:      base,
		lines:     lines,
		lineBytes: uint64(lineBytes),
		z:         xrand.NewZipf(rng, buckets, alpha),
		rng:       rng,
		perBucket: (lines + uint64(buckets) - 1) / uint64(buckets),
	}
}

func (rs *regionSampler) next() uint64 {
	bucket := uint64(rs.z.Next())
	lo := bucket * rs.perBucket
	if lo >= rs.lines {
		lo = rs.lines - 1
	}
	span := rs.perBucket
	if lo+span > rs.lines {
		span = rs.lines - lo
	}
	line := lo
	if span > 1 {
		line += rs.rng.Uint64n(span)
	}
	return rs.base + line*rs.lineBytes
}

// Sources converts a slice of generators to the Source interface
// (a convenience for the simulator's constructor).
func Sources(gens []*ThreadGen) []Source {
	out := make([]Source, len(gens))
	for i, g := range gens {
		out[i] = g
	}
	return out
}

// ThreadGen generates one thread's instruction stream. Not safe for
// concurrent use; each simulated thread owns exactly one generator.
type ThreadGen struct {
	spec ThreadSpec
	rng  *xrand.Rand

	// baseState is the RNG state the generator was constructed with;
	// chunk k of the stream draws from substream k of this base.
	// curChunk is the chunk currently being generated
	// (instructions / ChunkInstructions — the eager boundary switch
	// keeps that identity exact). subRng caches the start state of
	// substream curChunk so the sequential k -> k+1 transition is one
	// Jump instead of a table-backed Substream composition; subValid
	// is false after a restore, when subRng has not been rederived.
	baseState [4]uint64
	subRng    [4]uint64
	subValid  bool
	curChunk  uint64

	private *regionSampler
	shared  *regionSampler

	streamPos   uint64 // next streaming offset (bytes, line-aligned)
	streamLines uint64

	stridePos uint64 // next strided offset within the (scaled) private region
	wsBytes   uint64 // current scaled private working-set size

	wsScale      float64 // current working-set scale (phase)
	streamScale  float64 // current stream-weight scale (phase)
	effStreamWt  float64
	effSharedWt  float64
	instructions uint64

	// memThresh is ceil(MemRatio * 2^53): for 0 < MemRatio < 1 and a
	// uniform draw u, u>>11 < memThresh iff float64(u>>11)/2^53 <
	// MemRatio, because MemRatio*2^53 is an exact float64 product. It
	// lets the per-instruction Bernoulli in NextRun skip the
	// integer-to-float conversion without changing a single outcome.
	// writeThresh is the same for WriteRatio, with ^uint64(0) marking
	// WriteRatio >= 1 (always write, no draw — matching Rand.Bool).
	memThresh   uint64
	writeThresh uint64
}

// NewThread creates a generator for the spec, drawing randomness from
// rng (which the generator takes ownership of).
func NewThread(spec ThreadSpec, rng *xrand.Rand) (*ThreadGen, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := &ThreadGen{spec: spec, rng: rng, baseState: rng.State()}
	if spec.MemRatio > 0 && spec.MemRatio < 1 {
		g.memThresh = uint64(math.Ceil(spec.MemRatio * (1 << 53)))
	}
	switch {
	case spec.WriteRatio >= 1:
		g.writeThresh = ^uint64(0)
	case spec.WriteRatio > 0:
		g.writeThresh = uint64(math.Ceil(spec.WriteRatio * (1 << 53)))
	}
	g.SetPhase(1, 1)
	g.enterChunk(0)
	return g, nil
}

// enterChunk switches the generator's randomness to substream k and
// draws the chunk-entry cursors. The cursor draw *conditions* depend
// only on the spec (never the phase), so every chunk consumes the same
// draw pattern at entry; the drawn *values* may be phase-dependent
// (the strided cursor lands inside the phase-scaled working set).
func (g *ThreadGen) enterChunk(k uint64) {
	if g.subValid && k == g.curChunk+1 {
		// Sequential traversal: the next substream is one Jump ahead.
		var r xrand.Rand
		if err := r.Restore(g.subRng); err != nil {
			panic(fmt.Sprintf("trace: substream state: %v", err))
		}
		r.Jump()
		g.subRng = r.State()
	} else {
		var base xrand.Rand
		if err := base.Restore(g.baseState); err != nil {
			panic(fmt.Sprintf("trace: base RNG state: %v", err))
		}
		g.subRng = base.Substream(k).State()
	}
	g.curChunk = k
	g.subValid = true
	if err := g.rng.Restore(g.subRng); err != nil {
		panic(fmt.Sprintf("trace: chunk %d RNG state: %v", k, err))
	}
	if g.spec.StreamWeight > 0 && g.streamLines > 0 {
		g.streamPos = g.rng.Uint64n(g.streamLines) * uint64(g.spec.LineBytes)
	}
	if g.spec.StrideWeight > 0 {
		// Restart the strided walk at a random step, not a random byte:
		// a fixed-stride kernel touches one coset of lines, and the
		// redraw must preserve that footprint across chunks.
		stride := uint64(g.spec.StrideBytes)
		steps := g.wsBytes / stride
		if steps == 0 {
			steps = 1
		}
		g.stridePos = g.rng.Uint64n(steps) * stride
	}
}

// seekChunk positions the generator at the canonical start of chunk k
// under its current phase in O(log k), without replaying instructions:
// substream-k randomness plus the chunk-entry cursor draws.
func (g *ThreadGen) seekChunk(k uint64) {
	g.instructions = k * ChunkInstructions
	g.enterChunk(k)
}

// Spec returns the generator's spec.
func (g *ThreadGen) Spec() ThreadSpec { return g.spec }

// Instructions returns how many instructions have been generated.
func (g *ThreadGen) Instructions() uint64 { return g.instructions }

// SetPhase rescales the thread's behaviour for a new execution phase:
// wsScale multiplies the private working-set size (clamped to at least
// one line) and streamScale multiplies the streaming share of accesses
// (the freed probability mass goes to the private working set).
// Scales must be positive; values are clamped to [0.05, 20].
func (g *ThreadGen) SetPhase(wsScale, streamScale float64) {
	g.wsScale = clamp(wsScale, 0.05, 20)
	g.streamScale = clamp(streamScale, 0, 20)

	wsBytes := uint64(float64(g.spec.PrivateBytes) * g.wsScale)
	if wsBytes < uint64(g.spec.LineBytes) {
		wsBytes = uint64(g.spec.LineBytes)
	}
	g.wsBytes = wsBytes
	if g.stridePos >= wsBytes {
		g.stridePos = 0
	}
	g.private = newRegionSampler(g.spec.PrivateBase, wsBytes, g.spec.LineBytes, g.spec.ZipfAlpha, g.rng)

	if g.spec.SharedWeight > 0 && g.shared == nil {
		g.shared = newRegionSampler(g.spec.SharedBase, g.spec.SharedBytes,
			g.spec.LineBytes, g.spec.SharedZipfAlpha, g.rng)
	}

	g.effStreamWt = clamp(g.spec.StreamWeight*g.streamScale, 0, 1)
	g.effSharedWt = g.spec.SharedWeight
	if g.effStreamWt+g.effSharedWt > 1 {
		g.effStreamWt = 1 - g.effSharedWt
	}
	if g.spec.StreamBytes > 0 {
		g.streamLines = g.spec.StreamBytes / uint64(g.spec.LineBytes)
	}
}

// Phase returns the current (wsScale, streamScale).
func (g *ThreadGen) Phase() (wsScale, streamScale float64) {
	return g.wsScale, g.streamScale
}

// PhaseInert reports whether SetPhase(wsScale, streamScale) would leave
// the stream and the generator state exactly as they are. That holds
// when the clamped scales equal the current ones, since the samplers
// then rebuild to identical parameters and no randomness is drawn, and
// the stride cursor's clamp cannot fire. The stride walk keeps
// stridePos below the working set whenever StrideBytes fits in it; a
// stride longer than the scaled working set conservatively reports
// false.
func (g *ThreadGen) PhaseInert(wsScale, streamScale float64) bool {
	if clamp(wsScale, 0.05, 20) != g.wsScale || clamp(streamScale, 0, 20) != g.streamScale {
		return false
	}
	return g.spec.StrideWeight == 0 || uint64(g.spec.StrideBytes) <= g.wsBytes
}

// Next generates the next instruction. Crossing a chunk boundary
// switches to the next substream eagerly, so the generator state after
// chunk k's last instruction is exactly chunk k+1's start state.
func (g *ThreadGen) Next() Instr {
	g.instructions++
	var in Instr
	if g.rng.Bool(g.spec.MemRatio) {
		in = g.memInstr()
	}
	if g.instructions&chunkMask == 0 {
		g.enterChunk(g.instructions / ChunkInstructions)
	}
	return in
}

// NextRun implements RunSource: it consumes up to max instructions,
// returning the count of leading non-memory instructions and, when the
// run ended on a memory access, that access (IsMem true). The generator
// draws exactly one Bernoulli sample per instruction either way, so a
// NextRun-driven stream is bit-identical — including RNG state — to the
// same stream pulled one Next at a time. Runs are internally split at
// chunk boundaries so the eager substream switch happens at exactly the
// same instruction as under Next.
func (g *ThreadGen) NextRun(max uint64) (nonMem uint64, in Instr) {
	if max == 0 {
		return 0, Instr{}
	}
	for {
		span := uint64(ChunkInstructions) - (g.instructions & chunkMask)
		if left := max - nonMem; span > left {
			span = left
		}
		n, in := g.runSpan(span)
		nonMem += n
		if g.instructions&chunkMask == 0 {
			g.enterChunk(g.instructions / ChunkInstructions)
		}
		if in.IsMem || nonMem == max {
			return nonMem, in
		}
	}
}

// runSpan is NextRun's body for a run that never crosses a chunk
// boundary. The Bernoulli compare uses the precomputed integer
// threshold (see memThresh), which decides Float64() < MemRatio without
// the float conversion, and runs in xrand.Rand.BelowRun on a register
// copy of the generator state; the degenerate ratios take the same
// draw-free paths as Rand.Bool.
func (g *ThreadGen) runSpan(max uint64) (nonMem uint64, in Instr) {
	p := g.spec.MemRatio
	if p <= 0 {
		g.instructions += max
		return max, Instr{}
	}
	if p >= 1 {
		g.instructions++
		return 0, g.memInstr()
	}
	nonMem, hit := g.rng.BelowRun(g.memThresh, max)
	g.instructions += nonMem
	if !hit {
		return nonMem, Instr{}
	}
	g.instructions++
	return nonMem, g.memInstr()
}

// memInstr draws one memory access from the mixture.
func (g *ThreadGen) memInstr() Instr {
	write := false
	switch {
	case g.writeThresh == ^uint64(0):
		write = true
	case g.writeThresh > 0:
		write = g.rng.Uint64()>>11 < g.writeThresh
	}
	in := Instr{IsMem: true, Write: write}
	u := g.rng.Float64()
	strideCut := g.effStreamWt + g.effSharedWt + g.spec.StrideWeight
	switch {
	case u < g.effStreamWt && g.streamLines > 0:
		in.Addr = g.spec.StreamBase + g.streamPos
		g.streamPos += uint64(g.spec.LineBytes)
		if g.streamPos >= g.streamLines*uint64(g.spec.LineBytes) {
			g.streamPos = 0
		}
	case u < g.effStreamWt+g.effSharedWt && g.shared != nil:
		in.Addr = g.shared.next()
	case u < strideCut && g.spec.StrideBytes > 0:
		// Line-aligned strided walk over the scaled private region.
		in.Addr = g.spec.PrivateBase + g.stridePos&^(uint64(g.spec.LineBytes)-1)
		g.stridePos += uint64(g.spec.StrideBytes)
		if g.stridePos >= g.wsBytes {
			g.stridePos -= g.wsBytes
		}
	default:
		in.Addr = g.private.next()
	}
	return in
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
