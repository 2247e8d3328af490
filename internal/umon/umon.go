// Package umon implements UCP-style utility monitors (UMON): per-thread,
// set-sampled shadow tag directories that record LRU stack-distance
// histograms. From a thread's histogram one can read off how many of its
// L2 accesses would have hit had the thread owned any given number of
// ways — its miss-vs-ways utility curve — without ever perturbing the
// real cache.
//
// The paper's comparison baseline is "the throughput oriented strategy
// employed by prior schemes" (Suh et al. / Qureshi & Patt): give each
// additional way to whichever thread gains the most hits from it. That
// greedy allocator needs exactly these curves, so this package is the
// substrate for the ThroughputUCP policy in internal/core.
package umon

import (
	"fmt"
	"math/bits"
)

// Config describes the monitored cache geometry and the sampling ratio.
type Config struct {
	Sets       int // sets in the monitored cache (power of two)
	Ways       int // associativity of the monitored cache
	LineBytes  int // line size (power of two)
	NumThreads int
	// SampleStride monitors one of every SampleStride sets (power of
	// two). Stride 1 monitors every set (exact but expensive); UCP
	// hardware uses ~32.
	SampleStride int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Sets <= 0 || bits.OnesCount(uint(c.Sets)) != 1:
		return fmt.Errorf("umon: Sets %d must be a positive power of two", c.Sets)
	case c.Ways <= 0:
		return fmt.Errorf("umon: Ways %d must be positive", c.Ways)
	case c.LineBytes <= 0 || bits.OnesCount(uint(c.LineBytes)) != 1:
		return fmt.Errorf("umon: LineBytes %d must be a positive power of two", c.LineBytes)
	case c.NumThreads <= 0:
		return fmt.Errorf("umon: NumThreads %d must be positive", c.NumThreads)
	case c.SampleStride <= 0 || bits.OnesCount(uint(c.SampleStride)) != 1:
		return fmt.Errorf("umon: SampleStride %d must be a positive power of two", c.SampleStride)
	case c.SampleStride > c.Sets:
		return fmt.Errorf("umon: SampleStride %d exceeds %d sets", c.SampleStride, c.Sets)
	}
	return nil
}

// shadowSet is a fully-LRU tag array of fixed associativity, stored as
// a stack: index 0 is MRU.
type shadowSet struct {
	tags []uint64
	n    int // valid entries
}

// Monitor holds one shadow directory per thread.
type Monitor struct {
	cfg        Config
	sampleMask uint64
	lineBits   uint
	setBits    uint
	// shadow[t*sampledSets + s] is thread t's shadow set s.
	shadow      []shadowSet
	sampledSets int
	// hist[t*(ways+1) + d] counts hits at stack distance d (< ways);
	// index ways holds cold/capacity misses.
	hist []uint64
}

// New creates a monitor.
func New(cfg Config) (*Monitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sampled := cfg.Sets / cfg.SampleStride
	m := &Monitor{
		cfg:         cfg,
		sampleMask:  uint64(cfg.SampleStride - 1),
		lineBits:    uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setBits:     uint(bits.TrailingZeros(uint(cfg.Sets))),
		shadow:      make([]shadowSet, cfg.NumThreads*sampled),
		sampledSets: sampled,
		hist:        make([]uint64, cfg.NumThreads*(cfg.Ways+1)),
	}
	for i := range m.shadow {
		m.shadow[i].tags = make([]uint64, cfg.Ways)
	}
	return m, nil
}

// Config returns the monitor's configuration.
func (m *Monitor) Config() Config { return m.cfg }

// Observe records one access by `thread` to byte address addr. Only
// addresses mapping to sampled sets update the shadow directory; all
// others are ignored, mirroring the hardware.
func (m *Monitor) Observe(thread int, addr uint64) {
	if thread < 0 || thread >= m.cfg.NumThreads {
		panic(fmt.Sprintf("umon: thread %d out of range [0,%d)", thread, m.cfg.NumThreads))
	}
	lineAddr := addr >> m.lineBits
	set := lineAddr & (uint64(m.cfg.Sets) - 1)
	if set&m.sampleMask != 0 {
		return
	}
	sampledIdx := int(set >> uint(bits.TrailingZeros(uint(m.cfg.SampleStride))))
	tag := lineAddr >> m.setBits
	ss := &m.shadow[thread*m.sampledSets+sampledIdx]
	base := thread * (m.cfg.Ways + 1)

	// Search the LRU stack for the tag.
	for d := 0; d < ss.n; d++ {
		if ss.tags[d] == tag {
			m.hist[base+d]++
			// Move to MRU.
			copy(ss.tags[1:d+1], ss.tags[:d])
			ss.tags[0] = tag
			return
		}
	}
	// Shadow miss: count, insert at MRU (dropping the shadow LRU if full).
	m.hist[base+m.cfg.Ways]++
	if ss.n < m.cfg.Ways {
		ss.n++
	}
	copy(ss.tags[1:ss.n], ss.tags[:ss.n-1])
	ss.tags[0] = tag
}

// HitsAtWays returns how many of thread's observed (sampled) accesses
// would have hit with an allocation of w ways, for w in [0, Ways].
func (m *Monitor) HitsAtWays(thread, w int) uint64 {
	if w < 0 {
		w = 0
	}
	if w > m.cfg.Ways {
		w = m.cfg.Ways
	}
	base := thread * (m.cfg.Ways + 1)
	var hits uint64
	for d := 0; d < w; d++ {
		hits += m.hist[base+d]
	}
	return hits
}

// MissesAtWays returns how many of thread's observed accesses would
// have missed with w ways.
func (m *Monitor) MissesAtWays(thread, w int) uint64 {
	base := thread * (m.cfg.Ways + 1)
	var total uint64
	for d := 0; d <= m.cfg.Ways; d++ {
		total += m.hist[base+d]
	}
	return total - m.HitsAtWays(thread, w)
}

// MissCurve returns thread's full miss-vs-ways curve: element w is the
// number of sampled accesses that would miss with w ways allocated.
// The curve is non-increasing in w by construction.
func (m *Monitor) MissCurve(thread int) []uint64 {
	out := make([]uint64, m.cfg.Ways+1)
	for w := 0; w <= m.cfg.Ways; w++ {
		out[w] = m.MissesAtWays(thread, w)
	}
	return out
}

// Decay halves every histogram bucket. Calling it once per execution
// interval gives the allocator an exponentially-weighted window, so
// phase changes age out of the curves quickly without discarding all
// history (standard UMON practice).
func (m *Monitor) Decay() {
	for i := range m.hist {
		m.hist[i] >>= 1
	}
}

// Reset clears the histograms but keeps the shadow tag contents, so
// stack distances remain warm across interval boundaries.
func (m *Monitor) Reset() {
	for i := range m.hist {
		m.hist[i] = 0
	}
}
