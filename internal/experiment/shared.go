package experiment

// Trace sharing: when Config.ShareTraces is set, every run built from
// generated threads (Config.newRun, and therefore every sweep cell)
// wraps its generators in trace.SharedGen over one process-wide
// segment cache.
// Sweep cells that simulate the same workload under different cache
// configurations consume identical instruction streams, so the first
// cell generates and publishes each thread's segments and the rest
// replay them: trace generation is paid once per sweep, not once per
// cell.

import "intracache/internal/trace"

// traceCacheBytes bounds the shared segment cache. A headline figure's
// streams run ~1 KiB of run-length records per 400 instructions, so
// 256 MiB comfortably holds the whole nine-benchmark suite at default
// run lengths.
const traceCacheBytes = 256 << 20

// traceCache is the process-wide segment cache. It holds nothing until
// a ShareTraces run publishes a segment.
var traceCache = trace.NewSegmentCache(traceCacheBytes)

// FlushTraceCache drops every segment the shared trace cache holds.
// Call it between unrelated sweeps to release memory; attached runs
// finish their current entries privately and correctness is unaffected.
func FlushTraceCache() { traceCache.Flush() }

// TraceCacheStats reports the shared trace cache's counters; the zero
// value when no ShareTraces run has used it yet.
func TraceCacheStats() trace.CacheStats { return traceCache.Stats() }

// sources adapts a run's generators to its trace mode: bare generators
// when ShareTraces is off, SharedGen wrappers over the shared cache
// when on. The returned closer must run after the simulation finishes;
// it releases cache references.
func (c Config) sources(gens []*trace.ThreadGen) ([]trace.Source, func()) {
	if !c.ShareTraces {
		return trace.Sources(gens), func() {}
	}
	out := make([]trace.Source, len(gens))
	shared := make([]*trace.SharedGen, len(gens))
	for i, g := range gens {
		shared[i] = trace.Shared(g, traceCache)
		out[i] = shared[i]
	}
	return out, func() {
		for _, s := range shared {
			s.Close()
		}
	}
}
