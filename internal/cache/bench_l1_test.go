package cache_test

import (
	"testing"

	"intracache/internal/cache"
	"intracache/internal/workload"
)

// BenchmarkAccessL1 replays the address stream of cg's first thread
// through the simulator's private L1: 4 KiB, 4-way, one thread. The
// generators draw every access at line granularity, so about four
// accesses in five miss this L1 and victim selection carries as much
// weight as the hit path.
func BenchmarkAccessL1(b *testing.B) {
	prof, err := workload.ByName("cg")
	if err != nil {
		b.Fatal(err)
	}
	gens, err := prof.Generators(4, 64, 42)
	if err != nil {
		b.Fatal(err)
	}
	type access struct {
		addr  uint64
		write bool
	}
	stream := make([]access, 1<<16)
	for i := range stream {
		for {
			if _, in := gens[0].NextRun(1 << 20); in.IsMem {
				stream[i] = access{in.Addr, in.Write}
				break
			}
		}
	}
	c, err := cache.New(cache.Config{SizeBytes: 4096, Ways: 4, LineBytes: 64, NumThreads: 1}, cache.SharedLRU)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := stream[i&(len(stream)-1)]
		c.Access(0, a.addr, a.write)
	}
}
