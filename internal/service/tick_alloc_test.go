//go:build !race

// The race detector makes sync.Pool drop items at random, so the
// tick's allocation count is pinned only without it.

package service

import (
	"fmt"
	"testing"
)

// TestTickAllocs pins one decision round over 64 sessions with two
// queued samples each, the shape of BenchmarkServiceDecisionTick.
// While every model fit allocated its own storage, that benchmark's
// round made 8.2k allocations (this warmer round 20.1k); the bound is
// a quarter of the 8.2k.
func TestTickAllocs(t *testing.T) {
	const sessions, mapModelAllocs = 64, 8200
	svc := New(Options{QueueCap: 64, MaxSamplesPerTick: 2})
	round := 0
	ingest := func() {
		for s := 0; s < sessions; s++ {
			b := mkBatch(fmt.Sprintf("app-%03d", s), 4, 16, 2, uint64(round*sessions+s))
			if rep := svc.Ingest(b); rep.Rejected != "" {
				t.Fatalf("ingest: %+v", rep)
			}
		}
		round++
	}
	// Warm the models past the bootstrap intervals.
	for i := 0; i < 4; i++ {
		ingest()
		svc.Tick(0)
	}
	// AllocsPerRun ticks once to warm up, then once measured: queue two
	// rounds so the measured tick decides over two samples per session.
	ingest()
	ingest()
	var decided int
	allocs := testing.AllocsPerRun(1, func() { decided = len(svc.Tick(0)) })
	if decided != sessions {
		t.Fatalf("measured tick decided %d sessions, want %d", decided, sessions)
	}
	if allocs > mapModelAllocs/4 {
		t.Fatalf("tick over %d sessions: %v allocs, want <= %d", sessions, allocs, mapModelAllocs/4)
	}
}
