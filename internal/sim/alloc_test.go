package sim

// Zero-allocation guards and stepper benchmarks for the hot path. The
// simulator's steady-state stepping (scheduler, generators, cache
// hierarchy) must not touch the heap: an allocation per instruction or
// per batch would dominate the interval-simulation benchmarks. These
// tests run under `go test ./...`, so a regression fails CI, not just
// the benchmark suite.

import (
	"testing"

	"intracache/internal/trace"
	"intracache/internal/xrand"
)

// makeStepSim builds a small simulator for alloc tests and stepper
// benchmarks. sectionInstr/intervalInstr are overridable so alloc
// tests can pin the run mid-interval (interval boundaries legitimately
// allocate their stats snapshots).
func makeStepSim(tb testing.TB, org L2Organization, ref bool, sectionInstr, intervalInstr uint64) *Simulator {
	tb.Helper()
	p := testParams(org)
	p.SectionInstructions = sectionInstr
	p.IntervalInstructions = intervalInstr
	root := xrand.New(7)
	gens := make([]trace.Source, p.NumThreads)
	for i := range gens {
		g, err := trace.NewThread(specFor(i, 16+8*i), root.Split())
		if err != nil {
			tb.Fatal(err)
		}
		gens[i] = g
	}
	s, err := New(p, gens, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	s.SetReferenceStepper(ref)
	return s
}

// TestStepZeroAlloc pins the steady-state step path — run-ahead
// batches and the retained reference stepper, across L2 organizations
// — at zero heap allocations per advance. The interval never ends, and
// the section is short because the run-ahead scheduler's advance runs
// to the barrier: one advance there is one whole section, released
// here as the run loop releases it.
func TestStepZeroAlloc(t *testing.T) {
	for _, org := range []L2Organization{L2Shared, L2Partitioned, L2PrivatePerCore} {
		for _, ref := range []bool{false, true} {
			s := makeStepSim(t, org, ref, 1_000, 1<<30)
			for i := 0; i < 10; i++ { // fill caches past cold misses
				for s.advance() {
				}
				s.releaseBarrier()
			}
			if n := testing.AllocsPerRun(2_000, func() {
				if !s.advance() {
					s.releaseBarrier()
				}
			}); n != 0 {
				t.Errorf("org %v ref=%v: %v allocs per step, want 0", org, ref, n)
			}
		}
	}
}

// benchStepper measures whole sections end to end (scheduler + trace
// generation + hierarchy), comparing the run-ahead scheduler against
// the reference stepper it is differentially pinned to.
func benchStepper(b *testing.B, ref bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := makeStepSim(b, L2Shared, ref, 50_000, 80_000)
		b.StartTimer()
		s.RunSections(8)
	}
}

func BenchmarkStepperReference(b *testing.B) { benchStepper(b, true) }
func BenchmarkStepperRunAhead(b *testing.B)  { benchStepper(b, false) }
