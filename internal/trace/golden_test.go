package trace_test

// Stream golden and generator benchmark over the real workload
// profiles. The in-package tests prove NextRun equals Next and that
// restores and chunk seeks are exact, but both sides of those
// comparisons run the same sampler code, so they cannot see a change
// to the stream itself. This golden can: it digests what every
// profile's threads emit and must not move under a host-side
// optimisation of the generator or its RNG.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"intracache/internal/trace"
	"intracache/internal/workload"
)

// streamGolden holds each profile's stream digest, recorded at commit
// c508566, before the Bernoulli run loop and the Zipf lookup were
// rewritten.
var streamGolden = map[string]string{
	"applu":  "b54f8f63178c5c0a",
	"apsi":   "b53d1b64b5c19136",
	"art":    "ff3e159e25ce3be2",
	"equake": "16888db31f0647b5",
	"swim":   "2266fd87896ff781",
	"mgrid":  "f36c1b09f70a9fad",
	"bt":     "2b465facbe2f478b",
	"cg":     "5f7e5f03eb8428eb",
	"mg":     "8c7c5377dafd014c",
}

// goldenInstructions is how far each thread is driven.
const goldenInstructions = 64 << 10

// Phase changes land mid-chunk, at these instruction counts.
var goldenPhases = []struct {
	at          uint64
	ws, streamS float64
}{
	{3*trace.ChunkInstructions + 1234, 1.7, 0.5},
	{5*trace.ChunkInstructions + 4000, 0.6, 1.5},
}

// digestThread drives g through NextRun to goldenInstructions with run
// limits from a fixed sequence (1 up to several chunks long), applying
// the phase changes exactly at their instruction counts, and hashes
// every run and the final generator state.
func digestThread(g *trace.ThreadGen, put func(...uint64)) {
	var done uint64
	lcg := uint64(1)
	phase := 0
	for done < goldenInstructions {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		max := 1 + (lcg>>33)%(3*trace.ChunkInstructions)
		if left := goldenInstructions - done; max > left {
			max = left
		}
		if phase < len(goldenPhases) && done+max > goldenPhases[phase].at {
			max = goldenPhases[phase].at - done
		}
		n, in := g.NextRun(max)
		done += n
		var w uint64
		if in.Write {
			w = 1
		}
		if in.IsMem {
			done++
			put(n, 1, w, in.Addr)
		} else {
			put(n, 0)
		}
		if phase < len(goldenPhases) && done == goldenPhases[phase].at {
			g.SetPhase(goldenPhases[phase].ws, goldenPhases[phase].streamS)
			phase++
		}
	}
	st := g.SourceState().Gen
	put(st.Rng[:]...)
	put(st.StreamPos, st.StridePos, st.Instructions)
}

func TestStreamGolden(t *testing.T) {
	for _, prof := range workload.Profiles() {
		gens, err := prof.Generators(4, 64, 42)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		put := func(vs ...uint64) {
			var b [8]byte
			for _, v := range vs {
				binary.LittleEndian.PutUint64(b[:], v)
				h.Write(b[:])
			}
		}
		for _, g := range gens {
			digestThread(g, put)
		}
		got := hex.EncodeToString(h.Sum(nil))[:16]
		if want, ok := streamGolden[prof.Name]; !ok {
			t.Errorf("%s: no recorded digest (got %s)", prof.Name, got)
		} else if got != want {
			t.Errorf("%s: stream digest %s, recorded %s", prof.Name, got, want)
		}
	}
}

// BenchmarkNextRun drives cg's four thread specs the way the simulator's
// run-ahead scheduler does: the threads take turns, each asking for the
// rest of its 24k-instruction section and stopping at its next memory
// access, with the working-set phase of the profile's first interval.
// One op is one NextRun call; ns/instr is the generator's cost per
// simulated instruction.
func BenchmarkNextRun(b *testing.B) {
	prof, err := workload.ByName("cg")
	if err != nil {
		b.Fatal(err)
	}
	gens, err := prof.Generators(4, 64, 42)
	if err != nil {
		b.Fatal(err)
	}
	phase := prof.PhaseFunc(len(gens))
	for i, g := range gens {
		g.SetPhase(phase(i, 0))
	}
	const section = 24_000
	left := make([]uint64, len(gens))
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := i & 3
		if left[t] == 0 {
			left[t] = section
		}
		n, in := gens[t].NextRun(left[t])
		if in.IsMem {
			n++
		}
		left[t] -= n
		instrs += n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
}
