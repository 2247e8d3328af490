package sim_test

// Differential tests pinning lockstep pairs (sim.RunPair) bit-identical
// to solo runs: each run of a pair returns the Result, and ends in the
// checkpoint State, that it reaches alone, across the generator-based
// scenarios of diff_test.go plus extra ones varying thread count and
// phase modulation — including a kill/resume chain that restores both
// runs of a pair at every section boundary. The TestPipelinedSim* names
// are kept as stable test IDs from the shared segment cache the pairs
// replaced, and so are the three modes: "sync-cached" runs the scenario
// as the pair's generating run, "sync-cached-replay" as its replaying
// run, and "sync-fallback" beside a partner whose streams differ, so
// that nothing is shared.

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"intracache/internal/sim"
	"intracache/internal/trace"
)

// pairSections is the run length of the pair differentials: enough
// sections for the phase scenarios to unlink threads mid-run.
const pairSections = 6

// pipeDiffConfigs is the scenario set for the pair differential: every
// generator-based diff_test scenario, plus extra ones varying thread
// count and phase modulation.
func pipeDiffConfigs() []diffConfig {
	var out []diffConfig
	for _, c := range diffConfigs() {
		if strings.HasPrefix(c.name, "replay") {
			continue
		}
		out = append(out, c)
	}

	p2 := diffParams(2, sim.L2Shared)
	out = append(out, diffConfig{
		name:   "pipe-2thread-coherence-phase",
		params: p2,
		sources: func(t *testing.T) []trace.Source {
			return genSources(t, 31, 2, p2.L1.LineBytes)
		},
		phase: func(thread, interval int) (float64, float64) {
			if (interval+thread)%2 == 0 {
				return 1.3, 0.7
			}
			return 0.7, 1.4
		},
		intervals: 8,
	})

	p6 := diffParams(6, sim.L2Partitioned)
	p6.UMONSampleStride = 2
	out = append(out, diffConfig{
		name:   "pipe-6thread-partitioned-ctl",
		params: p6,
		sources: func(t *testing.T) []trace.Source {
			return genSources(t, 32, 6, p6.L1.LineBytes)
		},
		ctl: func() sim.Controller {
			return rotatingController{ways: p6.L2.Ways, threads: p6.NumThreads}
		},
		intervals: 8,
	})

	p4 := diffParams(4, sim.L2TADIP)
	out = append(out, diffConfig{
		name:   "pipe-tadip-writeback-phase",
		params: p4,
		sources: func(t *testing.T) []trace.Source {
			return genSources(t, 33, 4, p4.L1.LineBytes)
		},
		phase: func(thread, interval int) (float64, float64) {
			if interval%3 == 0 {
				return 1.8, 0.4
			}
			return 0.9, 1.1
		},
		intervals: 8,
	})
	return out
}

// partnerOf is cfg on an L2 of half the capacity: the same streams
// under different timing, so the two runs of a pair reach every
// interval boundary at different points of the streams.
func partnerOf(cfg diffConfig) diffConfig {
	cfg.name += "/half-l2"
	cfg.params.L2.SizeBytes /= 2
	return cfg
}

// divergentOf is cfg with every generator one instruction ahead, so no
// thread's stream can be shared with cfg's.
func divergentOf(cfg diffConfig) diffConfig {
	src := cfg.sources
	cfg.sources = func(t *testing.T) []trace.Source {
		out := src(t)
		for _, s := range out {
			s.Next()
		}
		return out
	}
	return cfg
}

// soloRun runs cfg alone for n sections and returns its Result and
// final checkpoint state.
func soloRun(t *testing.T, cfg diffConfig, n int) (sim.Result, []byte) {
	t.Helper()
	s := buildSim(t, cfg)
	return s.RunSections(n), stateBytes(t, s)
}

// pairRun runs a and b as a lockstep pair for n sections and returns
// their Results and final checkpoint states.
func pairRun(t *testing.T, a, b *sim.Simulator, n int) ([2]sim.Result, [2][]byte) {
	t.Helper()
	ra, rb, err := sim.RunPair(context.Background(), a, b, n)
	if err != nil {
		t.Fatal(err)
	}
	return [2]sim.Result{ra, rb}, [2][]byte{stateBytes(t, a), stateBytes(t, b)}
}

// TestPipelinedSimMatchesSynchronous runs every scenario alone, then as
// each run of a pair, requiring a deep-equal Result and a byte-equal
// final checkpoint state.
func TestPipelinedSimMatchesSynchronous(t *testing.T) {
	for _, cfg := range pipeDiffConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			want, wantState := soloRun(t, cfg, pairSections)
			for _, mode := range []struct {
				name    string
				partner diffConfig
				second  bool // cfg is the replaying run
			}{
				{"sync-fallback", divergentOf(partnerOf(cfg)), false},
				{"sync-cached", partnerOf(cfg), false},
				{"sync-cached-replay", partnerOf(cfg), true},
			} {
				t.Run(mode.name, func(t *testing.T) {
					a, b := buildSim(t, cfg), buildSim(t, mode.partner)
					i := 0
					if mode.second {
						a, b, i = b, a, 1
					}
					res, states := pairRun(t, a, b, pairSections)
					if !reflect.DeepEqual(want, res[i]) {
						t.Errorf("Result diverged:\nsolo: %+v\npair: %+v", want, res[i])
					}
					if !bytes.Equal(wantState, states[i]) {
						t.Error("final checkpoint state diverged")
					}
					partner, partnerState := soloRun(t, mode.partner, pairSections)
					if !reflect.DeepEqual(partner, res[1-i]) || !bytes.Equal(partnerState, states[1-i]) {
						t.Error("the partner's Result or final state diverged from its solo run")
					}
				})
			}
		})
	}
}

// TestPipelinedSimResumeEveryInterval kills a pair at every section
// boundary and resumes both runs into freshly constructed simulators
// that run the next section as a new pair, requiring each stitched run
// to end byte-identical to its uninterrupted solo run.
func TestPipelinedSimResumeEveryInterval(t *testing.T) {
	for _, cfg := range pipeDiffConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			cfgs := [2]diffConfig{cfg, partnerOf(cfg)}
			var want [2]sim.Result
			var wantState [2][]byte
			for i, c := range cfgs {
				want[i], wantState[i] = soloRun(t, c, pairSections)
			}
			var sims [2]*sim.Simulator
			for i, c := range cfgs {
				sims[i] = buildSim(t, c)
			}
			var res [2]sim.Result
			var states [2][]byte
			for done := 0; done < pairSections; done++ {
				for i, c := range cfgs {
					st, err := sims[i].State()
					if err != nil {
						t.Fatal(err)
					}
					next := buildSim(t, c)
					if err := next.Restore(st); err != nil {
						t.Fatalf("resume before section %d: %v", done+1, err)
					}
					sims[i] = next
				}
				res, states = pairRun(t, sims[0], sims[1], 1)
			}
			for i := range cfgs {
				if !reflect.DeepEqual(want[i], res[i]) {
					t.Errorf("%s: resumed Result diverged:\nsolo: %+v\ngot:  %+v", cfgs[i].name, want[i], res[i])
				}
				if !bytes.Equal(wantState[i], states[i]) {
					t.Errorf("%s: resumed final state diverged from the uninterrupted solo run", cfgs[i].name)
				}
			}
		})
	}
}

// TestRunPairRefusals: a pair needs two simulators at a section
// boundary with the same thread, section, interval and L1 geometry.
func TestRunPairRefusals(t *testing.T) {
	cfg := pipeDiffConfigs()[0]
	s := buildSim(t, cfg)
	if _, _, err := sim.RunPair(context.Background(), s, s, 1); err == nil {
		t.Error("a simulator paired with itself was accepted")
	}
	other := cfg
	other.params.SectionInstructions++
	if _, _, err := sim.RunPair(context.Background(), buildSim(t, cfg), buildSim(t, other), 1); err == nil {
		t.Error("simulators with different section lengths were accepted")
	}
	mid := buildSim(t, cfg)
	mid.RunIntervals(1) // the first interval ends mid-section
	if _, _, err := sim.RunPair(context.Background(), buildSim(t, cfg), mid, 1); err == nil {
		t.Error("a simulator stopped mid-section was accepted")
	}
}

// TestRunPairCancelled: a pair observes cancellation at interval
// boundaries like a solo run and returns ctx's error, both when the
// context is cancelled before the pair starts and while it runs.
func TestRunPairCancelled(t *testing.T) {
	cfg := pipeDiffConfigs()[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sim.RunPair(ctx, buildSim(t, cfg), buildSim(t, partnerOf(cfg)), 5); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled pair returned %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	a, b := buildSim(t, cfg), buildSim(t, partnerOf(cfg))
	done := make(chan error, 1)
	go func() {
		_, _, err := sim.RunPair(ctx, a, b, 1<<30)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled pair returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled pair did not return")
	}
}

// TestSwapThreadsKeepsL1WithCore: a migration moves the two threads'
// sources between cores and leaves each core's L1, which lives in the
// core's front end, where it was.
func TestSwapThreadsKeepsL1WithCore(t *testing.T) {
	s := buildSim(t, pipeDiffConfigs()[0])
	s.RunIntervals(3)
	before, err := s.State()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(before.L1[0], before.L1[2]) {
		t.Fatal("cores 0 and 2 hold the same L1 state; the test shows nothing")
	}
	if err := s.SwapThreads(0, 2); err != nil {
		t.Fatal(err)
	}
	after, err := s.State()
	if err != nil {
		t.Fatal(err)
	}
	for i := range before.L1 {
		if !reflect.DeepEqual(before.L1[i], after.L1[i]) {
			t.Errorf("core %d's L1 changed with the swap", i)
		}
	}
	if !reflect.DeepEqual(before.Threads[0].Source, after.Threads[2].Source) ||
		!reflect.DeepEqual(before.Threads[2].Source, after.Threads[0].Source) {
		t.Error("the swap did not exchange the threads' sources")
	}
}
