package sim_test

// Differential tests pinning simulation over shared trace sources
// bit-identical to bare generation: same Result and byte-equal
// checkpoint State at every interval boundary across the randomized
// scenarios of diff_test.go (minus the replayed-trace ones — SharedGen
// wraps live generators) plus extra generator-based scenarios, with no
// cache, a cache being filled, and a cache being replayed — including a
// kill/resume-at-every-interval chain that restores into freshly
// constructed shared-trace simulators.

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"intracache/internal/sim"
	"intracache/internal/trace"
)

// pipeDiffConfigs is the scenario set for the shared-trace differential:
// every generator-based diff_test scenario, plus extra ones varying
// thread count and phase modulation so the suite crosses the
// ten-configuration mark without the replay-based pair.
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

// buildPipeSim builds a simulator whose sources are SharedGen wrappers
// around the scenario's generators over cache; the wrappers are closed
// via t.Cleanup so cache references never outlive the test.
func buildPipeSim(t *testing.T, cfg diffConfig, cache *trace.SegmentCache) *sim.Simulator {
	t.Helper()
	raw := cfg.sources(t)
	srcs := make([]trace.Source, len(raw))
	for i, s := range raw {
		g, ok := s.(*trace.ThreadGen)
		if !ok {
			t.Fatalf("scenario %s: source %d is %T, not a generator", cfg.name, i, s)
		}
		p := trace.Shared(g, cache)
		t.Cleanup(p.Close)
		srcs[i] = p
	}
	var ctl sim.Controller
	if cfg.ctl != nil {
		ctl = cfg.ctl()
	}
	s, err := sim.New(cfg.params, srcs, ctl, cfg.phase)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// pipeModesFor pairs each scenario with the cache each pass runs over:
// a zero-budget cache, which stores nothing, so the sources fall back to
// direct delegation after their first segment; then the same cache
// twice so the replay pass consumes segments the first one published.
// Interval boundaries land SetPhase mid-segment, exercising
// rollback-replay.
func pipeModesFor(cache *trace.SegmentCache) []struct {
	name  string
	cache *trace.SegmentCache
} {
	return []struct {
		name  string
		cache *trace.SegmentCache
	}{
		{"sync-fallback", trace.NewSegmentCache(0)},
		{"sync-cached", cache},
		{"sync-cached-replay", cache},
	}
}

// TestPipelinedSimMatchesSynchronous runs every scenario once over bare
// generators and once per shared-trace pass, requiring a deep-equal Result
// and byte-equal checkpoint state at every interval boundary and at the
// end. Constant-phase scenarios additionally require the replay pass to
// have been served from the segment cache.
func TestPipelinedSimMatchesSynchronous(t *testing.T) {
	for _, cfg := range pipeDiffConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			ref := buildSim(t, cfg)
			var refBounds [][]byte
			refRes, err := ref.RunIntervalsContext(context.Background(), cfg.intervals, func(int) error {
				refBounds = append(refBounds, stateBytes(t, ref))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			cache := trace.NewSegmentCache(64 << 20)
			for _, m := range pipeModesFor(cache) {
				m := m
				t.Run(m.name, func(t *testing.T) {
					s := buildPipeSim(t, cfg, m.cache)
					var bounds [][]byte
					res, err := s.RunIntervalsContext(context.Background(), cfg.intervals, func(int) error {
						bounds = append(bounds, stateBytes(t, s))
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(refRes, res) {
						t.Errorf("Result diverged:\nbare:   %+v\nshared: %+v", refRes, res)
					}
					if len(refBounds) != len(bounds) {
						t.Fatalf("interval boundary count: bare %d, shared %d", len(refBounds), len(bounds))
					}
					for i := range refBounds {
						if !bytes.Equal(refBounds[i], bounds[i]) {
							t.Errorf("checkpoint state diverged at interval boundary %d", i+1)
						}
					}
				})
			}
			if cfg.phase == nil {
				if st := cache.Stats(); st.Hits == 0 {
					t.Errorf("constant-phase scenario never hit the segment cache: %+v", st)
				}
			}
		})
	}
}

// TestPipelinedSimResumeEveryInterval kills a shared-trace simulator at
// every interval boundary and resumes into a freshly constructed
// shared-trace simulator, requiring the stitched run to end
// byte-identical to an uninterrupted bare run. Restored sources run
// privately (they re-enter mid-segment, where cached segment boundaries
// no longer line up), which this chain exercises at every boundary.
func TestPipelinedSimResumeEveryInterval(t *testing.T) {
	for _, cfg := range pipeDiffConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			ref := buildSim(t, cfg)
			refRes, err := ref.RunIntervalsContext(context.Background(), cfg.intervals, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := stateBytes(t, ref)

			cache := trace.NewSegmentCache(64 << 20)
			cur := buildPipeSim(t, cfg, cache)
			var res sim.Result
			for done := 0; done < cfg.intervals; done++ {
				st, err := cur.State()
				if err != nil {
					t.Fatal(err)
				}
				next := buildPipeSim(t, cfg, cache)
				if err := next.Restore(st); err != nil {
					t.Fatalf("resume before interval %d: %v", done+1, err)
				}
				cur = next
				if res, err = cur.RunIntervalsContext(context.Background(), done+1, nil); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(refRes, res) {
				t.Errorf("resumed Result diverged:\nsync: %+v\ngot: %+v", refRes, res)
			}
			if got := stateBytes(t, cur); !bytes.Equal(want, got) {
				t.Error("resumed final checkpoint state diverged from uninterrupted bare run")
			}
		})
	}
}
