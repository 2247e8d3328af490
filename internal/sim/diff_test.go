package sim_test

// Differential tests pinning the run-ahead scheduler bit-identical to
// the retained reference stepper: same Result, and byte-equal
// checkpoint State at every execution-interval boundary, across
// randomized configurations (shared/partitioned/private/TADIP L2,
// UMON, DRAM, phase modulation, replayed traces, faulty telemetry) —
// including a kill/resume-at-every-interval chain.

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"intracache/internal/cache"
	"intracache/internal/fault"
	"intracache/internal/mem"
	"intracache/internal/sim"
	"intracache/internal/trace"
	"intracache/internal/xrand"
)

// diffConfig is one randomized scenario. Sources must return a fresh,
// identically-seeded set each call so the two simulators consume
// identical streams; Controller likewise.
type diffConfig struct {
	name      string
	params    sim.Params
	sources   func(t *testing.T) []trace.Source
	ctl       func() sim.Controller
	phase     sim.PhaseFunc
	intervals int
}

// rotatingController reassigns way targets as a pure function of the
// interval index (stateless, so it survives sim-level resume without a
// controller checkpoint).
type rotatingController struct {
	ways, threads int
}

func (rc rotatingController) OnInterval(iv sim.IntervalStats, _ sim.Monitors) []int {
	if iv.Index%2 == 1 {
		return nil // exercise the "keep current targets" path too
	}
	targets := make([]int, rc.threads)
	base, rem := rc.ways/rc.threads, rc.ways%rc.threads
	for i := range targets {
		targets[i] = base
	}
	// Rotate which thread gets the remainder plus one borrowed way.
	lucky := iv.Index % rc.threads
	targets[lucky] += rem
	if rc.threads > 1 && targets[(lucky+1)%rc.threads] > 1 {
		targets[(lucky+1)%rc.threads]--
		targets[lucky]++
	}
	return targets
}

func diffSpec(thread, wsKB int, lineBytes int) trace.ThreadSpec {
	return trace.ThreadSpec{
		MemRatio:        0.35,
		WriteRatio:      0.25,
		PrivateBase:     uint64(thread+1) << 32,
		PrivateBytes:    uint64(wsKB) * 1024,
		ZipfAlpha:       0.8,
		StreamBase:      uint64(thread+1)<<32 | 1<<28,
		StreamBytes:     256 * 1024,
		StreamWeight:    0.15,
		SharedBase:      1 << 40,
		SharedBytes:     64 * 1024,
		SharedWeight:    0.1,
		SharedZipfAlpha: 0.6,
		LineBytes:       lineBytes,
	}
}

// genSources builds deterministic synthetic sources for a config seed.
func genSources(t *testing.T, seed uint64, threads int, lineBytes int) []trace.Source {
	t.Helper()
	root := xrand.New(seed)
	out := make([]trace.Source, threads)
	for i := 0; i < threads; i++ {
		g, err := trace.NewThread(diffSpec(i, 24*(i+1), lineBytes), root.Split())
		if err != nil {
			t.Fatal(err)
		}
		out[i] = g
	}
	return out
}

// replaySources records a short trace per thread once and replays it,
// so the diff also covers the Replayer.NextRun gap fast path.
func replaySources(t *testing.T, seed uint64, threads int, lineBytes int) []trace.Source {
	t.Helper()
	out := make([]trace.Source, threads)
	root := xrand.New(seed)
	for i := 0; i < threads; i++ {
		g, err := trace.NewThread(diffSpec(i, 16*(i+1), lineBytes), root.Split())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.Record(&buf, g, 20_000, lineBytes); err != nil {
			t.Fatal(err)
		}
		rp, err := trace.NewReplayer(&buf, lineBytes)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = rp
	}
	return out
}

func diffParams(threads int, org sim.L2Organization) sim.Params {
	return sim.Params{
		NumThreads: threads,
		L1:         cache.Config{SizeBytes: 2048, Ways: 4, LineBytes: 64, NumThreads: 1},
		L2:         cache.Config{SizeBytes: 64 * 1024, Ways: 16, LineBytes: 64, NumThreads: threads},
		L2Org:      org,
		BaseCycles: 1, L2HitCycles: 10, MemCycles: 120,
		SectionInstructions:  3000,
		IntervalInstructions: 7000, // deliberately not a multiple of sections
	}
}

// diffConfigs enumerates the randomized scenarios. Each scenario's
// sources and controller are rebuilt per simulator from the same seed.
func diffConfigs() []diffConfig {
	var cfgs []diffConfig
	add := func(name string, seed uint64, mut func(*sim.Params), ctl func(p sim.Params) sim.Controller,
		phase sim.PhaseFunc, replay bool) {
		p := diffParams(4, sim.L2Shared)
		if mut != nil {
			mut(&p)
		}
		src := func(t *testing.T) []trace.Source {
			if replay {
				return replaySources(t, seed, p.NumThreads, p.L1.LineBytes)
			}
			return genSources(t, seed, p.NumThreads, p.L1.LineBytes)
		}
		var mkCtl func() sim.Controller
		if ctl != nil {
			mkCtl = func() sim.Controller { return ctl(p) }
		}
		cfgs = append(cfgs, diffConfig{
			name: name, params: p, sources: src, ctl: mkCtl, phase: phase, intervals: 8,
		})
	}

	rot := func(p sim.Params) sim.Controller {
		return rotatingController{ways: p.L2.Ways, threads: p.NumThreads}
	}
	faulty := func(p sim.Params) sim.Controller {
		inj, err := fault.NewInjector(fault.Plan{
			Seed: 99, CPINoise: 0.2, DropRate: 0.1, StuckRate: 0.1, StallRate: 0.05,
		}, rotatingController{ways: p.L2.Ways, threads: p.NumThreads})
		if err != nil {
			panic(err)
		}
		return inj
	}
	phase := func(thread, interval int) (float64, float64) {
		if (interval+thread)%3 == 0 {
			return 1.6, 0.5
		}
		return 0.8, 1.2
	}

	// Names with "coherence" or "writeback" are kept as stable test
	// IDs; sim.Params no longer has those knobs, and the scenarios still
	// differ from their neighbours in seed, phase and DRAM.
	add("shared", 11, nil, nil, nil, false)
	add("shared-coherence", 12, nil, nil, nil, false)
	add("partitioned-umon-ctl", 13, func(p *sim.Params) {
		p.L2Org = sim.L2Partitioned
		p.UMONSampleStride = 4
	}, rot, nil, false)
	add("partitioned-mask", 14, func(p *sim.Params) {
		p.L2Org = sim.L2Partitioned
		p.MaskPartitioning = true
		p.UMONSampleStride = 2
	}, rot, nil, false)
	add("private-l2", 15, func(p *sim.Params) {
		p.L2Org = sim.L2PrivatePerCore
	}, nil, nil, false)
	add("tadip-dram", 16, func(p *sim.Params) {
		p.L2Org = sim.L2TADIP
		d := mem.DefaultConfig()
		p.DRAM = &d
	}, nil, nil, false)
	add("partitioned-writeback-phase", 17, func(p *sim.Params) {
		p.L2Org = sim.L2Partitioned
		p.UMONSampleStride = 4
		p.TADIPInsertion = true
	}, rot, phase, false)
	add("shared-coherence-dram-writeback", 18, func(p *sim.Params) {
		d := mem.DefaultConfig()
		p.DRAM = &d
	}, nil, phase, false)
	add("replay-shared", 19, nil, nil, nil, true)
	add("replay-partitioned-faulty-ctl", 20, func(p *sim.Params) {
		p.L2Org = sim.L2Partitioned
		p.UMONSampleStride = 4
	}, faulty, nil, true)
	return cfgs
}

func buildSim(t *testing.T, cfg diffConfig) *sim.Simulator {
	t.Helper()
	var ctl sim.Controller
	if cfg.ctl != nil {
		ctl = cfg.ctl()
	}
	s, err := sim.New(cfg.params, cfg.sources(t), ctl, cfg.phase)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// stateBytes gob-encodes a simulator's full checkpoint state.
func stateBytes(t *testing.T, s *sim.Simulator) []byte {
	t.Helper()
	st, err := s.State()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunAheadMatchesReference runs every scenario once under the
// reference stepper and once under the run-ahead scheduler, requiring a
// deep-equal Result and byte-equal checkpoint state at every interval
// boundary and at the end.
func TestRunAheadMatchesReference(t *testing.T) {
	for _, cfg := range diffConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			ref := buildSim(t, cfg)
			ref.SetReferenceStepper(true)
			var refBounds [][]byte
			refRes, err := ref.RunIntervalsContext(context.Background(), cfg.intervals, func(int) error {
				refBounds = append(refBounds, stateBytes(t, ref))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			opt := buildSim(t, cfg)
			var optBounds [][]byte
			optRes, err := opt.RunIntervalsContext(context.Background(), cfg.intervals, func(int) error {
				optBounds = append(optBounds, stateBytes(t, opt))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(refRes, optRes) {
				t.Errorf("Result diverged:\nref: %+v\nopt: %+v", refRes, optRes)
			}
			if len(refBounds) != len(optBounds) {
				t.Fatalf("interval boundary count: ref %d, opt %d", len(refBounds), len(optBounds))
			}
			for i := range refBounds {
				if !bytes.Equal(refBounds[i], optBounds[i]) {
					t.Errorf("checkpoint state diverged at interval boundary %d", i+1)
				}
			}
			if !bytes.Equal(stateBytes(t, ref), stateBytes(t, opt)) {
				t.Error("final checkpoint state diverged")
			}
		})
	}
}

// TestRunAheadResumeEveryInterval kills the run-ahead simulator at
// every interval boundary and resumes into a freshly constructed
// simulator, requiring the stitched run to end byte-identical to the
// reference stepper's uninterrupted run. Scenarios with stateful
// controllers are skipped: controller state is checkpointed by the
// experiment layer (see internal/checkpoint), not by sim.State.
func TestRunAheadResumeEveryInterval(t *testing.T) {
	for _, cfg := range diffConfigs() {
		cfg := cfg
		if cfg.name == "replay-partitioned-faulty-ctl" {
			continue // fault.Injector carries RNG state across intervals
		}
		t.Run(cfg.name, func(t *testing.T) {
			ref := buildSim(t, cfg)
			ref.SetReferenceStepper(true)
			refRes, err := ref.RunIntervalsContext(context.Background(), cfg.intervals, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := stateBytes(t, ref)

			// Kill/resume chain: each interval runs in a brand-new
			// simulator restored from the previous one's snapshot.
			cur := buildSim(t, cfg)
			var res sim.Result
			for done := 0; done < cfg.intervals; done++ {
				st, err := cur.State()
				if err != nil {
					t.Fatal(err)
				}
				next := buildSim(t, cfg)
				if err := next.Restore(st); err != nil {
					t.Fatalf("resume before interval %d: %v", done+1, err)
				}
				cur = next
				if res, err = cur.RunIntervalsContext(context.Background(), done+1, nil); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(refRes, res) {
				t.Errorf("resumed Result diverged:\nref: %+v\ngot: %+v", refRes, res)
			}
			if got := stateBytes(t, cur); !bytes.Equal(want, got) {
				t.Error("resumed final checkpoint state diverged from uninterrupted reference run")
			}
		})
	}
}

// TestSwapThreadsKeepsBatchSources guards the run-ahead scheduler's
// cached RunSource against drifting from the generator a SwapThreads
// migration moves: after a swap, batched and reference execution must
// still agree.
func TestSwapThreadsKeepsBatchSources(t *testing.T) {
	cfg := diffConfigs()[0]
	run := func(s *sim.Simulator) sim.Result {
		var res sim.Result
		var err error
		hook := func(done int) error {
			if done == 3 {
				return s.SwapThreads(0, 2)
			}
			return nil
		}
		if res, err = s.RunIntervalsContext(context.Background(), 6, hook); err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := buildSim(t, cfg)
	ref.SetReferenceStepper(true)
	opt := buildSim(t, cfg)
	if refRes, optRes := run(ref), run(opt); !reflect.DeepEqual(refRes, optRes) {
		t.Errorf("Result diverged after SwapThreads:\nref: %+v\nopt: %+v", refRes, optRes)
	}
}

func ExampleSimulator_SetReferenceStepper() {
	p := diffParams(2, sim.L2Shared)
	root := xrand.New(7)
	gens := make([]trace.Source, 2)
	for i := range gens {
		g, err := trace.NewThread(diffSpec(i, 16, 64), root.Split())
		if err != nil {
			panic(err)
		}
		gens[i] = g
	}
	s, err := sim.New(p, gens, nil, nil)
	if err != nil {
		panic(err)
	}
	s.SetReferenceStepper(true) // pre-optimization stepper, for differential runs
	res := s.RunIntervals(2)
	fmt.Println(len(res.Intervals))
	// Output: 2
}
