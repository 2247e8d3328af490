package service_test

import (
	"reflect"
	"testing"

	"intracache/internal/cache"
	"intracache/internal/core"
	"intracache/internal/experiment"
	"intracache/internal/service"
	"intracache/internal/sim"
	"intracache/internal/trace"
	"intracache/internal/workload"
)

// recorder is a sim.Controller that passes every interval through to
// the model-based runtime system and records what it saw: the
// interval's counters and the engine's health after deciding.
type recorder struct {
	rts    *core.RuntimeSystem
	eng    *core.ResilientEngine
	ivs    []sim.IntervalStats
	health []string
}

func (r *recorder) OnInterval(iv sim.IntervalStats, mon sim.Monitors) []int {
	rec := iv
	rec.Threads = append([]sim.ThreadIntervalStats(nil), iv.Threads...)
	r.ivs = append(r.ivs, rec)
	targets := r.rts.OnInterval(iv, mon)
	r.health = append(r.health, r.eng.Health().String())
	return targets
}

// TestServiceMatchesSimulator is the one-source-of-truth differential:
// a partitiond session fed, one sample per tick, the counters a
// model-based simulation measured must install exactly the allocation
// the in-simulator runtime installed after the same interval, on the
// same degradation rung.
func TestServiceMatchesSimulator(t *testing.T) {
	const intervals = 30
	cfg := experiment.QuickConfig()
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			prof, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			gens, err := prof.Generators(cfg.NumThreads, cfg.LineBytes, cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			_, rts, err := core.ControllerFor(core.PolicyModelBased)
			if err != nil {
				t.Fatal(err)
			}
			rec := &recorder{rts: rts, eng: rts.Engine().(*core.ResilientEngine)}
			p := sim.Params{
				NumThreads: cfg.NumThreads,
				L1: cache.Config{
					SizeBytes: cfg.L1KB * 1024, Ways: cfg.L1Ways,
					LineBytes: cfg.LineBytes, NumThreads: 1,
				},
				L2: cache.Config{
					SizeBytes: cfg.L2KB * 1024, Ways: cfg.L2Ways,
					LineBytes: cfg.LineBytes, NumThreads: cfg.NumThreads,
				},
				L2Org:                core.L2OrgFor(core.PolicyModelBased),
				BaseCycles:           cfg.BaseCycles,
				L2HitCycles:          cfg.L2HitCycles,
				MemCycles:            cfg.MemCycles,
				SectionInstructions:  cfg.SectionInstructions,
				IntervalInstructions: cfg.IntervalInstructions,
			}
			s, err := sim.New(p, trace.Sources(gens), rec, prof.PhaseFunc(cfg.NumThreads))
			if err != nil {
				t.Fatal(err)
			}
			inForce := make([][]int, intervals)
			for i := range inForce {
				s.RunIntervals(i + 1)
				inForce[i] = s.Targets()
			}
			if len(rec.ivs) != intervals {
				t.Fatalf("simulator ran %d intervals, want %d", len(rec.ivs), intervals)
			}

			svc := service.New(service.Options{})
			for i, iv := range rec.ivs {
				reply := svc.Ingest(service.Batch{App: name, Threads: cfg.NumThreads, Ways: cfg.L2Ways,
					Samples: []service.Sample{{Interval: iv.Index, Threads: iv.Threads}}})
				if reply.Accepted != 1 {
					t.Fatalf("interval %d: ingest %+v", i, reply)
				}
				ds := svc.Tick(0)
				if len(ds) != 1 {
					t.Fatalf("interval %d: %d decisions, want 1", i, len(ds))
				}
				if d := ds[0]; !reflect.DeepEqual(d.Alloc, inForce[i]) || d.Rung != rec.health[i] {
					t.Fatalf("interval %d: service alloc %v rung %q, simulator %v rung %q",
						i, d.Alloc, d.Rung, inForce[i], rec.health[i])
				}
			}
		})
	}
}
