package main

import (
	"fmt"
	"time"

	"intracache/internal/cache"
	"intracache/internal/core"
	"intracache/internal/experiment"
	"intracache/internal/sim"
	"intracache/internal/trace"
	"intracache/internal/umon"
	"intracache/internal/workload"
)

// The L1, L2 and UMON are called from inside the simulator's step loop,
// where wrapping each call would cost more than the call. Their
// per-call costs are therefore measured by replay: one figures run's
// per-thread address stream is recorded once during set-up, then
// replayed through fresh components outside the simulator.

// access is one recorded memory access.
type access struct {
	thread int
	addr   uint64
	write  bool
}

// recordingSource appends every memory access its source emits.
type recordingSource struct {
	src    trace.RunSource
	thread int
	out    *[]access
}

func (r *recordingSource) Next() trace.Instr {
	in := r.src.Next()
	r.note(in)
	return in
}

func (r *recordingSource) SetPhase(ws, str float64) { r.src.SetPhase(ws, str) }

func (r *recordingSource) NextRun(max uint64) (uint64, trace.Instr) {
	n, in := r.src.NextRun(max)
	r.note(in)
	return n, in
}

func (r *recordingSource) note(in trace.Instr) {
	if in.IsMem {
		*r.out = append(*r.out, access{thread: r.thread, addr: in.Addr, write: in.Write})
	}
}

// recordStream runs cg under the model-based policy at cfg and returns
// its address stream in the order the simulator consumed it.
func recordStream(cfg experiment.Config) ([]access, error) {
	prof, err := workload.ByName("cg")
	if err != nil {
		return nil, err
	}
	var out []access
	thread := 0
	s, err := newRun(cfg, prof, core.PolicyModelBased, func(g trace.RunSource) trace.Source {
		r := &recordingSource{src: g, thread: thread, out: &out}
		thread++
		return r
	}, nil)
	if err != nil {
		return nil, err
	}
	s.RunSections(cfg.Sections)
	return out, nil
}

// replayReps is how many times each component replay runs; the median
// per-call time is reported.
const replayReps = 11

// replayMetrics replays stream through a 4-way L1 per thread, then the
// L1 misses through a 64-way partitioned L2, a 128-way partitioned L2
// (the sweep's widest point, same sets) and a stride-4 UMON.
func replayMetrics(m map[string]float64, cfg experiment.Config, stream []access) error {
	l1cfg := simParams(cfg, core.PolicyModelBased).L1
	l2cfg := simParams(cfg, core.PolicyModelBased).L2
	wide := l2cfg
	wide.Ways *= 2
	wide.SizeBytes *= 2

	var misses []access
	l1ns, err := replay(replayReps, len(stream), func() (func(), error) {
		l1 := make([]*cache.Cache, cfg.NumThreads)
		for i := range l1 {
			c, err := cache.New(l1cfg, cache.SharedLRU)
			if err != nil {
				return nil, err
			}
			l1[i] = c
		}
		record := misses == nil
		return func() {
			for _, a := range stream {
				if r := l1[a.thread].Access(0, a.addr, a.write); !r.Hit && record {
					misses = append(misses, a)
				}
			}
		}, nil
	})
	if err != nil {
		return err
	}
	l2 := func(c cache.Config) (float64, error) {
		return replay(replayReps, len(misses), func() (func(), error) {
			l2, err := cache.New(c, cache.Partitioned)
			if err != nil {
				return nil, err
			}
			return func() {
				for _, a := range misses {
					l2.Access(a.thread, a.addr, a.write)
				}
			}, nil
		})
	}
	l2ns, err := l2(l2cfg)
	if err != nil {
		return err
	}
	wideNs, err := l2(wide)
	if err != nil {
		return err
	}
	umonNs, err := replay(replayReps, len(misses), func() (func(), error) {
		mon, err := umon.New(umon.Config{Sets: l2cfg.Sets(), Ways: l2cfg.Ways, LineBytes: l2cfg.LineBytes,
			NumThreads: cfg.NumThreads, SampleStride: cfg.UMONStride})
		if err != nil {
			return nil, err
		}
		return func() {
			for _, a := range misses {
				mon.Observe(a.thread, a.addr)
			}
		}, nil
	})
	if err != nil {
		return err
	}
	m["cache.l1_ns_per_access"] = l1ns
	m["cache.l2_ns_per_access"] = l2ns
	m["cache.l2_wide_ns_per_access"] = wideNs
	m["cache.l1_replay_calls"] = float64(len(stream))
	m["cache.l2_replay_calls"] = float64(len(misses))
	m["umon.ns_per_observe"] = umonNs
	m["umon.replay_calls"] = float64(len(misses))
	return nil
}

// replay builds a fresh component reps times (untimed) and times the
// returned loop over calls calls; it returns the median ns per call.
func replay(reps, calls int, build func() (func(), error)) (float64, error) {
	if calls == 0 {
		return 0, fmt.Errorf("replay: empty stream")
	}
	var per []float64
	for i := 0; i < reps; i++ {
		loop, err := build()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		loop()
		per = append(per, float64(time.Since(t0))/float64(calls))
	}
	return median(per), nil
}

// Compile-time checks that the wrappers keep the simulator's fast path.
var (
	_ trace.RunSource    = (*timedSource)(nil)
	_ trace.RunSource    = (*recordingSource)(nil)
	_ sim.HealthReporter = (*timedController)(nil)
)
