package experiment

import (
	"context"
	"fmt"

	"intracache/internal/core"
	"intracache/internal/hierarchy"
	"intracache/internal/sim"
	"intracache/internal/trace"
	"intracache/internal/workload"
	"intracache/internal/xrand"
)

// This file runs the paper's Section VI-C scenario: several
// applications co-scheduled on one CMP, with an OS-level allocator
// partitioning the L2 between applications and a per-application
// runtime system partitioning within each share (internal/hierarchy).

// MultiAppRun is one completed multi-application simulation.
type MultiAppRun struct {
	Apps       []string
	ThreadsPer []int
	Result     sim.Result
	// Controller is the hierarchical controller (nil for baseline runs
	// without hierarchical partitioning).
	Controller *hierarchy.Controller
}

// AppWallCycles returns each application's completion time. All
// applications share the global barrier in this model (they run the
// same number of sections), so per-application time is the wall clock;
// the useful per-application signal is the aggregate active CPI.
func (m MultiAppRun) AppCPIs() []float64 {
	out := make([]float64, len(m.ThreadsPer))
	base := 0
	for a, t := range m.ThreadsPer {
		var instr, cycles uint64
		for th := base; th < base+t; th++ {
			instr += m.Result.ThreadInstr[th]
			cycles += m.Result.ThreadCycles[th] - m.Result.ThreadStall[th]
		}
		if instr > 0 {
			out[a] = float64(cycles) / float64(instr)
		}
		base += t
	}
	return out
}

// multiAppGenerators instantiates every application's thread
// generators, with each application's address space shifted into its
// own region so applications never share data (the paper's
// inter-application case: "there is rarely any inter-thread data
// sharing" across applications).
func multiAppGenerators(cfg Config, profs []workload.Profile, threadsPer []int) ([]*trace.ThreadGen, error) {
	if len(profs) == 0 || len(profs) != len(threadsPer) {
		return nil, fmt.Errorf("experiment: %d profiles for %d thread counts", len(profs), len(threadsPer))
	}
	var gens []*trace.ThreadGen
	for a, prof := range profs {
		specs, err := prof.ThreadSpecs(threadsPer[a], cfg.LineBytes)
		if err != nil {
			return nil, fmt.Errorf("experiment: app %d (%s): %w", a, prof.Name, err)
		}
		offset := uint64(a+1) << 50
		root := xrand.New(cfg.Seed ^ (uint64(a+1) * 0x9e3779b97f4a7c15))
		for i, spec := range specs {
			spec.PrivateBase += offset
			spec.StreamBase += offset
			spec.SharedBase += offset
			g, err := trace.NewThread(spec, root.Split())
			if err != nil {
				return nil, fmt.Errorf("experiment: app %d thread %d: %w", a, i, err)
			}
			gens = append(gens, g)
		}
	}
	return gens, nil
}

// multiAppPhase dispatches the global thread index to the owning
// application's phase schedule.
func multiAppPhase(profs []workload.Profile, threadsPer []int) sim.PhaseFunc {
	funcs := make([]sim.PhaseFunc, len(profs))
	for a, p := range profs {
		funcs[a] = p.PhaseFunc(threadsPer[a])
	}
	return func(thread, interval int) (float64, float64) {
		base := 0
		for a, t := range threadsPer {
			if thread < base+t {
				return funcs[a](thread-base, interval)
			}
			base += t
		}
		return 1, 1
	}
}

// runMultiApp runs the co-schedule under pol's L2 organization with
// ctl, on cfg scaled to the total thread count.
func runMultiApp(cfg Config, profs []workload.Profile, threadsPer []int,
	pol core.Policy, ctl sim.Controller, mode RunMode) (MultiAppRun, error) {

	total := 0
	for _, t := range threadsPer {
		total += t
	}
	cfg = cfg.WithThreads(total)
	r, err := cfg.newRun(mode, pol, ctl, workloadInput{threads: func() ([]*trace.ThreadGen, sim.PhaseFunc, error) {
		gens, err := multiAppGenerators(cfg, profs, threadsPer)
		if err != nil {
			return nil, nil, err
		}
		return gens, multiAppPhase(profs, threadsPer), nil
	}})
	if err != nil {
		return MultiAppRun{}, err
	}
	defer r.close()
	res, err := r.run(context.Background(), nil)
	names := make([]string, len(profs))
	for i, p := range profs {
		names[i] = p.Name
	}
	return MultiAppRun{Apps: names, ThreadsPer: threadsPer, Result: res}, err
}

// RunMultiApp simulates the given applications co-scheduled on one CMP
// under the hierarchical two-level partitioner: osAlloc splits the L2
// between applications; engineFor builds each application's partition
// engine (e.g. core.NewModelEngine). cfg.NumThreads is overridden by
// the total thread count.
func RunMultiApp(cfg Config, profs []workload.Profile, threadsPer []int,
	osAlloc hierarchy.OSAllocator, engineFor func(app int) core.Engine, mode RunMode) (MultiAppRun, error) {

	engines := make([]core.Engine, len(profs))
	for a := range engines {
		engines[a] = engineFor(a)
	}
	ctl, err := hierarchy.NewController(osAlloc, engines, threadsPer)
	if err != nil {
		return MultiAppRun{}, err
	}
	run, err := runMultiApp(cfg, profs, threadsPer, core.PolicyModelBased, ctl, mode)
	run.Controller = ctl
	return run, err
}

// RunMultiAppBaseline simulates the same co-schedule on an unmanaged
// L2: either fully shared LRU (pol = PolicyShared) or statically
// equally partitioned per thread (pol = PolicyStaticEqual).
func RunMultiAppBaseline(cfg Config, profs []workload.Profile, threadsPer []int,
	pol core.Policy, mode RunMode) (MultiAppRun, error) {

	ctl, _, err := core.ControllerFor(pol)
	if err != nil {
		return MultiAppRun{}, err
	}
	return runMultiApp(cfg, profs, threadsPer, pol, ctl, mode)
}
