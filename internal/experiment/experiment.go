// Package experiment wires workloads, the simulator and the partition
// policies into the paper's evaluation: single runs, policy-vs-policy
// comparisons over the nine benchmarks, and one driver per paper
// figure/table (figures.go).
package experiment

import (
	"context"
	"fmt"

	"intracache/internal/cache"
	"intracache/internal/core"
	"intracache/internal/fault"
	"intracache/internal/sim"
	"intracache/internal/stats"
	"intracache/internal/trace"
	"intracache/internal/workload"
)

// Config holds everything an experiment run needs. The defaults model
// the paper's testbed scaled down 4× in capacity (geometry ratios and
// associativity preserved) so the full figure suite runs in seconds;
// see DESIGN.md §6.
type Config struct {
	NumThreads int

	L1KB      int
	L1Ways    int
	L2KB      int
	L2Ways    int
	LineBytes int

	BaseCycles  uint64
	L2HitCycles uint64
	MemCycles   uint64

	// SectionInstructions is the per-thread length of one parallel
	// section; IntervalInstructions is the aggregate length of one
	// execution interval.
	SectionInstructions  uint64
	IntervalInstructions uint64

	// Intervals is the run length for interval-driven experiments
	// (the paper uses 50); Sections is the run length for fixed-work
	// wall-time comparisons.
	Intervals int
	Sections  int

	UMONStride int
	Seed       uint64

	// Mechanism selects the L2 partitioning geometry for partitioned
	// policies: way targets (cache.MechWays, the default and the
	// paper's Section V scheme), aligned set-index ranges
	// (cache.MechSets), or per-cluster way targets (cache.MechCluster).
	// SetGroups and Clusters override the geometry knobs (0 = the cache
	// package defaults). Policies without a partitioned L2 (shared,
	// private, tadip) ignore all three.
	Mechanism cache.Mechanism
	SetGroups int
	Clusters  int

	// Fault, when non-nil and non-zero, injects deterministic telemetry
	// faults between the simulator and the policy's controller (see
	// internal/fault). Policies without a controller (shared, private,
	// static-equal) are unaffected: they consume no telemetry.
	Fault *fault.Plan

	// ShareTraces wraps the trace generators in trace.SharedGen over a
	// process-wide 256 MiB segment cache, so runs of the same workload
	// — sweep cells over cache geometry — generate each instruction
	// stream once and replay it after that. Results and checkpoints are
	// bit-identical to bare generation (see internal/trace/shared.go),
	// so it is excluded from Fingerprint().
	ShareTraces bool
}

// DefaultConfig returns the scaled default configuration: 4 threads,
// 4 KiB 4-way private L1s, 256 KiB 64-way shared L2 (64 B lines), the
// same L1:L2 capacity ratio as the paper's 8 KiB / 1 MiB testbed.
func DefaultConfig() Config {
	return Config{
		NumThreads:           4,
		L1KB:                 4,
		L1Ways:               4,
		L2KB:                 256,
		L2Ways:               64,
		LineBytes:            64,
		BaseCycles:           1,
		L2HitCycles:          8,
		MemCycles:            100,
		SectionInstructions:  40_000,
		IntervalInstructions: 200_000,
		Intervals:            50,
		Sections:             60,
		UMONStride:           4,
		Seed:                 42,
	}
}

// QuickConfig returns a much smaller configuration for unit tests.
func QuickConfig() Config {
	c := DefaultConfig()
	c.SectionInstructions = 12_000
	c.IntervalInstructions = 80_000
	c.Intervals = 10
	c.Sections = 15
	return c
}

// WithThreads returns a copy of the config scaled to n threads, keeping
// the aggregate interval length per thread constant.
func (c Config) WithThreads(n int) Config {
	perThread := c.IntervalInstructions / uint64(c.NumThreads)
	c.IntervalInstructions = perThread * uint64(n)
	c.NumThreads = n
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.NumThreads <= 0 {
		return fmt.Errorf("experiment: NumThreads %d", c.NumThreads)
	}
	if c.Intervals <= 0 && c.Sections <= 0 {
		return fmt.Errorf("experiment: need a positive run length")
	}
	if c.Fault != nil {
		if err := c.Fault.Validate(); err != nil {
			return err
		}
	}
	return c.simParams(core.PolicyShared).Validate()
}

// wrapFault interposes the config's fault injector between the
// simulator and ctl. Controllers are the only telemetry consumers, so
// a nil ctl passes through untouched.
func (c Config) wrapFault(ctl sim.Controller) (sim.Controller, *fault.Injector, error) {
	if c.Fault == nil || c.Fault.IsZero() || ctl == nil {
		return ctl, nil, nil
	}
	inj, err := fault.NewInjector(*c.Fault, ctl)
	if err != nil {
		return nil, nil, err
	}
	return inj, inj, nil
}

// simParams builds the simulator parameters for a policy.
func (c Config) simParams(pol core.Policy) sim.Params {
	p := sim.Params{
		NumThreads: c.NumThreads,
		L1: cache.Config{
			SizeBytes: c.L1KB * 1024, Ways: c.L1Ways,
			LineBytes: c.LineBytes, NumThreads: 1,
		},
		L2: cache.Config{
			SizeBytes: c.L2KB * 1024, Ways: c.L2Ways,
			LineBytes: c.LineBytes, NumThreads: c.NumThreads,
			SetGroups: c.SetGroups, Clusters: c.Clusters,
		},
		L2Org:                core.L2OrgFor(pol),
		Mechanism:            c.Mechanism,
		BaseCycles:           c.BaseCycles,
		L2HitCycles:          c.L2HitCycles,
		MemCycles:            c.MemCycles,
		SectionInstructions:  c.SectionInstructions,
		IntervalInstructions: c.IntervalInstructions,
	}
	if pol.NeedsUMON() {
		p.UMONSampleStride = c.UMONStride
		if p.UMONSampleStride <= 0 {
			p.UMONSampleStride = 4
		}
	}
	return p
}

// Run is one completed (benchmark, policy) simulation.
type Run struct {
	Benchmark string
	Policy    core.Policy
	Result    sim.Result
	// RTS is the runtime system used, for introspection (decision log,
	// CPI models); nil for non-dynamic policies.
	RTS *core.RuntimeSystem
	// FaultStats counts the telemetry faults injected during the run;
	// nil when the run had no fault injector attached.
	FaultStats *fault.Stats
}

// noteFaults records the injector's counters into the run.
func (r *Run) noteFaults(inj *fault.Injector) {
	if inj == nil {
		return
	}
	st := inj.Stats()
	r.FaultStats = &st
}

// RunMode selects the run-length clock.
type RunMode int

const (
	// ByIntervals runs cfg.Intervals execution intervals (characterisation
	// figures: per-interval series).
	ByIntervals RunMode = iota
	// BySections runs cfg.Sections parallel sections — fixed work, the
	// right clock for wall-time comparisons between policies.
	BySections
)

// RunOne simulates one benchmark under one policy.
func RunOne(cfg Config, prof workload.Profile, pol core.Policy, mode RunMode) (Run, error) {
	return RunOneCtx(context.Background(), cfg, prof, pol, mode, nil)
}

// RunOneCtx is RunOne with cancellation and an optional per-interval
// progress hook. Cancellation is observed at interval boundaries; the
// partial Run accumulated so far is returned with ctx's error.
func RunOneCtx(ctx context.Context, cfg Config, prof workload.Profile, pol core.Policy,
	mode RunMode, hook sim.IntervalHook) (Run, error) {
	gens, err := prof.Generators(cfg.NumThreads, cfg.LineBytes, cfg.Seed)
	if err != nil {
		return Run{}, err
	}
	ctl, rts, err := core.ControllerFor(pol)
	if err != nil {
		return Run{}, err
	}
	ctl, inj, err := cfg.wrapFault(ctl)
	if err != nil {
		return Run{}, err
	}
	srcs, closeSrcs := cfg.sources(gens)
	defer closeSrcs()
	s, err := sim.New(cfg.simParams(pol), srcs, ctl, prof.PhaseFunc(cfg.NumThreads))
	if err != nil {
		return Run{}, err
	}
	var res sim.Result
	if mode == BySections {
		res, err = s.RunSectionsContext(ctx, cfg.Sections, hook)
	} else {
		res, err = s.RunIntervalsContext(ctx, cfg.Intervals, hook)
	}
	run := Run{Benchmark: prof.Name, Policy: pol, Result: res, RTS: rts}
	run.noteFaults(inj)
	return run, err
}

// RunSources simulates arbitrary instruction sources (e.g. trace
// replayers) under a policy. No phase function is applied: recorded
// traces carry their phases inside the stream.
func RunSources(cfg Config, name string, sources []trace.Source, pol core.Policy, mode RunMode) (Run, error) {
	ctl, rts, err := core.ControllerFor(pol)
	if err != nil {
		return Run{}, err
	}
	ctl, inj, err := cfg.wrapFault(ctl)
	if err != nil {
		return Run{}, err
	}
	s, err := sim.New(cfg.simParams(pol), sources, ctl, nil)
	if err != nil {
		return Run{}, err
	}
	var res sim.Result
	if mode == BySections {
		res = s.RunSections(cfg.Sections)
	} else {
		res = s.RunIntervals(cfg.Intervals)
	}
	run := Run{Benchmark: name, Policy: pol, Result: res, RTS: rts}
	run.noteFaults(inj)
	return run, nil
}

// RunWithEngine runs a benchmark on a partitioned L2 driven by the
// given partition engine, bypassing the policy table. This is the hook
// the ablation benchmarks use to vary engine internals (spline kind,
// bootstrap length, movement caps) that the stock policies fix.
func RunWithEngine(cfg Config, prof workload.Profile, eng core.Engine, mode RunMode) (Run, error) {
	gens, err := prof.Generators(cfg.NumThreads, cfg.LineBytes, cfg.Seed)
	if err != nil {
		return Run{}, err
	}
	rts, err := core.NewRuntimeSystem(eng)
	if err != nil {
		return Run{}, err
	}
	ctl, inj, err := cfg.wrapFault(sim.Controller(rts))
	if err != nil {
		return Run{}, err
	}
	p := cfg.simParams(core.PolicyModelBased) // partitioned L2, no UMON
	srcs, closeSrcs := cfg.sources(gens)
	defer closeSrcs()
	s, err := sim.New(p, srcs, ctl, prof.PhaseFunc(cfg.NumThreads))
	if err != nil {
		return Run{}, err
	}
	var res sim.Result
	if mode == BySections {
		res = s.RunSections(cfg.Sections)
	} else {
		res = s.RunIntervals(cfg.Intervals)
	}
	run := Run{Benchmark: prof.Name, Policy: core.PolicyModelBased, Result: res, RTS: rts}
	run.noteFaults(inj)
	return run, nil
}

// RunWithMigration runs a benchmark under a policy and, at the end of
// interval swapAt, migrates threads i and j between their cores (the
// paper's Sec. VII unpinned-thread scenario). The run always uses the
// interval clock and executes cfg.Intervals intervals in total.
func RunWithMigration(cfg Config, prof workload.Profile, pol core.Policy, swapAt, i, j int) (Run, error) {
	if swapAt < 0 || swapAt >= cfg.Intervals {
		return Run{}, fmt.Errorf("experiment: swapAt %d outside [0,%d)", swapAt, cfg.Intervals)
	}
	gens, err := prof.Generators(cfg.NumThreads, cfg.LineBytes, cfg.Seed)
	if err != nil {
		return Run{}, err
	}
	ctl, rts, err := core.ControllerFor(pol)
	if err != nil {
		return Run{}, err
	}
	ctl, inj, err := cfg.wrapFault(ctl)
	if err != nil {
		return Run{}, err
	}
	srcs, closeSrcs := cfg.sources(gens)
	defer closeSrcs()
	s, err := sim.New(cfg.simParams(pol), srcs, ctl, prof.PhaseFunc(cfg.NumThreads))
	if err != nil {
		return Run{}, err
	}
	s.RunIntervals(swapAt + 1)
	if err := s.SwapThreads(i, j); err != nil {
		return Run{}, err
	}
	res := s.RunIntervals(cfg.Intervals)
	run := Run{Benchmark: prof.Name, Policy: pol, Result: res, RTS: rts}
	run.noteFaults(inj)
	return run, nil
}

// RunOneByName is RunOne with a benchmark name lookup.
func RunOneByName(cfg Config, benchmark string, pol core.Policy, mode RunMode) (Run, error) {
	prof, err := workload.ByName(benchmark)
	if err != nil {
		return Run{}, err
	}
	return RunOne(cfg, prof, pol, mode)
}

// Comparison is one benchmark's baseline-vs-candidate outcome.
type Comparison struct {
	Benchmark       string
	BaselineCycles  uint64
	CandidateCycles uint64
	// ImprovementPct is the execution-time improvement of the candidate
	// over the baseline, in percent (positive = candidate faster).
	ImprovementPct float64
}

// Compare runs one benchmark under both policies for the same fixed
// work and reports the candidate's improvement.
func Compare(cfg Config, prof workload.Profile, baseline, candidate core.Policy) (Comparison, error) {
	return CompareCtx(context.Background(), cfg, prof, baseline, candidate, nil)
}

// CompareCtx is Compare with cancellation and an optional per-interval
// progress hook (shared by both runs).
func CompareCtx(ctx context.Context, cfg Config, prof workload.Profile,
	baseline, candidate core.Policy, hook sim.IntervalHook) (Comparison, error) {
	base, err := RunOneCtx(ctx, cfg, prof, baseline, BySections, hook)
	if err != nil {
		return Comparison{}, err
	}
	cand, err := RunOneCtx(ctx, cfg, prof, candidate, BySections, hook)
	if err != nil {
		return Comparison{}, err
	}
	return newComparison(prof.Name, base.Result.WallCycles, cand.Result.WallCycles), nil
}

func newComparison(benchmark string, baseCycles, candCycles uint64) Comparison {
	return Comparison{
		Benchmark:       benchmark,
		BaselineCycles:  baseCycles,
		CandidateCycles: candCycles,
		ImprovementPct:  100 * stats.Improvement(float64(baseCycles), float64(candCycles)),
	}
}

// CompareAll runs Compare over all nine benchmarks. The 18 runs are
// independent, so they are spread over GOMAXPROCS workers; the result
// is identical to calling Compare on each benchmark in turn.
func CompareAll(cfg Config, baseline, candidate core.Policy) ([]Comparison, error) {
	cs, err := compareMany(cfg, []core.Policy{baseline}, candidate)
	if err != nil {
		return nil, err
	}
	return cs[0], nil
}

// compareMany compares candidate against every baseline on all nine
// benchmarks and returns one []Comparison per baseline. The candidate
// runs once per benchmark however many baselines share it. Every
// (benchmark, policy) run is one index of a GOMAXPROCS worker pool and
// results are collected by index, so the output does not depend on
// scheduling. An error names the first failing benchmark in profile
// order.
func compareMany(cfg Config, baselines []core.Policy, candidate core.Policy) ([][]Comparison, error) {
	profiles := workload.Profiles()
	// Per benchmark: the baselines in order, then the candidate.
	policies := append(append([]core.Policy(nil), baselines...), candidate)
	np := len(policies)
	cycles := make([]uint64, len(profiles)*np)
	errs := forEachIndex(len(cycles), 0, func(k int) error {
		r, err := RunOne(cfg, profiles[k/np], policies[k%np], BySections)
		cycles[k] = r.Result.WallCycles
		return err
	})
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", profiles[k/np].Name, err)
		}
	}
	out := make([][]Comparison, len(baselines))
	for b := range baselines {
		out[b] = make([]Comparison, len(profiles))
		for i, prof := range profiles {
			out[b][i] = newComparison(prof.Name, cycles[i*np+b], cycles[i*np+np-1])
		}
	}
	return out, nil
}

// MeanImprovement averages the improvement across comparisons.
func MeanImprovement(cs []Comparison) float64 {
	if len(cs) == 0 {
		return 0
	}
	vals := make([]float64, len(cs))
	for i, c := range cs {
		vals[i] = c.ImprovementPct
	}
	return stats.Mean(vals)
}

// MaxImprovement returns the largest improvement across comparisons.
func MaxImprovement(cs []Comparison) float64 {
	best := 0.0
	for i, c := range cs {
		if i == 0 || c.ImprovementPct > best {
			best = c.ImprovementPct
		}
	}
	return best
}
