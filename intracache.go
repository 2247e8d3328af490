// Package intracache is a library reproduction of "Intra-Application
// Cache Partitioning" (Muralidhara, Kandemir, Raghavan — IPDPS 2010):
// a runtime system that dynamically partitions a shared last-level
// cache among the threads of a single multithreaded application so the
// critical path thread — the slowest thread of each barrier-delimited
// parallel section — is sped up at every execution interval.
//
// The package is a facade over the repository's internal packages:
//
//   - a trace-driven CMP simulator (cores, private L1s, shared
//     way-partitioned L2, barriers, execution intervals);
//   - the paper's partitioning schemes (CPI-proportional and
//     spline-model-based) plus the baselines it is evaluated against
//     (shared, private, static-equal, throughput-oriented UCP);
//   - nine synthetic NAS/SPEC-OMP-like benchmark profiles;
//   - the evaluation harness that reproduces every figure and table in
//     the paper (see cmd/figures and EXPERIMENTS.md).
//
// Quick start:
//
//	cfg := intracache.DefaultConfig()
//	run, err := intracache.Simulate(cfg, "cg", intracache.PolicyModelBased, intracache.ByIntervals)
//	if err != nil { ... }
//	fmt.Println(run.Result.AppCPI())
//
// Compare the dynamic scheme against a baseline on fixed work:
//
//	c, err := intracache.CompareOn(cfg, "cg", intracache.PolicyShared, intracache.PolicyModelBased)
//	fmt.Printf("%.1f%% faster than a shared cache\n", c.ImprovementPct)
package intracache

import (
	"context"

	"intracache/internal/core"
	"intracache/internal/experiment"
	"intracache/internal/fault"
	"intracache/internal/sim"
	"intracache/internal/workload"
)

// Policy identifies a cache-management scheme. See the Policy*
// constants.
type Policy = core.Policy

// The available policies. PolicyModelBased is the paper's headline
// contribution; the others are its baselines.
const (
	// PolicyShared is an unpartitioned shared cache with global LRU.
	PolicyShared = core.PolicyShared
	// PolicyPrivate splits the cache into equal private per-core caches.
	PolicyPrivate = core.PolicyPrivate
	// PolicyStaticEqual is a partitioned shared cache with a fixed
	// equal way split (cross-partition hits allowed).
	PolicyStaticEqual = core.PolicyStaticEqual
	// PolicyCPIProportional assigns ways proportional to thread CPIs
	// (paper Sec. VI-A).
	PolicyCPIProportional = core.PolicyCPIProportional
	// PolicyModelBased fits per-thread CPI-vs-ways spline models and
	// moves ways to the critical path thread (paper Sec. VI-B).
	PolicyModelBased = core.PolicyModelBased
	// PolicyThroughputUCP maximises total hits with a UCP-style greedy
	// allocator (the paper's throughput-oriented comparison).
	PolicyThroughputUCP = core.PolicyThroughputUCP
)

// Policies returns every policy in presentation order.
func Policies() []Policy { return core.AllPolicies() }

// ParsePolicy resolves a short policy name ("model-based", "shared",
// ...) to a Policy.
func ParsePolicy(name string) (Policy, error) { return core.ParsePolicy(name) }

// Config holds a complete experiment configuration: machine geometry,
// timing, workload run lengths and the random seed.
type Config = experiment.Config

// DefaultConfig returns the scaled default configuration (4 threads,
// 4 KiB L1s, 256 KiB 64-way shared L2 — the paper's testbed at 1/4
// capacity with geometry ratios preserved).
func DefaultConfig() Config { return experiment.DefaultConfig() }

// RunMode selects the run-length clock.
type RunMode = experiment.RunMode

const (
	// ByIntervals runs Config.Intervals execution intervals.
	ByIntervals = experiment.ByIntervals
	// BySections runs Config.Sections parallel sections (fixed work;
	// use for policy-vs-policy wall-time comparisons).
	BySections = experiment.BySections
)

// Run is one completed (benchmark, policy) simulation, including the
// full per-interval counter history and — for dynamic policies — the
// runtime system with its engine and CPI models.
type Run = experiment.Run

// Result is a completed simulation's summary (wall cycles, per-thread
// counters, interval history).
type Result = sim.Result

// IntervalStats is one execution interval's per-thread counters.
type IntervalStats = sim.IntervalStats

// Comparison is one benchmark's baseline-vs-candidate outcome.
type Comparison = experiment.Comparison

// Profile is one synthetic benchmark workload. Construct custom
// profiles to model your own application's threads; the fields mirror
// per-thread cache behaviour (working set, reuse skew, streaming share,
// shared-data share, phase schedule).
type Profile = workload.Profile

// PhaseSpec describes a Profile's phase schedule.
type PhaseSpec = workload.PhaseSpec

// Phase schedule kinds for PhaseSpec.
const (
	// PhaseConstant applies no phase modulation.
	PhaseConstant = workload.PhaseConstant
	// PhaseSine modulates working sets sinusoidally across intervals.
	PhaseSine = workload.PhaseSine
	// PhaseStep rescales working sets once at a given interval.
	PhaseStep = workload.PhaseStep
)

// Benchmarks returns the names of the nine built-in benchmark profiles.
func Benchmarks() []string { return workload.Names() }

// Profiles returns the nine built-in benchmark profiles.
func Profiles() []Profile { return workload.Profiles() }

// ProfileByName returns the named built-in profile.
func ProfileByName(name string) (Profile, error) { return workload.ByName(name) }

// Simulate runs one built-in benchmark under one policy.
func Simulate(cfg Config, benchmark string, pol Policy, mode RunMode) (Run, error) {
	return experiment.RunOneByName(cfg, benchmark, pol, mode)
}

// CheckpointSpec configures crash-safe snapshotting of a simulation:
// where the checkpoint file lives, how often to snapshot, and whether
// to resume from an existing file.
type CheckpointSpec = experiment.CheckpointSpec

// SimulateCheckpointed is Simulate made crash-safe. The run observes
// ctx at execution-interval boundaries, snapshots its complete state to
// spec.Path (atomically) every spec.Every intervals and when stopping,
// and — with spec.Resume — continues a previous run from its last
// snapshot. A run killed at any interval boundary and resumed this way
// produces a bit-identical Result to an uninterrupted run.
func SimulateCheckpointed(ctx context.Context, cfg Config, benchmark string, pol Policy,
	mode RunMode, spec CheckpointSpec) (Run, error) {
	return experiment.CheckpointedRun(ctx, cfg, benchmark, pol, mode, spec, nil)
}

// SimulateProfile runs a custom workload profile under one policy.
func SimulateProfile(cfg Config, prof Profile, pol Policy, mode RunMode) (Run, error) {
	return experiment.RunOne(cfg, prof, pol, mode)
}

// CompareOn runs one benchmark under a baseline and a candidate policy
// for the same fixed work and reports the candidate's improvement.
func CompareOn(cfg Config, benchmark string, baseline, candidate Policy) (Comparison, error) {
	prof, err := workload.ByName(benchmark)
	if err != nil {
		return Comparison{}, err
	}
	return experiment.Compare(cfg, prof, baseline, candidate)
}

// CompareProfile is CompareOn for a custom workload profile.
func CompareProfile(cfg Config, prof Profile, baseline, candidate Policy) (Comparison, error) {
	return experiment.Compare(cfg, prof, baseline, candidate)
}

// CompareAll runs baseline vs candidate over all nine built-in
// benchmarks (the shape of the paper's Figs. 19-21).
func CompareAll(cfg Config, baseline, candidate Policy) ([]Comparison, error) {
	return experiment.CompareAll(cfg, baseline, candidate)
}

// MeanImprovement averages ImprovementPct across comparisons.
func MeanImprovement(cs []Comparison) float64 { return experiment.MeanImprovement(cs) }

// MaxImprovement returns the largest ImprovementPct across comparisons.
func MaxImprovement(cs []Comparison) float64 { return experiment.MaxImprovement(cs) }

// FaultPlan configures deterministic fault injection on the telemetry
// path between the simulator and the partitioning runtime: CPI counter
// noise, dropped sampling intervals, stuck counters, delayed
// repartition decisions, transient apparent stalls. Set Config.Fault to
// a non-zero plan to run any simulation under degraded telemetry;
// ground truth is never perturbed. The zero plan injects nothing.
type FaultPlan = fault.Plan

// FaultStats counts the faults injected during one run (available as
// Run.FaultStats when a plan was active).
type FaultStats = fault.Stats

// FaultLevel is one named fault intensity of a robustness sweep.
type FaultLevel = experiment.FaultLevel

// RobustnessCell is one (benchmark, policy, fault level) outcome of a
// robustness sweep.
type RobustnessCell = experiment.RobustnessCell

// DefaultFaultLevels returns the canonical fault-intensity ladder:
// clean, moderate, heavy, catastrophic.
func DefaultFaultLevels() []FaultLevel { return experiment.DefaultFaultLevels() }

// RobustnessSweep measures every (benchmark, policy, fault level) cell
// against a clean shared-cache baseline on the worker pool. nil
// arguments select all nine benchmarks, the {static-equal,
// cpi-proportional, model-based} policy set, and DefaultFaultLevels().
// Failing cells carry per-cell errors; the returned error is non-nil
// only when every cell failed.
func RobustnessSweep(cfg Config, benchmarks []string, policies []Policy,
	levels []FaultLevel, workers int) ([]RobustnessCell, error) {
	return experiment.RobustnessSweepJournaled(context.Background(), cfg, benchmarks, policies, levels,
		experiment.SweepOptions{Workers: workers})
}

// SimulateWithMigration runs a benchmark under a policy and, at the end
// of interval swapAt, migrates threads i and j between their cores —
// the paper's Sec. VII unpinned-thread scenario. The partitioner's
// allocation should follow the migrated workload within a few
// intervals.
func SimulateWithMigration(cfg Config, benchmark string, pol Policy, swapAt, i, j int) (Run, error) {
	prof, err := workload.ByName(benchmark)
	if err != nil {
		return Run{}, err
	}
	return experiment.RunWithMigration(cfg, prof, pol, swapAt, i, j)
}
