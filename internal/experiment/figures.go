package experiment

import (
	"context"
	"fmt"

	"intracache/internal/core"
	"intracache/internal/sim"
	"intracache/internal/spline"
	"intracache/internal/stats"
	"intracache/internal/workload"
)

// This file contains one driver per paper figure/table. Each driver
// returns plain data; rendering lives in internal/report and
// cmd/figures. The experiment ids follow the paper's numbering; see
// DESIGN.md §4 for the index.

// ThreadSeries is a per-benchmark, per-thread scalar (Figs. 3, 4).
type ThreadSeries struct {
	Benchmark string
	Values    []float64 // one per thread
}

// characterise runs every benchmark on the shared (unpartitioned)
// cache for cfg.Intervals intervals and returns the runs, which the
// Fig. 3/4/5/8/9 drivers mine. The shared cache is the right substrate
// for characterisation: it is what the paper measures before proposing
// partitioning. The nine runs are independent and fan out over
// GOMAXPROCS workers, collected by index.
func characterise(cfg Config) ([]Run, error) {
	profiles := workload.Profiles()
	runs := make([]Run, len(profiles))
	errs := forEachIndex(len(profiles), 0, func(i int) error {
		var err error
		runs[i], err = RunOne(cfg, profiles[i], core.PolicyShared, ByIntervals)
		return err
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("characterise %s: %w", profiles[i].Name, err)
		}
	}
	return runs, nil
}

// Fig3ThreadPerformance reproduces Fig. 3: per-thread performance
// (inverse of active execution time) over the whole run, normalised to
// the fastest thread of each benchmark.
func Fig3ThreadPerformance(cfg Config) ([]ThreadSeries, error) {
	runs, err := characterise(cfg)
	if err != nil {
		return nil, err
	}
	return threadPerformanceFromRuns(runs), nil
}

func threadPerformanceFromRuns(runs []Run) []ThreadSeries {
	out := make([]ThreadSeries, 0, len(runs))
	for _, r := range runs {
		n := len(r.Result.ThreadInstr)
		perf := make([]float64, n)
		for t := 0; t < n; t++ {
			active := float64(r.Result.ThreadCycles[t] - r.Result.ThreadStall[t])
			if active > 0 {
				perf[t] = float64(r.Result.ThreadInstr[t]) / active // IPC = 1/CPI
			}
		}
		out = append(out, ThreadSeries{Benchmark: r.Benchmark, Values: stats.NormalizeToMax(perf)})
	}
	return out
}

// Fig4ThreadMisses reproduces Fig. 4: per-thread L2 miss counts,
// normalised to the worst thread of each benchmark.
func Fig4ThreadMisses(cfg Config) ([]ThreadSeries, error) {
	runs, err := characterise(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]ThreadSeries, 0, len(runs))
	for _, r := range runs {
		misses := make([]float64, len(r.Result.L2Stats.Threads))
		for t, ts := range r.Result.L2Stats.Threads {
			misses[t] = float64(ts.Misses)
		}
		out = append(out, ThreadSeries{Benchmark: r.Benchmark, Values: stats.NormalizeToMax(misses)})
	}
	return out, nil
}

// Correlation is one benchmark's CPI↔miss Pearson coefficient (Fig. 5).
type Correlation struct {
	Benchmark string
	R         float64
}

// Fig5Correlation reproduces Fig. 5: for each benchmark, the Pearson
// correlation between per-interval per-thread CPI and L2 miss count,
// pooled over all threads and intervals. The paper reports an average
// of ≈0.97.
func Fig5Correlation(cfg Config) ([]Correlation, float64, error) {
	runs, err := characterise(cfg)
	if err != nil {
		return nil, 0, err
	}
	out := make([]Correlation, 0, len(runs))
	var rs []float64
	for _, r := range runs {
		var cpis, misses []float64
		for _, iv := range r.Result.Intervals {
			for _, ts := range iv.Threads {
				if ts.Instructions == 0 {
					continue
				}
				cpis = append(cpis, ts.CPI())
				// Misses per instruction, so faster threads' higher raw
				// counts per interval do not mask the relation.
				misses = append(misses, float64(ts.L2Misses)/float64(ts.Instructions))
			}
		}
		corr, err := stats.Pearson(cpis, misses)
		if err != nil {
			return nil, 0, fmt.Errorf("fig5 %s: %w", r.Benchmark, err)
		}
		out = append(out, Correlation{Benchmark: r.Benchmark, R: corr})
		rs = append(rs, corr)
	}
	return out, stats.Mean(rs), nil
}

// IntervalSeries is a per-interval series for one benchmark (Figs. 6, 7).
type IntervalSeries struct {
	Benchmark string
	// Threads[t][i] is thread t's value in interval i.
	Threads [][]float64
}

// Fig6SwimPhases reproduces Fig. 6: per-thread performance (1/CPI) of
// swim across cfg.Intervals contiguous intervals, showing phase
// behaviour.
func Fig6SwimPhases(cfg Config) (IntervalSeries, error) {
	r, err := RunOneByName(cfg, "swim", core.PolicyShared, ByIntervals)
	if err != nil {
		return IntervalSeries{}, err
	}
	out := IntervalSeries{Benchmark: "swim", Threads: make([][]float64, cfg.NumThreads)}
	for t := range out.Threads {
		out.Threads[t] = make([]float64, len(r.Result.Intervals))
	}
	for i, iv := range r.Result.Intervals {
		for t, ts := range iv.Threads {
			if c := ts.CPI(); c > 0 {
				out.Threads[t][i] = 1 / c
			}
		}
	}
	return out, nil
}

// Fig7SwimMisses reproduces Fig. 7: L2 misses of one swim thread across
// the same intervals as Fig. 6. The paper plots the thread whose CPI
// varies most (its "thread 2"); we return every thread and the index of
// the most-variable one so callers can single it out.
func Fig7SwimMisses(cfg Config) (IntervalSeries, int, error) {
	r, err := RunOneByName(cfg, "swim", core.PolicyShared, ByIntervals)
	if err != nil {
		return IntervalSeries{}, 0, err
	}
	out := IntervalSeries{Benchmark: "swim", Threads: make([][]float64, cfg.NumThreads)}
	for t := range out.Threads {
		out.Threads[t] = make([]float64, len(r.Result.Intervals))
	}
	for i, iv := range r.Result.Intervals {
		for t, ts := range iv.Threads {
			out.Threads[t][i] = float64(ts.L2Misses)
		}
	}
	// Most-variable thread by variance of its miss series.
	best, bestVar := 0, -1.0
	for t, series := range out.Threads {
		if v := stats.Variance(series); v > bestVar {
			best, bestVar = t, v
		}
	}
	return out, best, nil
}

// InteractionStat is one benchmark's inter-thread interaction summary
// (Figs. 8, 9).
type InteractionStat struct {
	Benchmark string
	// InterThreadPct is the percentage of all L2 accesses that are
	// inter-thread interactions (Fig. 8).
	InterThreadPct float64
	// ConstructivePct is the constructive share of those interactions;
	// the destructive share is its complement (Fig. 9).
	ConstructivePct float64
}

// Fig8And9Interaction reproduces Figs. 8 and 9 from one characterisation
// sweep. The second return is the across-benchmark mean inter-thread
// percentage (the paper reports ≈11.5%).
func Fig8And9Interaction(cfg Config) ([]InteractionStat, float64, error) {
	runs, err := characterise(cfg)
	if err != nil {
		return nil, 0, err
	}
	out := make([]InteractionStat, 0, len(runs))
	var pcts []float64
	for _, r := range runs {
		st := r.Result.L2Stats
		is := InteractionStat{
			Benchmark:       r.Benchmark,
			InterThreadPct:  100 * st.InterThreadInteractionFraction(),
			ConstructivePct: 100 * st.ConstructiveFraction(),
		}
		out = append(out, is)
		pcts = append(pcts, is.InterThreadPct)
	}
	return out, stats.Mean(pcts), nil
}

// WaySensitivity is one thread's CPI at two cache sizes (Fig. 10).
type WaySensitivity struct {
	Thread    int
	CPI16Ways float64
	CPI32Ways float64
	DropPct   float64 // CPI reduction going 16 -> 32 ways, percent
}

// Fig10WaySensitivity reproduces Fig. 10: each swim thread's CPI when
// it is allocated 16 versus 32 ways of the shared cache. The paper
// grows the whole cache; in a 4-thread shared run that confounds a
// thread's own capacity sensitivity with reduced contention from its
// siblings, so this driver isolates the per-thread curve with *static
// partitions*: a baseline run gives every thread an equal 16 ways, and
// one extra run per thread doubles only that thread's allocation (the
// remainder split among the others). The measured thread's CPI change
// is then purely its own way sensitivity — exactly the quantity the
// model-based engine learns.
func Fig10WaySensitivity(cfg Config) ([]WaySensitivity, error) {
	if cfg.L2Ways < 2*cfg.NumThreads*2 {
		return nil, fmt.Errorf("fig10: need at least %d ways", 2*cfg.NumThreads*2)
	}
	prof, err := workload.ByName("swim")
	if err != nil {
		return nil, err
	}
	threadCPI := func(r Run, t int) float64 {
		active := float64(r.Result.ThreadCycles[t] - r.Result.ThreadStall[t])
		if r.Result.ThreadInstr[t] == 0 {
			return 0
		}
		return active / float64(r.Result.ThreadInstr[t])
	}
	runWith := func(targets []int) (Run, error) {
		r, err := cfg.newRun(ByIntervals, core.PolicyStaticEqual, &fixedTargets{targets: targets}, cfg.profileInput(prof))
		if err != nil {
			return Run{}, err
		}
		res, err := r.run(context.Background(), nil)
		return Run{Benchmark: prof.Name, Result: res}, err
	}

	n := cfg.NumThreads
	// assignments[0] is the equal-16 baseline; assignments[1+t] doubles
	// thread t to 32 ways.
	assignments := make([][]int, 1+n)
	equal := make([]int, n)
	for i := range equal {
		equal[i] = 16
	}
	// Pad any leftover ways onto the last thread so targets sum to Ways.
	equal[n-1] += cfg.L2Ways - 16*n
	assignments[0] = equal
	for t := 0; t < n; t++ {
		targets := make([]int, n)
		rest := cfg.L2Ways - 32
		for i := range targets {
			if i == t {
				targets[i] = 32
				continue
			}
			targets[i] = rest / (n - 1)
		}
		// Distribute the remainder.
		sum := 0
		for _, w := range targets {
			sum += w
		}
		for i := 0; sum < cfg.L2Ways; i = (i + 1) % n {
			if i != t {
				targets[i]++
				sum++
			}
		}
		assignments[1+t] = targets
	}

	// The 1 + n static-partition runs are independent: fan them out and
	// collect by index.
	runs := make([]Run, len(assignments))
	errs := forEachIndex(len(assignments), 0, func(i int) error {
		var err error
		runs[i], err = runWith(assignments[i])
		return err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	out := make([]WaySensitivity, n)
	for t := 0; t < n; t++ {
		ws := WaySensitivity{Thread: t, CPI16Ways: threadCPI(runs[0], t), CPI32Ways: threadCPI(runs[1+t], t)}
		if ws.CPI16Ways > 0 {
			ws.DropPct = 100 * (ws.CPI16Ways - ws.CPI32Ways) / ws.CPI16Ways
		}
		out[t] = ws
	}
	return out, nil
}

// fixedTargets is a Controller that installs one assignment at the
// first interval and never changes it.
type fixedTargets struct {
	targets []int
	done    bool
}

func (f *fixedTargets) OnInterval(sim.IntervalStats, sim.Monitors) []int {
	if f.done {
		return nil
	}
	f.done = true
	return f.targets
}

// ModelCurve is one thread's fitted CPI-vs-ways model (Fig. 15).
type ModelCurve struct {
	Thread int
	// Ways/CPIs are the raw observed data points.
	Ways []int
	CPIs []float64
	// Curve[w] is the spline prediction at w+1 ways.
	Curve []float64
}

// Fig15Models reproduces Fig. 15: run a benchmark under the model-based
// scheme, then dump each thread's fitted CPI model and the partition
// the engine chose. The paper's sample uses a 32-way cache; any
// configured way count works. The run is capped at 12 intervals: the
// models are most informative during the exploration phase, before the
// engine converges and point aging trims the history to the
// steady-state neighbourhood.
func Fig15Models(cfg Config, benchmark string) ([]ModelCurve, []int, error) {
	if cfg.Intervals > 12 {
		cfg.Intervals = 12
	}
	r, err := RunOneByName(cfg, benchmark, core.PolicyModelBased, ByIntervals)
	if err != nil {
		return nil, nil, err
	}
	var eng *core.ModelEngine
	switch en := r.RTS.Engine().(type) {
	case *core.ModelEngine:
		eng = en
	case *core.ResilientEngine:
		eng = en.Model
	default:
		return nil, nil, fmt.Errorf("fig15: unexpected engine %T", r.RTS.Engine())
	}
	models := eng.Models()
	out := make([]ModelCurve, len(models))
	for t, m := range models {
		ways, cpis := m.Points()
		mc := ModelCurve{Thread: t, Ways: ways, CPIs: cpis, Curve: make([]float64, cfg.L2Ways)}
		if fit := m.Fit(spline.NaturalCubic); fit != nil {
			for w := 1; w <= cfg.L2Ways; w++ {
				mc.Curve[w-1] = fit.Eval(float64(w))
			}
		}
		out[t] = mc
	}
	return out, r.Result.FinalTargets, nil
}

// SnapshotRow is one interval of the Fig. 18 table.
type SnapshotRow struct {
	Interval   int
	Ways       []int
	OverallCPI float64
}

// Fig18Snapshot reproduces the Fig. 18 table: the way assignment and
// overall CPI across the first n consecutive intervals of NAS CG under
// the model-based scheme.
func Fig18Snapshot(cfg Config, n int) ([]SnapshotRow, error) {
	if n <= 0 || n > cfg.Intervals {
		n = 4
	}
	r, err := RunOneByName(cfg, "cg", core.PolicyModelBased, ByIntervals)
	if err != nil {
		return nil, err
	}
	rows := make([]SnapshotRow, 0, n)
	for i := 0; i < n && i < len(r.Result.Intervals); i++ {
		iv := r.Result.Intervals[i]
		ways := make([]int, len(iv.Threads))
		for t, ts := range iv.Threads {
			ways[t] = ts.WaysAssigned
		}
		rows = append(rows, SnapshotRow{Interval: i + 1, Ways: ways, OverallCPI: iv.OverallCPI()})
	}
	return rows, nil
}

// Fig19VsPrivate reproduces Fig. 19: improvement of the dynamic
// (model-based) scheme over the private / equally-partitioned cache.
func Fig19VsPrivate(cfg Config) ([]Comparison, error) {
	return CompareAll(cfg, core.PolicyPrivate, core.PolicyModelBased)
}

// Fig20VsShared reproduces Fig. 20: improvement over the shared
// unpartitioned cache.
func Fig20VsShared(cfg Config) ([]Comparison, error) {
	return CompareAll(cfg, core.PolicyShared, core.PolicyModelBased)
}

// Fig21VsThroughput reproduces Fig. 21: improvement over the
// throughput-oriented (UCP-style) scheme.
func Fig21VsThroughput(cfg Config) ([]Comparison, error) {
	return CompareAll(cfg, core.PolicyThroughputUCP, core.PolicyModelBased)
}

// EightCoreResult pairs the two Fig. 22 series.
type EightCoreResult struct {
	VsPrivate []Comparison
	VsShared  []Comparison
}

// Fig22EightCore reproduces Fig. 22: the Fig. 19/20 comparisons with 8
// threads on an 8-core CMP. The paper keeps its 1 MB L2 and notes it is
// "larger than the working set" for both core counts; this repo's
// default cache is scaled 4× down and sized against the 4-thread
// working sets, so the 8-thread run doubles the L2 capacity (same
// associativity, twice the sets) to preserve the paper's
// working-set-to-cache ratio. See EXPERIMENTS.md. Both series share
// one model-based run per benchmark.
func Fig22EightCore(cfg Config) (EightCoreResult, error) {
	c8 := cfg.WithThreads(8)
	c8.L2KB *= 2
	cs, err := compareMany(c8, []core.Policy{core.PolicyPrivate, core.PolicyShared}, core.PolicyModelBased)
	if err != nil {
		return EightCoreResult{}, err
	}
	return EightCoreResult{VsPrivate: cs[0], VsShared: cs[1]}, nil
}
