package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"intracache/internal/checkpoint"
	"intracache/internal/core"
	"intracache/internal/experiment"
	"intracache/internal/stats"
	"intracache/internal/workload"
)

// figuresConfig is the figures workload's fixed reduced scale: the
// default 4-core geometry (4 KiB 4-way L1s, 256 KiB 64-way L2) with
// runs of 4 sections of 24k instructions per thread and 12k-instruction
// intervals per thread, so every run makes about 8 controller decisions
// and one suite of Figs. 19-22 takes a few seconds.
func figuresConfig(seed uint64) experiment.Config {
	cfg := experiment.DefaultConfig()
	cfg.SectionInstructions = 24_000
	cfg.IntervalInstructions = 48_000
	cfg.Sections = 4
	cfg.Seed = seed
	return cfg
}

// figure is one paper comparison as the experiment package runs it.
type figure struct {
	cfg                 experiment.Config
	baseline, candidate core.Policy
}

// figureList is Figs. 19-22 in cmd/figures order, with Fig. 22's
// 8-thread geometry built as experiment.Fig22EightCore builds it.
func figureList(cfg experiment.Config) []figure {
	c8 := cfg.WithThreads(8)
	c8.L2KB *= 2
	return []figure{
		{cfg, core.PolicyPrivate, core.PolicyModelBased},
		{cfg, core.PolicyShared, core.PolicyModelBased},
		{cfg, core.PolicyThroughputUCP, core.PolicyModelBased},
		{c8, core.PolicyPrivate, core.PolicyModelBased},
		{c8, core.PolicyShared, core.PolicyModelBased},
	}
}

// figuresUntraced runs the suite exactly as cmd/figures does.
func figuresUntraced(cfg experiment.Config) ([][]experiment.Comparison, error) {
	f19, err := experiment.Fig19VsPrivate(cfg)
	if err != nil {
		return nil, err
	}
	f20, err := experiment.Fig20VsShared(cfg)
	if err != nil {
		return nil, err
	}
	f21, err := experiment.Fig21VsThroughput(cfg)
	if err != nil {
		return nil, err
	}
	f22, err := experiment.Fig22EightCore(cfg)
	if err != nil {
		return nil, err
	}
	return [][]experiment.Comparison{f19, f20, f21, f22.VsPrivate, f22.VsShared}, nil
}

// figuresTraced assembles the same runs with wrappers and returns the
// comparisons they yield plus every run's measurements.
func figuresTraced(cfg experiment.Config) ([][]experiment.Comparison, []*runStats, error) {
	var out [][]experiment.Comparison
	var runs []*runStats
	for _, f := range figureList(cfg) {
		var cs []experiment.Comparison
		for _, prof := range workload.Profiles() {
			base, err := tracedRun(f.cfg, prof, f.baseline)
			if err != nil {
				return nil, nil, err
			}
			cand, err := tracedRun(f.cfg, prof, f.candidate)
			if err != nil {
				return nil, nil, err
			}
			runs = append(runs, base, cand)
			cs = append(cs, comparison(prof.Name, base, cand))
		}
		out = append(out, cs)
	}
	return out, runs, nil
}

func comparison(name string, base, cand *runStats) experiment.Comparison {
	b, c := base.res.WallCycles, cand.res.WallCycles
	return experiment.Comparison{Benchmark: name, BaselineCycles: b, CandidateCycles: c,
		ImprovementPct: 100 * stats.Improvement(float64(b), float64(c))}
}

func comparisonsDigest(figs [][]experiment.Comparison) string {
	var d digest
	for i, cs := range figs {
		for _, c := range cs {
			d.line(fmt.Sprintf("%d %s %d %d %x", i, c.Benchmark, c.BaselineCycles, c.CandidateCycles,
				math.Float64bits(c.ImprovementPct)))
		}
	}
	return d.sum()
}

// resultsDigest hashes every traced run's full simulated result: wall
// cycles, final way targets and the L2 counters.
func resultsDigest(runs []*runStats) string {
	var d digest
	for _, r := range runs {
		d.line(fmt.Sprintf("%v %d %v %+v", r.policy, r.res.WallCycles, r.res.FinalTargets, r.res.L2Stats))
	}
	return d.sum()
}

// simSetup times, reps times, the work before the first simulated
// instruction: prep (if any) plus building the first run's generators,
// controller and simulator. It returns the median in seconds.
func simSetup(reps int, cfg experiment.Config, pol core.Policy, prep func(i int) error) (float64, error) {
	prof := workload.Profiles()[0]
	var ts []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if prep != nil {
			if err := prep(i); err != nil {
				return 0, err
			}
		}
		if _, err := newRun(cfg, prof, pol, nil, nil); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// unitTimes collects the end-to-end measurements of repeated units.
type unitTimes struct {
	wall, cpu []float64
}

// measure runs unit once, recording its wall and CPU time.
func (u *unitTimes) measure(unit func() error) error {
	c0, t0 := cpuSeconds(), time.Now()
	if err := unit(); err != nil {
		return err
	}
	u.wall = append(u.wall, time.Since(t0).Seconds())
	u.cpu = append(u.cpu, cpuSeconds()-c0)
	return nil
}

// minUnits is the fewest units any run measures: two, so that two
// executions at one seed can be compared.
const minUnits = 2

func runFigures(b *bench) (*result, error) {
	cfg := figuresConfig(b.seed)
	res := newResult()
	runsPerSuite := 2 * len(workload.Profiles()) * len(figureList(cfg))
	setup, err := simSetup(201, cfg, core.PolicyPrivate, nil)
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = setup

	var digests []string
	var ut unitTimes
	untraced := func() error {
		figs, err := figuresUntraced(cfg)
		if err != nil {
			return err
		}
		digests = append(digests, comparisonsDigest(figs))
		res.metrics["experiment.model_vs_shared_pct"] = experiment.MeanImprovement(figs[1])
		return nil
	}
	if !b.traced {
		resetPeakRSS()
		for i := 0; i < minUnits || time.Now().Before(b.deadline()); i++ {
			res.attempted += runsPerSuite
			if err := ut.measure(untraced); err != nil {
				return nil, err
			}
		}
		res.metrics["wall_s"] = median(ut.wall)
		res.metrics["cpu_s"] = median(ut.cpu)
		res.metrics["max_rss_mb"] = peakRSSMB()
		checkDigests(res, "figures suite", digests)
		res.notes["wall_s"] = ut.wall
		res.notes["digest"] = digests[0]
		res.notes["model_vs_shared_pct"] = res.metrics["experiment.model_vs_shared_pct"]
		return res, nil
	}

	// Traced: alternate untraced and traced suites; per-layer metrics
	// are the medians over the traced suites.
	stream, err := recordStream(cfg)
	if err != nil {
		return nil, err
	}
	tc := timerCost()
	var tracedWall []float64
	var full []string // full-result digests of the traced units
	var layers []map[string]float64
	for i := 0; i < 1 || time.Now().Before(b.deadline()); i++ {
		g0 := readGoStats()
		res.attempted += 2 * runsPerSuite
		if err := ut.measure(untraced); err != nil {
			return nil, err
		}
		m := map[string]float64{}
		runtimeMetrics(m, g0, readGoStats(), 0)
		t0 := time.Now()
		figs, runs, err := figuresTraced(cfg)
		if err != nil {
			return nil, err
		}
		tracedWall = append(tracedWall, time.Since(t0).Seconds())
		digests = append(digests, comparisonsDigest(figs))
		full = append(full, resultsDigest(runs))
		simLayerMetrics(m, runs, tc)
		layers = append(layers, m)
	}
	mvs := res.metrics["experiment.model_vs_shared_pct"]
	res.metrics = medianOfMaps(layers)
	res.metrics["experiment.model_vs_shared_pct"] = mvs
	res.metrics["bench.traced_overhead_frac"] = median(tracedWall)/median(ut.wall) - 1
	if err := replayMetrics(res.metrics, cfg, stream); err != nil {
		return nil, err
	}
	checkDigests(res, "untraced vs traced figures suite", digests)
	checkDigests(res, "traced figures results", full)
	res.notes["untraced_wall_s"] = ut.wall
	res.notes["traced_wall_s"] = tracedWall
	res.notes["timer_cost_ns"] = tc.Nanoseconds()
	return res, nil
}

// checkDigests records a problem unless every digest is the same.
func checkDigests(res *result, what string, ds []string) {
	if len(ds) == 0 {
		res.problem("%s: no digests", what)
		return
	}
	for _, d := range ds[1:] {
		if d != ds[0] {
			res.problem("%s digests differ at one seed: %v", what, ds)
			return
		}
	}
}

// sweepPoints is cmd/sweep's default -kind cache sweep: L2 16 to 128
// ways at fixed sets.
func sweepPoints(cfg experiment.Config) []experiment.SweepPoint {
	var points []experiment.SweepPoint
	for _, ways := range []int{16, 32, 48, 64, 96, 128} {
		c := cfg
		c.L2Ways = ways
		c.L2KB = cfg.L2KB / cfg.L2Ways * ways
		points = append(points, experiment.SweepPoint{
			Label: fmt.Sprintf("%d ways / %d KB", ways, c.L2KB), Cfg: c})
	}
	return points
}

const sweepBench = "cg"

// sweepSeeds is how many workload seeds one untraced sweep run covers.
const sweepSeeds = 3

// subSeed derives the k-th workload seed of a run from -seed; k = 0 is
// -seed itself.
func subSeed(seed uint64, k int) uint64 { return seed + uint64(k)*0x9e3779b97f4a7c15 }

// sweepOptions are cmd/sweep's defaults with -resume DIR.
func sweepOptions(dir string) experiment.SweepOptions {
	return experiment.SweepOptions{
		JournalPath: filepath.Join(dir, "cache.journal"),
		Cell: experiment.CellOptions{Retry: experiment.RetryPolicy{
			Attempts: 1, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second}},
	}
}

func sweepDigest(results []experiment.SweepResult) string {
	var d digest
	for _, r := range results {
		d.line(fmt.Sprintf("%s %d %d %x", r.Label, r.BaselineCycles, r.DynamicCycles,
			math.Float64bits(r.ImprovementPct)))
	}
	return d.sum()
}

func runSweep(b *bench) (*result, error) {
	cfg := experiment.DefaultConfig()
	cfg.Sections = 40 // cmd/sweep's -sections default
	cfg.Seed = b.seed
	points := sweepPoints(cfg)
	res := newResult()
	unitDir := func(i int) string { return filepath.Join(b.work, fmt.Sprintf("sweep-%d", i)) }

	setup, err := simSetup(101, points[0].Cfg, core.PolicyShared, func(i int) error {
		dir := filepath.Join(b.work, fmt.Sprintf("setup-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		fp := experiment.SweepFingerprint(points, sweepBench, core.PolicyShared, core.PolicyModelBased, 0)
		jr, _, err := checkpoint.OpenJournal(sweepOptions(dir).JournalPath, fp)
		if err != nil {
			return err
		}
		return jr.Close()
	})
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = setup

	n := 0
	// untraced runs one sweep of pts as cmd/sweep does and returns its
	// digest and mean improvement.
	untraced := func(pts []experiment.SweepPoint) (string, float64, error) {
		dir := unitDir(n)
		n++
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", 0, err
		}
		defer os.RemoveAll(dir)
		res.attempted += len(pts)
		results, err := experiment.SweepJournaled(context.Background(), pts, sweepBench,
			core.PolicyShared, core.PolicyModelBased, sweepOptions(dir))
		if err != nil {
			return "", 0, err
		}
		var imp []float64
		for _, r := range results {
			if r.Err != nil {
				res.failed++
				res.problem("cell %q failed: %v", r.Label, r.Err)
			}
			imp = append(imp, r.ImprovementPct)
		}
		return sweepDigest(results), sum(imp) / float64(len(imp)), nil
	}
	if !b.traced {
		// A sweep's cost differs by about 10% between workload seeds, so
		// each run covers sweepSeeds seeds derived from -seed. Its wall
		// time is multimodal: which worker draws which cell depends on
		// timing, and the slowest cell sets the makespan. The run reports
		// the mean over seeds of the mean unit, which estimates the
		// expected makespan, where a median would jump between modes.
		per := make([]unitTimes, sweepSeeds)
		digests := make([][]string, sweepSeeds)
		resetPeakRSS()
		for i := 0; i < minUnits*sweepSeeds || time.Now().Before(b.deadline()); i++ {
			k := i % sweepSeeds
			c := cfg
			c.Seed = subSeed(b.seed, k)
			err := per[k].measure(func() error {
				d, mvs, err := untraced(sweepPoints(c))
				digests[k] = append(digests[k], d)
				if k == 0 {
					res.metrics["experiment.model_vs_shared_pct"] = mvs
				}
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		var walls, cpus []float64
		for k := range per {
			walls = append(walls, mean(per[k].wall))
			cpus = append(cpus, mean(per[k].cpu))
			checkDigests(res, fmt.Sprintf("sweep at seed %d", subSeed(b.seed, k)), digests[k])
			res.notes[fmt.Sprintf("wall_s.seed%d", subSeed(b.seed, k))] = per[k].wall
		}
		res.metrics["wall_s"] = mean(walls)
		res.metrics["cpu_s"] = mean(cpus)
		res.metrics["max_rss_mb"] = peakRSSMB()
		res.notes["model_vs_shared_pct"] = res.metrics["experiment.model_vs_shared_pct"]
		return res, nil
	}

	var digests []string
	var ut unitTimes
	stream, err := recordStream(figuresConfig(b.seed))
	if err != nil {
		return nil, err
	}
	tc := timerCost()
	var tracedWall []float64
	var full []string // full-result digests of the traced units
	var layers []map[string]float64
	for i := 0; i < 1 || time.Now().Before(b.deadline()); i++ {
		g0 := readGoStats()
		err := ut.measure(func() error {
			d, mvs, err := untraced(points)
			digests = append(digests, d)
			res.metrics["experiment.model_vs_shared_pct"] = mvs
			return err
		})
		if err != nil {
			return nil, err
		}
		m := map[string]float64{}
		runtimeMetrics(m, g0, readGoStats(), 0)
		dir := unitDir(n)
		n++
		res.attempted += len(points)
		t0 := time.Now()
		results, runs, err := sweepTraced(points, dir, m)
		if err != nil {
			return nil, err
		}
		tracedWall = append(tracedWall, time.Since(t0).Seconds())
		os.RemoveAll(dir)
		digests = append(digests, sweepDigest(results))
		full = append(full, resultsDigest(runs))
		simLayerMetrics(m, runs, tc)
		layers = append(layers, m)
	}
	mvs := res.metrics["experiment.model_vs_shared_pct"]
	res.metrics = medianOfMaps(layers)
	res.metrics["experiment.model_vs_shared_pct"] = mvs
	res.metrics["bench.traced_overhead_frac"] = median(tracedWall)/median(ut.wall) - 1
	if err := replayMetrics(res.metrics, figuresConfig(b.seed), stream); err != nil {
		return nil, err
	}
	checkDigests(res, "untraced vs traced sweep", digests)
	checkDigests(res, "traced sweep results", full)
	res.notes["untraced_wall_s"] = ut.wall
	res.notes["traced_wall_s"] = tracedWall
	return res, nil
}

// sweepTraced runs the sweep's cells from public constructors on
// GOMAXPROCS workers, journaling each cell as SweepJournaled does, and
// records the experiment and checkpoint layer metrics into m.
func sweepTraced(points []experiment.SweepPoint, dir string, m map[string]float64) (
	[]experiment.SweepResult, []*runStats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	prof, err := workload.ByName(sweepBench)
	if err != nil {
		return nil, nil, err
	}
	fp := experiment.SweepFingerprint(points, sweepBench, core.PolicyShared, core.PolicyModelBased, 0)
	jr, _, err := checkpoint.OpenJournal(sweepOptions(dir).JournalPath, fp)
	if err != nil {
		return nil, nil, err
	}
	defer jr.Close()

	workers := runtime.GOMAXPROCS(0)
	if workers > len(points) {
		workers = len(points)
	}
	out := make([]experiment.SweepResult, len(points))
	runs := make([][2]*runStats, len(points))
	cellTime := make([]time.Duration, len(points))
	appendTime := make([]time.Duration, len(points))
	errs := make([]error, len(points))
	work := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				c0 := time.Now()
				p := points[i]
				base, err := tracedRun(p.Cfg, prof, core.PolicyShared)
				if err != nil {
					errs[i] = err
					continue
				}
				cand, err := tracedRun(p.Cfg, prof, core.PolicyModelBased)
				if err != nil {
					errs[i] = err
					continue
				}
				c := comparison(sweepBench, base, cand)
				rec := experiment.CellRecord{ImprovementPct: c.ImprovementPct,
					BaselineCycles: c.BaselineCycles, DynamicCycles: c.CandidateCycles}
				a0 := time.Now()
				errs[i] = jr.Append(experiment.CellKey(i, p.Label), rec)
				appendTime[i] = time.Since(a0)
				cellTime[i] = time.Since(c0)
				runs[i] = [2]*runStats{base, cand}
				out[i] = experiment.SweepResult{Label: p.Label, Benchmark: sweepBench,
					ImprovementPct: rec.ImprovementPct, BaselineCycles: rec.BaselineCycles,
					DynamicCycles: rec.DynamicCycles}
			}
		}()
	}
	for i := range points {
		work <- i
	}
	close(work)
	wg.Wait()
	wall := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	var all []*runStats
	var cells, appends []float64
	for i := range points {
		all = append(all, runs[i][0], runs[i][1])
		cells = append(cells, cellTime[i].Seconds())
		appends = append(appends, float64(appendTime[i])/1e6)
	}
	m["experiment.cell_s_max"] = quantile(cells, 1)
	m["experiment.worker_busy_frac"] = sum(cells) / (float64(workers) * wall.Seconds())
	m["checkpoint.journal_appends"] = float64(len(appends))
	m["checkpoint.journal_append_ms_p99"] = quantile(appends, 0.99)
	return out, all, nil
}
