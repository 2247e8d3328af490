package intracache

// This file holds one testing.B benchmark per table/figure of the
// paper's evaluation (see DESIGN.md §4 for the index) plus the ablation
// benchmarks DESIGN.md §5 calls out. Each benchmark executes the
// corresponding experiment at a reduced-but-meaningful scale and
// reports the figure's headline quantity through b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates the whole evaluation's
// numbers alongside the usual time/allocation costs.

import (
	"context"
	"testing"

	"intracache/internal/core"
	"intracache/internal/experiment"
	"intracache/internal/workload"
)

// benchCfg is the shared benchmark scale: large enough that the
// partitioner converges and the paper shapes appear, small enough that
// the full suite finishes in a few minutes.
func benchCfg() experiment.Config {
	cfg := experiment.DefaultConfig()
	cfg.IntervalInstructions = 120_000
	cfg.SectionInstructions = 24_000
	cfg.Intervals = 30
	cfg.Sections = 30
	return cfg
}

func BenchmarkFig02Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := benchCfg().Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig03ThreadPerformance(b *testing.B) {
	cfg := benchCfg()
	var spread float64
	for i := 0; i < b.N; i++ {
		series, err := experiment.Fig3ThreadPerformance(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: the mean slowest/fastest ratio across benchmarks.
		var sum float64
		for _, s := range series {
			lo := s.Values[0]
			for _, v := range s.Values {
				if v < lo {
					lo = v
				}
			}
			sum += lo
		}
		spread = sum / float64(len(series))
	}
	b.ReportMetric(spread, "minPerf/maxPerf")
}

func BenchmarkFig04ThreadMisses(b *testing.B) {
	cfg := benchCfg()
	var spread float64
	for i := 0; i < b.N; i++ {
		series, err := experiment.Fig4ThreadMisses(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, s := range series {
			lo := s.Values[0]
			for _, v := range s.Values {
				if v < lo {
					lo = v
				}
			}
			sum += lo
		}
		spread = sum / float64(len(series))
	}
	b.ReportMetric(spread, "minMiss/maxMiss")
}

func BenchmarkFig05Correlation(b *testing.B) {
	cfg := benchCfg()
	var avg float64
	for i := 0; i < b.N; i++ {
		_, a, err := experiment.Fig5Correlation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		avg = a
	}
	b.ReportMetric(avg, "avgPearsonR")
}

func BenchmarkFig06SwimPhases(b *testing.B) {
	cfg := benchCfg()
	var cv float64
	for i := 0; i < b.N; i++ {
		series, err := experiment.Fig6SwimPhases(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: coefficient of variation of the phase thread's IPC.
		vals := series.Threads[0][2:]
		var sum, sumsq float64
		for _, v := range vals {
			sum += v
			sumsq += v * v
		}
		mean := sum / float64(len(vals))
		variance := sumsq/float64(len(vals)) - mean*mean
		if mean > 0 && variance > 0 {
			cv = variance / (mean * mean)
		}
	}
	b.ReportMetric(cv, "phaseCV2")
}

func BenchmarkFig07SwimMisses(b *testing.B) {
	cfg := benchCfg()
	var idx float64
	for i := 0; i < b.N; i++ {
		_, variable, err := experiment.Fig7SwimMisses(cfg)
		if err != nil {
			b.Fatal(err)
		}
		idx = float64(variable)
	}
	b.ReportMetric(idx, "variableThread")
}

func BenchmarkFig08InterThread(b *testing.B) {
	cfg := benchCfg()
	var avg float64
	for i := 0; i < b.N; i++ {
		_, a, err := experiment.Fig8And9Interaction(cfg)
		if err != nil {
			b.Fatal(err)
		}
		avg = a
	}
	b.ReportMetric(avg, "avgInterThread%")
}

func BenchmarkFig09ConstructiveSplit(b *testing.B) {
	cfg := benchCfg()
	var avg float64
	for i := 0; i < b.N; i++ {
		stats9, _, err := experiment.Fig8And9Interaction(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, s := range stats9 {
			sum += s.ConstructivePct
		}
		avg = sum / float64(len(stats9))
	}
	b.ReportMetric(avg, "avgConstructive%")
}

func BenchmarkFig10WaySensitivity(b *testing.B) {
	cfg := benchCfg()
	var gap float64
	for i := 0; i < b.N; i++ {
		ws, err := experiment.Fig10WaySensitivity(cfg)
		if err != nil {
			b.Fatal(err)
		}
		maxDrop, minDrop := ws[0].DropPct, ws[0].DropPct
		for _, w := range ws {
			if w.DropPct > maxDrop {
				maxDrop = w.DropPct
			}
			if w.DropPct < minDrop {
				minDrop = w.DropPct
			}
		}
		gap = maxDrop - minDrop
	}
	b.ReportMetric(gap, "sensitivityGapPP")
}

func BenchmarkFig15SplineModels(b *testing.B) {
	cfg := benchCfg()
	var points float64
	for i := 0; i < b.N; i++ {
		curves, _, err := experiment.Fig15Models(cfg, "cg")
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, c := range curves {
			n += len(c.Ways)
		}
		points = float64(n)
	}
	b.ReportMetric(points, "modelPoints")
}

func BenchmarkFig18Snapshot(b *testing.B) {
	cfg := benchCfg()
	var drop float64
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Fig18Snapshot(cfg, 4)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: overall CPI reduction from interval 1 to 4.
		first, last := rows[0].OverallCPI, rows[len(rows)-1].OverallCPI
		if first > 0 {
			drop = 100 * (first - last) / first
		}
	}
	b.ReportMetric(drop, "overallCPIdrop%")
}

func reportComparison(b *testing.B, cs []experiment.Comparison) {
	b.Helper()
	b.ReportMetric(experiment.MeanImprovement(cs), "meanImprove%")
	b.ReportMetric(experiment.MaxImprovement(cs), "maxImprove%")
}

func BenchmarkFig19VsPrivate(b *testing.B) {
	cfg := benchCfg()
	var cs []experiment.Comparison
	for i := 0; i < b.N; i++ {
		var err error
		cs, err = experiment.Fig19VsPrivate(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportComparison(b, cs)
}

func BenchmarkFig20VsShared(b *testing.B) {
	cfg := benchCfg()
	var cs []experiment.Comparison
	for i := 0; i < b.N; i++ {
		var err error
		cs, err = experiment.Fig20VsShared(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportComparison(b, cs)
}

func BenchmarkFig21VsThroughput(b *testing.B) {
	cfg := benchCfg()
	var cs []experiment.Comparison
	for i := 0; i < b.N; i++ {
		var err error
		cs, err = experiment.Fig21VsThroughput(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportComparison(b, cs)
}

func BenchmarkFig22EightCore(b *testing.B) {
	cfg := benchCfg()
	cfg.Sections = 20
	var res experiment.EightCoreResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiment.Fig22EightCore(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(experiment.MeanImprovement(res.VsPrivate), "meanVsPrivate%")
	b.ReportMetric(experiment.MeanImprovement(res.VsShared), "meanVsShared%")
}

// --- Sweep benchmark (DESIGN.md §5g) ---

// sweepBenchPoints is a three-cell L2-associativity sweep over one
// workload. Associativity does not perturb the instruction streams, so
// each cell's two runs share them as a lockstep pair.
func sweepBenchPoints() []experiment.SweepPoint {
	var points []experiment.SweepPoint
	for _, ways := range []int{16, 32, 64} {
		cfg := benchCfg()
		cfg.Sections = 12
		cfg.L2Ways = ways
		points = append(points, experiment.SweepPoint{Label: "l2ways-" + itoa(uint64(ways)), Cfg: cfg})
	}
	return points
}

// BenchmarkSweepSynchronous times a multi-cell sweep on two workers.
func BenchmarkSweepSynchronous(b *testing.B) {
	points := sweepBenchPoints()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.SweepJournaled(context.Background(), points, "cg",
			core.PolicyShared, core.PolicyModelBased, experiment.SweepOptions{Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §5) ---

// BenchmarkAblationIntervalLength varies the execution-interval length.
// The paper reports little sensitivity to it.
func BenchmarkAblationIntervalLength(b *testing.B) {
	prof, err := workload.ByName("cg")
	if err != nil {
		b.Fatal(err)
	}
	for _, ivLen := range []uint64{60_000, 120_000, 240_000, 480_000} {
		b.Run(byteCount(ivLen), func(b *testing.B) {
			cfg := benchCfg()
			cfg.IntervalInstructions = ivLen
			var imp float64
			for i := 0; i < b.N; i++ {
				c, err := experiment.Compare(cfg, prof, core.PolicyShared, core.PolicyModelBased)
				if err != nil {
					b.Fatal(err)
				}
				imp = c.ImprovementPct
			}
			b.ReportMetric(imp, "improveVsShared%")
		})
	}
}

func byteCount(n uint64) string {
	switch {
	case n >= 1_000_000:
		return "interval-" + itoa(n/1_000_000) + "M"
	case n >= 1_000:
		return "interval-" + itoa(n/1_000) + "k"
	default:
		return "interval-" + itoa(n)
	}
}

func itoa(n uint64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationCPIvsModel compares the paper's two dynamic schemes:
// the naive CPI-proportional rule (Sec. VI-A) against the model-based
// scheme (Sec. VI-B). The paper evaluates only the model-based variant
// because it won everywhere.
func BenchmarkAblationCPIvsModel(b *testing.B) {
	for _, pol := range []core.Policy{core.PolicyCPIProportional, core.PolicyModelBased} {
		b.Run(pol.String(), func(b *testing.B) {
			cfg := benchCfg()
			var mean float64
			for i := 0; i < b.N; i++ {
				cs, err := experiment.CompareAll(cfg, core.PolicyShared, pol)
				if err != nil {
					b.Fatal(err)
				}
				mean = experiment.MeanImprovement(cs)
			}
			b.ReportMetric(mean, "meanVsShared%")
		})
	}
}

// BenchmarkAblationStaticVsPrivate quantifies what cross-partition hits
// are worth: a statically equal-partitioned *shared* cache (eviction
// control only) against true per-core private caches of the same
// capacity.
func BenchmarkAblationStaticVsPrivate(b *testing.B) {
	cfg := benchCfg()
	var mean float64
	for i := 0; i < b.N; i++ {
		cs, err := experiment.CompareAll(cfg, core.PolicyPrivate, core.PolicyStaticEqual)
		if err != nil {
			b.Fatal(err)
		}
		mean = experiment.MeanImprovement(cs)
	}
	b.ReportMetric(mean, "staticVsPrivate%")
}

// BenchmarkAblationDRAMModel compares the default flat memory latency
// against the banked open-row DRAM model (internal/mem): the headline
// comparison (model-based vs shared) should survive the richer,
// contention-aware memory timing.
func BenchmarkAblationDRAMModel(b *testing.B) {
	prof, err := workload.ByName("mgrid")
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"flat", "banked"} {
		b.Run(name, func(b *testing.B) {
			cfg := benchCfg()
			var imp float64
			for i := 0; i < b.N; i++ {
				if name == "banked" {
					c, err := compareWithDRAM(cfg, prof)
					if err != nil {
						b.Fatal(err)
					}
					imp = c
				} else {
					c, err := experiment.Compare(cfg, prof, core.PolicyShared, core.PolicyModelBased)
					if err != nil {
						b.Fatal(err)
					}
					imp = c.ImprovementPct
				}
			}
			b.ReportMetric(imp, "improveVsShared%")
		})
	}
}

// BenchmarkAblationPartitionMechanism compares the paper's Sec. V
// eviction-control partitioning against commercial-style contiguous
// way masks (Intel CAT) under the same model-based engine.
func BenchmarkAblationPartitionMechanism(b *testing.B) {
	prof, err := workload.ByName("cg")
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchCfg()
	var evict, mask float64
	for i := 0; i < b.N; i++ {
		evict, mask, err = compareMechanisms(cfg, prof)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(evict, "evictCtrlVsShared%")
	b.ReportMetric(mask, "wayMaskVsShared%")
}

// BenchmarkAblationVsTADIP compares the paper's scheme against
// thread-aware dynamic insertion — the related-work alternative that
// manages the shared cache without partitioning at all.
func BenchmarkAblationVsTADIP(b *testing.B) {
	cfg := benchCfg()
	var cs []experiment.Comparison
	for i := 0; i < b.N; i++ {
		var err error
		cs, err = experiment.CompareAll(cfg, core.PolicyTADIP, core.PolicyModelBased)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportComparison(b, cs)
}

// BenchmarkAblationHybridTADIP measures whether the paper's
// partitioning and adaptive insertion compose: pure TADIP vs pure
// model-based partitioning vs the hybrid (TADIP insertion inside
// model-based partitions).
func BenchmarkAblationHybridTADIP(b *testing.B) {
	prof, err := workload.ByName("mgrid")
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchCfg()
	var tadip, model, hybrid float64
	for i := 0; i < b.N; i++ {
		tadip, model, hybrid, err = compareHybridTADIP(cfg, prof)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tadip, "tadipVsShared%")
	b.ReportMetric(model, "modelVsShared%")
	b.ReportMetric(hybrid, "hybridVsShared%")
}
