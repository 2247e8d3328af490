// Command benchdiff is the CI performance-regression gate. It compares
// two `go test -bench` outputs of the same benchmark set — one from the
// parent (the merge base) and one from the change, built in the same
// job and run interleaved on the same machine — and fails when the
// geometric mean of the per-benchmark median time ratios exceeds a
// threshold, or when the change allocates more per op than the
// committed BENCH_baseline.json records.
//
// Time is gated against the parent, not against a committed number:
// ns/op recorded on one host drifts by 1.3–1.6x on another (or on the
// same shared host an hour later), so a committed time baseline ends
// up failing unchanged code. Interleaving puts both sides under the
// same drift; each benchmark's k-th parent run pairs with its k-th
// change run, the median of those ratios damps single-run jitter, and
// the geomean across benchmarks is the verdict, with every ratio
// reported so a real regression is attributable. Allocation counts do
// not depend on the host's speed, so they keep a committed baseline,
// checked with the slack goroutine scheduling needs (allocSlackFrac). A
// benchmark the parent ran but the change did not fails the gate, as
// does one in the allocation baseline that the change did not run: a
// deleted or renamed benchmark cannot dodge the gate unless the change
// also drops it from BENCH_baseline.json.
//
// Usage:
//
//	benchdiff [-baseline BENCH_baseline.json] [-threshold 0.10] PARENT.out CHANGE.out
//	go test -run '^$' -bench 'BenchmarkFig' -benchtime 1x -benchmem . | benchdiff -update
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "allocation baseline to check against or update")
	inputPath := flag.String("input", "-", "benchmark output -update records (\"-\" = stdin)")
	threshold := flag.Float64("threshold", 0.10, "fail when the geomean of median change/parent time ratios exceeds 1 plus this fraction")
	update := flag.Bool("update", false, "write the allocation counts of -input as the new baseline instead of comparing")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: benchdiff [flags] PARENT.out CHANGE.out\n       benchdiff -update [-input FILE]")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *update {
		results, err := readOutput(*inputPath, parseBench)
		if err != nil {
			fatal(err)
		}
		if err := writeBaseline(*baselinePath, results); err != nil {
			fatal(err)
		}
		fmt.Printf("benchdiff: wrote %d benchmarks to %s\n", len(results), *baselinePath)
		return
	}
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	parent, err := readOutput(flag.Arg(0), parseSamples)
	if err != nil {
		fatal(err)
	}
	change, err := readOutput(flag.Arg(1), parseSamples)
	if err != nil {
		fatal(err)
	}
	base, err := readBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	// A benchmark the change deleted together with its baseline entry
	// was deleted on purpose; it leaves the time comparison too.
	for name := range parent {
		if _, ran := change[name]; !ran {
			if _, kept := base.Results[name]; !kept {
				delete(parent, name)
			}
		}
	}
	rep, err := compare(parent, change, *threshold)
	if err != nil {
		fatal(err)
	}
	rep.checkAllocs(base.Results, change)
	fmt.Print(rep.String())
	if rep.Failed {
		os.Exit(1)
	}
}

// readOutput parses one benchmark output file ("-" = stdin) and
// refuses an output with no results.
func readOutput[T any](path string, parse func(io.Reader) (map[string]T, error)) (map[string]T, error) {
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	out, err := parse(in)
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", path)
	}
	return out, nil
}

// benchResult is one benchmark's recorded cost. Procs is the
// GOMAXPROCS the run used (the benchmark name's -N suffix; 0 when the
// suffix was absent): parallel benchmarks scale with it, so ns/op from
// different Procs are flagged as not directly comparable.
type benchResult struct {
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Procs       int     `json:"procs,omitempty"`
}

// baseline is the committed BENCH_baseline.json shape. GoVersion and
// Host document where the numbers came from; only the allocation
// counts in Results are checked.
type baseline struct {
	GoVersion string                 `json:"go_version"`
	Host      string                 `json:"host"`
	Results   map[string]benchResult `json:"results"`
}

// writeBaseline records the allocation counts of results; their times
// are not kept, because time is gated against the parent instead.
func writeBaseline(path string, results map[string]benchResult) error {
	b := baseline{
		GoVersion: runtime.Version(),
		Host:      runtime.GOOS + "/" + runtime.GOARCH,
		Results:   make(map[string]benchResult, len(results)),
	}
	for name, r := range results {
		b.Results[name] = benchResult{AllocsPerOp: r.AllocsPerOp}
	}
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readBaseline(path string) (baseline, error) {
	var b baseline
	buf, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Results) == 0 {
		return b, fmt.Errorf("%s: baseline holds no results", path)
	}
	return b, nil
}

// report is the outcome of one parent/change comparison.
type report struct {
	Rows      []row
	OnlyBase  []string // benchmarks the parent ran but the change did not
	OnlyCur   []string // benchmarks only the change ran
	Geomean   float64  // geomean of the per-benchmark median time ratios
	Threshold float64
	// AllocFails are benchmarks allocating more per op than the
	// baseline records; NoAllocBase are benchmarks it does not list,
	// and AllocMissing baseline benchmarks the change did not run.
	AllocFails   []allocRow
	NoAllocBase  []string
	AllocMissing []string
	Failed       bool
}

// row is one benchmark's time comparison: the medians of each side's
// runs and the median of the paired change/parent ratios.
type row struct {
	Name       string
	BaseNs     float64
	CurNs      float64
	Ratio      float64
	Pairs      int
	AllocDelta float64
	// BaseProcs/CurProcs record each side's GOMAXPROCS; a mismatch is
	// noted in the report (the ratio still counts toward the geomean —
	// the note exists so a surprising ratio is attributable).
	BaseProcs int
	CurProcs  int
}

// allocRow is one benchmark whose allocations exceed the baseline.
type allocRow struct {
	Name              string
	Baseline, Current float64
}

// compare pairs each benchmark's k-th parent run with its k-th change
// run (as many pairs as the shorter side has) and gates on the geomean
// over benchmarks of the median pair ratio.
func compare(base, cur map[string][]benchResult, threshold float64) (*report, error) {
	rep := &report{Threshold: threshold}
	logSum := 0.0
	for name, b := range base {
		c, ok := cur[name]
		if !ok {
			rep.OnlyBase = append(rep.OnlyBase, name)
			continue
		}
		n := min(len(b), len(c))
		ratios := make([]float64, n)
		for i := range ratios {
			if b[i].NsPerOp <= 0 || c[i].NsPerOp <= 0 {
				return nil, fmt.Errorf("%s: non-positive ns/op (parent %g, change %g)", name, b[i].NsPerOp, c[i].NsPerOp)
			}
			ratios[i] = c[i].NsPerOp / b[i].NsPerOp
		}
		ratio := median(ratios)
		logSum += math.Log(ratio)
		rep.Rows = append(rep.Rows, row{
			Name:       name,
			BaseNs:     median(field(b[:n], func(r benchResult) float64 { return r.NsPerOp })),
			CurNs:      median(field(c[:n], func(r benchResult) float64 { return r.NsPerOp })),
			Ratio:      ratio,
			Pairs:      n,
			AllocDelta: medianAllocs(c) - medianAllocs(b),
			BaseProcs:  b[0].Procs,
			CurProcs:   c[0].Procs,
		})
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			rep.OnlyCur = append(rep.OnlyCur, name)
		}
	}
	if len(rep.Rows) == 0 {
		return nil, fmt.Errorf("no benchmarks in common between the parent and the change")
	}
	sort.Slice(rep.Rows, func(i, j int) bool { return rep.Rows[i].Name < rep.Rows[j].Name })
	sort.Strings(rep.OnlyBase)
	sort.Strings(rep.OnlyCur)
	rep.Geomean = math.Exp(logSum / float64(len(rep.Rows)))
	// A parent benchmark missing from the change fails the gate
	// outright: deleting (or renaming) a benchmark must not dodge the
	// comparison.
	rep.Failed = rep.Geomean > 1+threshold || len(rep.OnlyBase) > 0
	return rep, nil
}

// A benchmark fails the allocation check when the fewest allocations
// per op over the change's runs exceed the baseline by more than
// allocSlackFrac plus allocSlackAbs. Counts are not exact: goroutine
// scheduling in the parallel figure drivers and the service's shard
// workers moves them between runs of one binary. On a 2-vCPU host the
// extremes of five runs were up to 24% apart, and the fewest of two
// runs exceeded the fewest of five by up to 6.7% (measured on a
// shared-trace sweep benchmark since deleted). A hot-path regression that
// allocates per instruction, access or sample moves counts by orders of
// magnitude, far past this slack.
const (
	allocSlackFrac = 0.10
	allocSlackAbs  = 4
)

// checkAllocs holds the change's allocations per op to the baseline
// and fails the report on any excess or on a baseline benchmark the
// change did not run.
func (r *report) checkAllocs(base map[string]benchResult, cur map[string][]benchResult) {
	for name, b := range base {
		c, ok := cur[name]
		if !ok {
			r.AllocMissing = append(r.AllocMissing, name)
			continue
		}
		fewest := c[0].AllocsPerOp
		for _, res := range c[1:] {
			fewest = min(fewest, res.AllocsPerOp)
		}
		if fewest > b.AllocsPerOp*(1+allocSlackFrac)+allocSlackAbs {
			r.AllocFails = append(r.AllocFails, allocRow{name, b.AllocsPerOp, fewest})
		}
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			r.NoAllocBase = append(r.NoAllocBase, name)
		}
	}
	sort.Slice(r.AllocFails, func(i, j int) bool { return r.AllocFails[i].Name < r.AllocFails[j].Name })
	sort.Strings(r.AllocMissing)
	sort.Strings(r.NoAllocBase)
	if len(r.AllocFails) > 0 || len(r.AllocMissing) > 0 {
		r.Failed = true
	}
}

func field(rs []benchResult, f func(benchResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func medianAllocs(rs []benchResult) float64 {
	return median(field(rs, func(r benchResult) float64 { return r.AllocsPerOp }))
}

// median returns the middle value (the mean of the two middle values
// for an even count) of a non-empty slice, which it sorts.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func (r *report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-48s %14s %14s %8s %5s %8s %6s\n", "benchmark", "parent ns/op", "change ns/op", "ratio", "pairs", "Δallocs", "procs")
	for _, row := range r.Rows {
		procs := procsLabel(row.BaseProcs, row.CurProcs)
		fmt.Fprintf(&sb, "%-48s %14.0f %14.0f %7.3fx %5d %8.0f %6s\n",
			row.Name, row.BaseNs, row.CurNs, row.Ratio, row.Pairs, row.AllocDelta, procs)
	}
	for _, row := range r.Rows {
		if row.BaseProcs != 0 && row.CurProcs != 0 && row.BaseProcs != row.CurProcs {
			fmt.Fprintf(&sb, "note: %s: baseline recorded at GOMAXPROCS=%d but this run used %d — its ratio is not core-for-core comparable\n",
				row.Name, row.BaseProcs, row.CurProcs)
		}
	}
	for _, n := range r.OnlyBase {
		fmt.Fprintf(&sb, "FAIL: %s is in the baseline but was not run (the parent ran it; drop it from BENCH_baseline.json if intended)\n", n)
	}
	for _, n := range r.OnlyCur {
		fmt.Fprintf(&sb, "note: %s has no parent run to compare against\n", n)
	}
	for _, a := range r.AllocFails {
		fmt.Fprintf(&sb, "FAIL: %s allocates %.0f/op, baseline %.0f (refresh with -update if intended)\n", a.Name, a.Current, a.Baseline)
	}
	for _, n := range r.AllocMissing {
		fmt.Fprintf(&sb, "FAIL: %s is in the allocation baseline but was not run\n", n)
	}
	for _, n := range r.NoAllocBase {
		fmt.Fprintf(&sb, "note: %s has no allocation baseline entry (add with -update)\n", n)
	}
	verdict := "PASS"
	if r.Failed {
		verdict = "FAIL"
	}
	fmt.Fprintf(&sb, "geomean ratio %.3fx over %d benchmarks (threshold %.3fx): %s\n",
		r.Geomean, len(r.Rows), 1+r.Threshold, verdict)
	return sb.String()
}

// procsLabel renders a row's GOMAXPROCS column: one number when both
// sides agree (or only one side recorded it), "b→c" on a mismatch.
func procsLabel(base, cur int) string {
	switch {
	case base == cur && base == 0:
		return "-"
	case base == cur:
		return fmt.Sprintf("%d", base)
	case base == 0:
		return fmt.Sprintf("?→%d", cur)
	case cur == 0:
		return fmt.Sprintf("%d→?", base)
	default:
		return fmt.Sprintf("%d→%d", base, cur)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
