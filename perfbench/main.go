// Command perfbench is the repository benchmark. It runs one workload
// against the code as its users run it today (CLI defaults: no
// pipelined trace, no parallel generation, no time shards, no dsweep
// transport, partitiond with one shard), checks the outputs, and prints
// one JSON result line:
//
//	perfbench -workload figures|sweep|partitiond -seed N -seconds S -trace 0|1
//
// With -trace 0 the result carries the end-to-end metrics, measured
// with nothing wrapped. With -trace 1 it carries the per-layer metrics:
// the same work is assembled from the layers' public constructors with
// timing wrappers around each layer boundary (wrap.go, partitiond.go),
// and the simulated results must match the untraced run's exactly.
// Nothing inside the measured program is changed. README.md gives the
// metric table and why each workload was chosen.
//
// Run it through run.sh from the root of a checkout; scratch files go
// under .bench_build there and are removed on exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Exit codes: 0 result printed and correct, 1 the benchmark could not
// run, 2 bad flags, 3 result printed but the outputs failed a check.
const (
	exitHard      = 1
	exitUsage     = 2
	exitIncorrect = 3
)

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of each workload sees; every
// workload reports all of them under -trace 0 (per-workload meaning
// in README.md).
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A workload reports 0 for a
// layer it does not exercise; README.md lists which workload moves
// which metric.
var perLayer = []metricDef{
	{"trace.gen_s", "s"},
	{"trace.instructions", "count"},
	{"trace.gen_ns_per_instr", "ns"},
	{"sim.runs", "count"},
	{"sim.instructions", "count"},
	{"sim.intervals", "count"},
	{"sim.self_s", "s"},
	{"sim.self_ns_per_instr", "ns"},
	{"cache.l2_accesses", "count"},
	{"cache.l2_miss_ratio", "ratio"},
	{"cache.l1_ns_per_access", "ns"},
	{"cache.l2_ns_per_access", "ns"},
	{"cache.l2_wide_ns_per_access", "ns"},
	{"cache.l1_replay_calls", "count"},
	{"cache.l2_replay_calls", "count"},
	{"umon.ns_per_observe", "ns"},
	{"umon.replay_calls", "count"},
	{"umon.misscurve_s", "s"},
	{"core.decide_s", "s"},
	{"core.decide_calls", "count"},
	{"core.decide_us_p50", "us"},
	{"core.decide_us_p99", "us"},
	{"core.decide_share.model-based", "ratio"},
	{"core.decide_share.throughput-ucp", "ratio"},
	{"experiment.model_vs_shared_pct", "%"},
	{"experiment.cell_s_max", "s"},
	{"experiment.worker_busy_frac", "ratio"},
	{"checkpoint.journal_appends", "count"},
	{"checkpoint.journal_append_ms_p99", "ms"},
	{"partitiond.max_batches_per_s", "1/s"},
	{"partitiond.ingest_p50_ms", "ms"},
	{"partitiond.ingest_p99_ms", "ms"},
	{"partitiond.decision_p99_ms", "ms"},
	{"service.http_ingest_us_p50", "us"},
	{"service.http_ingest_us_p99", "us"},
	{"service.ingest_us_p50", "us"},
	{"service.ingest_us_p99", "us"},
	{"service.envelope_us_mean", "us"},
	{"service.alloc_get_us_p99", "us"},
	{"service.tick_ms_p50", "ms"},
	{"service.tick_ms_p99", "ms"},
	{"service.decide_us_per_session", "us"},
	{"service.watch_wake_us_p99", "us"},
	{"service.watch_changed_frac", "ratio"},
	{"service.samples_used_frac", "ratio"},
	{"service.dropped_oldest", "count"},
	{"service.dropped_pressure", "count"},
	{"service.last_good_deadline", "count"},
	{"service.rung_model_frac", "ratio"},
	{"service.checkpoint_save_ms_p99", "ms"},
	{"service.checkpoint_bytes", "bytes"},
	{"service.restore_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.allocs_per_batch", "count"},
	{"bench.traced_overhead_frac", "ratio"},
	{"bench.gen_lag_p99_ms", "ms"},
}

// bench is one invocation's settings and scratch space.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	work     string // scratch directory, removed on exit
	start    time.Time
}

// deadline is when the measured phase should stop starting new units.
func (b *bench) deadline() time.Time { return b.start.Add(b.seconds) }

// result is what a workload reports: metric values by name, the
// operation accounting, and any failed output check.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	problems          []string
	// notes are extra details written to the results file only.
	notes map[string]interface{}
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, notes: map[string]interface{}{}}
}

func (r *result) problem(format string, args ...interface{}) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outcome struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: figures, sweep or partitiond")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "seconds of measurement")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (figures, sweep, partitiond), -seconds >= 1 and -trace 0|1\n")
		os.Exit(exitUsage)
	}
	buildDir := ".bench_build"
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		fatal(err)
	}
	b := &bench{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traceMode == 1, work: work}
	prov := collectProvenance(b)
	fmt.Printf("provenance: %s\n", mustJSON(prov))

	b.start = time.Now()
	res, err := run(b)
	os.RemoveAll(work)
	if err != nil {
		fatal(err)
	}

	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	out := outcome{Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricOut{}}
	for _, d := range defs {
		out.Metrics[d.name] = metricOut{Value: res.metrics[d.name], Unit: d.unit}
	}
	for _, p := range res.problems {
		fmt.Printf("check failed: %s\n", p)
	}
	if err := saveResults(buildDir, b, prov, out, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing results file:", err)
	}
	printSummary(defs, res.metrics)
	fmt.Println(mustJSON(out))
	if !out.Correct {
		os.Exit(exitIncorrect)
	}
}

var workloads = map[string]func(*bench) (*result, error){
	"figures":    runFigures,
	"sweep":      runSweep,
	"partitiond": runPartitiond,
}

// printSummary prints every reported metric by name with its unit.
func printSummary(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Printf("  %-36s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
}

// saveResults writes the full record of the run (provenance, the
// printed outcome, and per-unit details) to
// .bench_build/results/<workload>-seed<N>-trace<T>.json.
func saveResults(buildDir string, b *bench, prov provenance, out outcome, res *result) error {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if b.traced {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", b.workload, b.seed, trace))
	rec := map[string]interface{}{
		"provenance": prov,
		"outcome":    out,
		"problems":   res.problems,
		"notes":      res.notes,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func mustJSON(v interface{}) string {
	data, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	return string(data)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(exitHard)
}

// medianOfMaps reduces several per-unit metric maps to one map holding
// each key's median.
func medianOfMaps(ms []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range ms {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}
