// Command sweep runs parameter sensitivity sweeps of the dynamic
// partitioner against a baseline: cache size, interval length, thread
// count, or telemetry-fault intensity. Points run in parallel
// (simulations are independent and deterministic).
//
// Usage:
//
//	sweep -kind cache    -bench cg          # L2 capacity sweep
//	sweep -kind interval -bench swim        # execution-interval sweep
//	sweep -kind threads  -bench mgrid       # core-count sweep
//	sweep -kind robust                      # policies × fault levels
//	sweep -kind cache -json                 # machine-readable output
//
// Long sweeps are crash-safe: with -resume DIR each finished cell is
// journaled to DIR and a rerun (after a crash, a kill, or ctrl-C) skips
// the finished cells. -cell-timeout and -retries bound and retry
// individual cells.
//
// Exit codes: 0 when every cell succeeded, 3 when the sweep finished
// but some cells failed (partial results were still printed and
// journaled), 1 on a hard error (bad flags, cancellation, every cell
// failed).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"intracache/internal/core"
	"intracache/internal/experiment"
	"intracache/internal/fault"
	"intracache/internal/profiling"
	"intracache/internal/report"
)

// Exit codes (documented in README.md).
const (
	exitOK      = 0
	exitHard    = 1
	exitPartial = 3 // sweep completed, but some cells failed
)

func main() {
	kind := flag.String("kind", "cache", "sweep kind: cache, interval, threads, robust")
	bench := flag.String("bench", "cg", "benchmark to sweep (kind=robust: all nine unless set)")
	baseName := flag.String("baseline", "shared", "baseline policy")
	candName := flag.String("candidate", "model-based", "candidate policy (kind=robust: the full policy set unless set)")
	sections := flag.Int("sections", 40, "fixed work per run (parallel sections)")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	asJSON := flag.Bool("json", false, "emit JSON instead of a table")
	resume := flag.String("resume", "", "journal directory: finished cells are recorded there and skipped on rerun")
	outPath := flag.String("out", "", "also write the results as JSON to this file (atomic write)")
	cellTimeout := flag.Duration("cell-timeout", 0, "hard wall-clock deadline per cell attempt (0 = none)")
	retries := flag.Int("retries", 1, "total attempts per cell (transient failures are retried with capped exponential backoff)")
	faultSeed := flag.Uint64("fault-seed", 1, "fault injection random seed")
	faultCPINoise := flag.Float64("fault-cpi-noise", 0, "multiplicative CPI counter noise, e.g. 0.1 for ±10%")
	faultAddNoise := flag.Float64("fault-add-noise", 0, "additive counter noise in cycles per instruction")
	faultDrop := flag.Float64("fault-drop", 0, "probability of losing a whole sampling interval")
	faultStuck := flag.Float64("fault-stuck", 0, "per-thread probability of a stuck-counter repeat")
	faultDelay := flag.Int("fault-delay", 0, "repartition decisions applied this many intervals late")
	faultStall := flag.Float64("fault-stall", 0, "per-thread probability of a transient apparent stall")
	pprofPath := flag.String("pprof", "", "write a CPU profile of the sweep to this file")
	flag.Parse()
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	stopProfile := profiling.MustStartCPU(*pprofPath)
	defer stopProfile()

	baseline, err := core.ParsePolicy(*baseName)
	if err != nil {
		fatal(err)
	}
	candidate, err := core.ParsePolicy(*candName)
	if err != nil {
		fatal(err)
	}

	cfg := experiment.DefaultConfig()
	cfg.Sections = *sections
	plan := fault.Plan{
		Seed:          *faultSeed,
		CPINoise:      *faultCPINoise,
		CPIAddNoise:   *faultAddNoise,
		DropRate:      *faultDrop,
		StuckRate:     *faultStuck,
		DecisionDelay: *faultDelay,
		StallRate:     *faultStall,
	}
	if !plan.IsZero() {
		cfg.Fault = &plan
	}

	// A first ctrl-C / SIGTERM cancels the sweep: no new cells start,
	// in-flight cells stop at their next interval boundary, and finished
	// cells are already journaled. A second signal kills immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := experiment.SweepOptions{
		Workers: *workers,
		Cell: experiment.CellOptions{
			Timeout: *cellTimeout,
			Retry: experiment.RetryPolicy{
				Attempts:  *retries,
				BaseDelay: 100 * time.Millisecond,
				MaxDelay:  5 * time.Second,
			},
		},
	}
	journalPath := ""
	if *resume != "" {
		journalPath = filepath.Join(*resume, *kind+".journal")
	}

	// -bench and -candidate narrow the robust matrix only when given
	// explicitly; their cell-sweep defaults would otherwise shrink the
	// default all-benchmarks × policy-ladder grid to one row.
	var benchSet []string
	if explicit["bench"] {
		benchSet = []string{*bench}
	}
	var policies []core.Policy
	if explicit["candidate"] {
		policies = []core.Policy{candidate}
	}

	// Every cell sweep is a fingerprinted cell list, run in one place.
	// The list is built, and -kind checked, before -resume creates its
	// directory.
	var fp string
	var cells []experiment.SweepCell
	switch *kind {
	case "robust":
		// Not a cell list: runRobust runs its two stages below.
	default:
		points, err := sweepPoints(*kind, cfg)
		if err != nil {
			fatal(err)
		}
		fp = experiment.SweepFingerprint(points, *bench, baseline, candidate, 0)
		cells = experiment.PointCells(points, *bench, baseline, candidate)
	}

	if journalPath != "" {
		if err := os.MkdirAll(*resume, 0o755); err != nil {
			fatal(err)
		}
		opts.JournalPath = journalPath
	}
	if *kind == "robust" {
		runRobust(ctx, cfg, opts, benchSet, policies, *asJSON, *outPath, stopProfile)
		return
	}

	results, err := experiment.RunSweepCells(ctx, fp, cells, opts)
	if err != nil {
		reportInterrupted(err, opts.JournalPath)
		fatal(err)
	}

	errs := make([]error, len(results))
	for i, r := range results {
		errs[i] = r.Err
	}
	title := fmt.Sprintf("%s sweep on %q: %s vs %s", *kind, *bench, *candName, *baseName)
	printPoints(title, results, *asJSON, *outPath)
	exitOnFailedCells(errs, stopProfile)
}

// sweepPoints builds the configurations of a point sweep kind.
func sweepPoints(kind string, cfg experiment.Config) ([]experiment.SweepPoint, error) {
	var points []experiment.SweepPoint
	switch kind {
	case "cache":
		// Capacity grows with associativity at fixed sets, exactly how
		// the paper grows its cache (Sec. IV-A3).
		for _, ways := range []int{16, 32, 48, 64, 96, 128} {
			c := cfg
			c.L2Ways = ways
			c.L2KB = cfg.L2KB / cfg.L2Ways * ways
			points = append(points, experiment.SweepPoint{
				Label: fmt.Sprintf("%d ways / %d KB", ways, c.L2KB), Cfg: c})
		}
	case "interval":
		for _, iv := range []uint64{50_000, 100_000, 200_000, 400_000, 800_000} {
			c := cfg
			c.IntervalInstructions = iv
			points = append(points, experiment.SweepPoint{
				Label: fmt.Sprintf("%dk instr", iv/1000), Cfg: c})
		}
	case "threads":
		for _, n := range []int{2, 4, 8, 16} {
			c := cfg.WithThreads(n)
			// Preserve the working-set-to-cache ratio as thread count
			// scales (see EXPERIMENTS.md on Fig. 22).
			c.L2KB = cfg.L2KB * n / cfg.NumThreads
			points = append(points, experiment.SweepPoint{
				Label: fmt.Sprintf("%d threads / %d KB", n, c.L2KB), Cfg: c})
		}
	default:
		return nil, fmt.Errorf("unknown sweep kind %q", kind)
	}
	return points, nil
}

// printPoints writes a point sweep's results: to -out as JSON, and to
// stdout as JSON or a table.
func printPoints(title string, results []experiment.SweepResult, asJSON bool, outPath string) {
	if outPath != "" {
		if err := report.SaveJSON(outPath, sweepOutput{Results: results}); err != nil {
			fatal(err)
		}
	}
	if asJSON {
		printJSON(sweepOutput{Results: results})
		return
	}
	t := report.NewTable(title, "point", "baseline cycles", "dynamic cycles", "improvement %")
	for _, r := range results {
		if r.Err != nil {
			t.AddRow(r.Label, "-", "-", fmt.Sprintf("error (%s): %v", r.ErrKind, r.Err))
			continue
		}
		label := r.Label
		if r.Resumed {
			label += " (resumed)"
		}
		t.AddRow(label, r.BaselineCycles, r.DynamicCycles, r.ImprovementPct)
	}
	fmt.Print(t.String())
}

// printJSON writes v to stdout as indented JSON.
func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

// exitOnFailedCells ends a sweep whose results are already printed:
// when some cells failed it prints failedCells' summary on stderr and
// exits with its code.
func exitOnFailedCells(errs []error, stopProfile func()) {
	summary, code := failedCells(errs)
	if code == exitOK {
		return
	}
	fmt.Fprintln(os.Stderr, summary)
	stopProfile()
	os.Exit(code)
}

// failedCells summarises the failed cells among errs by taxonomy kind
// and returns the code the sweep exits with: exitOK (and no summary)
// when every cell succeeded, exitPartial otherwise.
func failedCells(errs []error) (string, int) {
	failed, kinds := 0, map[string]int{}
	for _, err := range errs {
		if err != nil {
			failed++
			kinds[experiment.CellErrorKind(err)]++
		}
	}
	if failed == 0 {
		return "", exitOK
	}
	return fmt.Sprintf("sweep: %d/%d cells failed (%s); partial results above",
		failed, len(errs), kindCounts(kinds)), exitPartial
}

// kindCounts formats a kind->count map in the taxonomy's canonical
// order so summaries are stable run to run.
func kindCounts(kinds map[string]int) string {
	var parts []string
	for _, k := range []string{experiment.KindDeadline, experiment.KindCancelled, experiment.KindFailed} {
		if n := kinds[k]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, k))
		}
	}
	return strings.Join(parts, ", ")
}

// sweepOutput is the -out / -json payload: the per-point results.
type sweepOutput struct {
	Results []experiment.SweepResult
}

// reportInterrupted tells the user how to pick the sweep back up when
// the error was a cancellation (ctrl-C / SIGTERM) rather than a real
// failure. Per-cell deadline errors don't count: those cells failed.
func reportInterrupted(err error, journalPath string) {
	if !errors.Is(err, context.Canceled) {
		return
	}
	if journalPath != "" {
		fmt.Fprintf(os.Stderr, "sweep: interrupted; finished cells are journaled in %s — rerun with the same flags to resume\n", journalPath)
	} else {
		fmt.Fprintln(os.Stderr, "sweep: interrupted; rerun with -resume DIR to make sweeps restartable")
	}
}

// runRobust sweeps policies × fault levels, over all nine benchmarks
// and the default policy set unless benchmarks or policies narrow it.
// Any plan built from -fault-* flags is added as a fifth "custom"
// level on top of the canonical ladder. Exits exitPartial when some
// cells failed.
func runRobust(ctx context.Context, cfg experiment.Config, opts experiment.SweepOptions,
	benchmarks []string, policies []core.Policy, asJSON bool, outPath string, stopProfile func()) {
	levels := experiment.DefaultFaultLevels()
	if cfg.Fault != nil {
		levels = append(levels, experiment.FaultLevel{Name: "custom", Plan: *cfg.Fault})
		cfg.Fault = nil
	}
	cells, err := experiment.RobustnessSweepJournaled(ctx, cfg, benchmarks, policies, levels, opts)
	if err != nil {
		reportInterrupted(err, opts.JournalPath)
		fatal(err)
	}
	if outPath != "" {
		if err := report.SaveJSON(outPath, cells); err != nil {
			fatal(err)
		}
	}
	errs := make([]error, len(cells))
	for i, c := range cells {
		errs[i] = c.Err
		if c.Err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %s/%s/%s: %v\n", c.Benchmark, c.Policy, c.Level, c.Err)
		}
	}
	if asJSON {
		printJSON(cells)
	} else {
		rows, cols, vals := experiment.RobustnessMatrix(cells)
		fmt.Print(report.Matrix(
			"robustness: mean improvement over clean shared cache (%), policies x fault levels",
			rows, cols, vals))
		fmt.Println()
		for _, level := range cols {
			hc := experiment.HealthCounts(cells, core.PolicyModelBased, level)
			fmt.Printf("model-based health at %-12s %v\n", level+":", hc)
		}
	}
	exitOnFailedCells(errs, stopProfile)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
