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
//	sweep -kind mechanism                   # partitioning mechanisms × policies
//	sweep -kind cache -json                 # machine-readable output
//
// Cell sweeps accept -mechanism ways|sets|cluster (plus -set-groups /
// -clusters geometry knobs) to run the candidate on a different
// partitioning geometry; -kind mechanism sweeps all three at once.
//
// Long sweeps are crash-safe: with -resume DIR each finished cell is
// journaled to DIR and a rerun (after a crash, a kill, or ctrl-C) skips
// the finished cells. -cell-timeout, -stall-timeout and -retries bound
// and retry individual cells.
//
// Cell sweeps can also be distributed across worker processes:
//
//	sweep -kind cache -exec-workers 4            # 4 local subprocesses
//	sweep -worker :9090                          # serve cells over HTTP
//	sweep -kind cache -worker-url http://h:9090  # use remote workers
//
// The coordinator leases cells to workers, re-dispatches on worker
// death or silence, and falls back to in-process execution when no
// worker is reachable, so a distributed sweep produces the same
// results (and the same resume journal, byte for byte) as a local one.
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
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"intracache/internal/cache"
	"intracache/internal/checkpoint"
	"intracache/internal/core"
	"intracache/internal/dsweep"
	"intracache/internal/experiment"
	"intracache/internal/fault"
	"intracache/internal/profiling"
	"intracache/internal/report"
	"intracache/internal/trace"
)

// Exit codes (documented in README.md).
const (
	exitOK      = 0
	exitHard    = 1
	exitPartial = 3 // sweep completed, but some cells failed
)

func main() {
	kind := flag.String("kind", "cache", "sweep kind: cache, interval, threads, robust, mechanism")
	bench := flag.String("bench", "cg", "benchmark to sweep (kind=mechanism: all nine unless set)")
	baseName := flag.String("baseline", "shared", "baseline policy")
	candName := flag.String("candidate", "model-based", "candidate policy (kind=mechanism: the full partition-capable ladder unless set)")
	mechName := flag.String("mechanism", "ways", "partitioning mechanism for the candidate: ways, sets, cluster (ignored by kind=mechanism, which sweeps all)")
	setGroups := flag.Int("set-groups", 0, "sets mechanism: number of set groups (0 = cache default)")
	clusters := flag.Int("clusters", 0, "cluster mechanism: number of set clusters (0 = cache default)")
	sections := flag.Int("sections", 40, "fixed work per run (parallel sections)")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	asJSON := flag.Bool("json", false, "emit JSON instead of a table")
	resume := flag.String("resume", "", "journal directory: finished cells are recorded there and skipped on rerun")
	outPath := flag.String("out", "", "also write the results as JSON to this file (atomic write)")
	cellTimeout := flag.Duration("cell-timeout", 0, "hard wall-clock deadline per cell attempt (0 = none)")
	stallTimeout := flag.Duration("stall-timeout", 0, "kill a cell making no interval progress for this long (0 = off)")
	retries := flag.Int("retries", 1, "total attempts per cell (transient failures are retried with capped exponential backoff)")
	faultSeed := flag.Uint64("fault-seed", 1, "fault injection random seed")
	faultCPINoise := flag.Float64("fault-cpi-noise", 0, "multiplicative CPI counter noise, e.g. 0.1 for ±10%")
	faultAddNoise := flag.Float64("fault-add-noise", 0, "additive counter noise in cycles per instruction")
	faultDrop := flag.Float64("fault-drop", 0, "probability of losing a whole sampling interval")
	faultStuck := flag.Float64("fault-stuck", 0, "per-thread probability of a stuck-counter repeat")
	faultDelay := flag.Int("fault-delay", 0, "repartition decisions applied this many intervals late")
	faultStall := flag.Float64("fault-stall", 0, "per-thread probability of a transient apparent stall")
	shareTraces := flag.Bool("share-traces", false, "generate each workload's traces once and replay them in every cell (bit-identical results)")
	pprofPath := flag.String("pprof", "", "write a CPU profile of the sweep to this file")
	workerMode := flag.String("worker", "", `run as a sweep worker instead of a coordinator: "stdio" speaks the protocol on stdin/stdout, anything else is an HTTP listen address like ":9090"`)
	execWorkers := flag.Int("exec-workers", 0, "distribute cells across this many local worker subprocesses (the binary re-execs itself with -worker stdio)")
	workerURLs := flag.String("worker-url", "", "comma-separated base URLs of HTTP workers, e.g. http://a:9090,http://b:9090")
	lease := flag.Duration("lease", 0, "distributed mode: declare a cell lost and re-dispatch it when its worker sends no heartbeat for this long (0 = 10s)")
	chaosSpec := flag.String("chaos", "", `execution-fault plan injected into workers for chaos testing, e.g. "seed=7,kill=0.2,hang=0.1" (see internal/fault)`)
	workerJournal := flag.String("worker-journal", "", "worker mode: journal each computed cell here before replying, so a dying worker's work is recoverable")
	flag.Parse()
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if *workerMode != "" {
		runWorker(*workerMode, *workerJournal, *chaosSpec)
		return
	}

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
	cfg.ShareTraces = *shareTraces
	mech, err := cache.ParseMechanism(*mechName)
	if err != nil {
		fatal(err)
	}
	cfg.Mechanism = mech
	cfg.SetGroups = *setGroups
	cfg.Clusters = *clusters

	// A first ctrl-C / SIGTERM cancels the sweep: no new cells start,
	// in-flight cells stop at their next interval boundary, and finished
	// cells are already journaled. A second signal kills immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := experiment.SweepOptions{
		Workers: *workers,
		Cell: experiment.CellOptions{
			Timeout:      *cellTimeout,
			StallTimeout: *stallTimeout,
			Retry: experiment.RetryPolicy{
				Attempts:  *retries,
				BaseDelay: 100 * time.Millisecond,
				MaxDelay:  5 * time.Second,
			},
		},
	}
	if *resume != "" {
		if err := os.MkdirAll(*resume, 0o755); err != nil {
			fatal(err)
		}
		opts.JournalPath = filepath.Join(*resume, *kind+".journal")
	}

	distributed := *execWorkers > 0 || *workerURLs != ""
	if *kind == "robust" {
		if distributed {
			fmt.Fprintln(os.Stderr, "sweep: -exec-workers/-worker-url apply to cell sweeps only; running robust in-process")
		}
		runRobust(ctx, cfg, opts, *asJSON, *outPath, stopProfile)
		return
	}
	if *kind == "mechanism" {
		var dispatch experiment.SweepDispatch
		if distributed {
			dc := distConfig{
				execWorkers:  *execWorkers,
				urls:         *workerURLs,
				lease:        *lease,
				chaos:        *chaosSpec,
				resumeDir:    *resume,
				localWorkers: *workers,
			}
			dispatch = func(ctx context.Context, points []experiment.SweepPoint, benchmark string,
				b, c core.Policy, o experiment.SweepOptions) ([]experiment.SweepResult, error) {
				return runDistributed(ctx, points, benchmark, b, c, o, dc)
			}
		}
		// -bench and -candidate narrow the matrix only when given
		// explicitly; their cell-sweep defaults would otherwise shrink
		// the default all-benchmarks × policy-ladder grid to one cell.
		var benchSet []string
		if explicit["bench"] {
			benchSet = []string{*bench}
		}
		var policies []core.Policy
		if explicit["candidate"] {
			policies = []core.Policy{candidate}
		}
		runMechanism(ctx, cfg, opts, benchSet, policies, baseline, *asJSON, *outPath, dispatch, stopProfile)
		return
	}

	var points []experiment.SweepPoint
	switch *kind {
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
		fatal(fmt.Errorf("unknown sweep kind %q", *kind))
	}

	if opts.JournalPath != "" {
		if err := checkJournalMechanism(opts.JournalPath, points, *bench, baseline,
			candidate, cfg.Mechanism); err != nil {
			fatal(err)
		}
	}

	var results []experiment.SweepResult
	if distributed {
		results, err = runDistributed(ctx, points, *bench, baseline, candidate, opts, distConfig{
			execWorkers:  *execWorkers,
			urls:         *workerURLs,
			lease:        *lease,
			chaos:        *chaosSpec,
			resumeDir:    *resume,
			localWorkers: *workers,
		})
	} else {
		results, err = experiment.SweepJournaled(ctx, points, *bench, baseline, candidate, opts)
	}
	if err != nil {
		reportInterrupted(err, opts.JournalPath)
		fatal(err)
	}
	if *outPath != "" {
		if err := report.SaveJSON(*outPath, sweepOutput{Results: results}); err != nil {
			fatal(err)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sweepOutput{Results: results}); err != nil {
			fatal(err)
		}
	} else {
		t := report.NewTable(
			fmt.Sprintf("%s sweep on %q: %s vs %s", *kind, *bench, *candName, *baseName),
			"point", "baseline cycles", "dynamic cycles", "improvement %")
		for _, r := range results {
			if r.Err != nil {
				t.AddRow(r.Label, "-", "-", fmt.Sprintf("error (%s): %v", errKind(r), r.Err))
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
	printTraceCacheSummary(experiment.TraceCacheStats())

	if failed, kinds := failureSummary(results); failed > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d/%d cells failed (%s); partial results above\n",
			failed, len(results), kinds)
		stopProfile()
		os.Exit(exitPartial)
	}
}

// runWorker turns the process into a sweep worker: "stdio" serves the
// cell protocol on stdin/stdout (how -exec-workers coordinators drive
// it), anything else is an HTTP listen address.
//
// Both modes shut down gracefully on the first SIGINT/SIGTERM: the
// in-flight cell (if any) finishes, is journaled, and is replied to,
// the health probe flips to draining so coordinators stop dispatching,
// and the process exits 0. A second signal exits 1 immediately.
func runWorker(mode, journalPath, chaosSpec string) {
	drain := make(chan struct{})
	opts := dsweep.ServeOptions{
		JournalPath: journalPath,
		Drain:       drain,
		Log: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if chaosSpec != "" {
		plan, err := fault.ParseExecPlan(chaosSpec)
		if err != nil {
			fatal(err)
		}
		opts.Chaos = plan
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	hardExit := func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "sweep: worker: second signal, exiting immediately")
		os.Exit(exitHard)
	}

	if mode == "stdio" {
		go func() {
			sig := <-sigs
			fmt.Fprintf(os.Stderr, "sweep: worker: %v: draining (again to kill)\n", sig)
			close(drain)
			hardExit()
		}()
		if err := dsweep.ServeStdio(context.Background(), opts); err != nil {
			fatal(err)
		}
		return
	}

	handler, err := dsweep.NewHandler(opts)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Addr: mode, Handler: handler}
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "sweep: worker: %v: draining (again to kill)\n", sig)
		// Flip the probe first so coordinators stop dispatching, then
		// let in-flight cells finish; cells legitimately run for
		// minutes, so the shutdown context carries no deadline — the
		// second-signal path is the escape hatch.
		handler.SetDraining(true)
		go hardExit()
		if err := srv.Shutdown(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "sweep: worker shutdown:", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "sweep: worker listening on %s\n", mode)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
}

// distConfig carries the distributed-mode flags into runDistributed.
type distConfig struct {
	execWorkers  int
	urls         string
	lease        time.Duration
	chaos        string
	resumeDir    string
	localWorkers int
}

// runDistributed shards the sweep's cells across worker processes via
// the dsweep coordinator and reports its accounting on stderr. Local
// subprocess workers journal next to the resume journal when -resume
// is set (so their work survives a coordinator crash too), otherwise
// in a temp directory that is cleaned up with the run.
func runDistributed(ctx context.Context, points []experiment.SweepPoint, bench string,
	baseline, candidate core.Policy, opts experiment.SweepOptions, dc distConfig) ([]experiment.SweepResult, error) {
	var pool []dsweep.Worker
	closeAll := func() {
		for _, w := range pool {
			w.Close()
		}
	}
	if dc.execWorkers > 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		dir := dc.resumeDir
		if dir == "" {
			dir, err = os.MkdirTemp("", "sweep-workers-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
		}
		// Worker journals are named after the coordinator journal so a
		// mechanism sweep's per-slice runDistributed calls (and sweeps of
		// different kinds sharing a -resume dir) never collide.
		prefix := "worker"
		if opts.JournalPath != "" {
			prefix = strings.TrimSuffix(filepath.Base(opts.JournalPath), ".journal") + "-worker"
		}
		for i := 0; i < dc.execWorkers; i++ {
			wj := filepath.Join(dir, fmt.Sprintf("%s%d.journal", prefix, i))
			argv := []string{exe, "-worker", "stdio", "-worker-journal", wj}
			if dc.chaos != "" {
				argv = append(argv, "-chaos", dc.chaos)
			}
			w, err := dsweep.StartExecWorker(dsweep.ExecWorkerSpec{
				Name:    fmt.Sprintf("exec%d", i),
				Argv:    argv,
				Journal: wj,
			})
			if err != nil {
				closeAll()
				return nil, err
			}
			pool = append(pool, w)
		}
	}
	for _, u := range strings.Split(dc.urls, ",") {
		if u = strings.TrimSpace(u); u != "" {
			pool = append(pool, &dsweep.HTTPWorker{BaseURL: strings.TrimRight(u, "/")})
		}
	}
	defer closeAll()

	results, stats, err := dsweep.Run(ctx, points, bench, baseline, candidate, dsweep.Options{
		Workers:      pool,
		JournalPath:  opts.JournalPath,
		Cell:         opts.Cell,
		LocalWorkers: dc.localWorkers,
		Lease:        dc.lease,
		Log: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return results, err
	}
	fmt.Fprintf(os.Stderr,
		"sweep: distributed: %d cells (%d resumed, %d computed, %d recovered, %d local), %d dispatches (%d re-dispatched), %d workers lost\n",
		stats.Cells, stats.Resumed, stats.Computed, stats.Recovered, stats.Local,
		stats.Dispatches, stats.Redispatches, stats.WorkersRetired)
	if len(stats.ErrKinds) > 0 {
		fmt.Fprintf(os.Stderr, "sweep: dispatch failures by kind: %s\n", kindCounts(stats.ErrKinds))
	}
	if stats.Degraded {
		fmt.Fprintln(os.Stderr, "sweep: degraded: cells ran in-process because no worker was reachable")
	}
	return results, nil
}

// errKind renders a result's taxonomy kind, defaulting the legacy
// in-process paths that predate classification.
func errKind(r experiment.SweepResult) string {
	if r.ErrKind != "" {
		return r.ErrKind
	}
	return experiment.CellErrorKind(r.Err)
}

// failureSummary counts failed cells and formats the taxonomy
// breakdown, e.g. `2 stalled, 1 worker-died`.
func failureSummary(results []experiment.SweepResult) (int, string) {
	kinds := map[string]int{}
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
			kinds[errKind(r)]++
		}
	}
	return failed, kindCounts(kinds)
}

// kindCounts formats a kind->count map in the taxonomy's canonical
// order so summaries are stable run to run.
func kindCounts(kinds map[string]int) string {
	var parts []string
	for _, k := range []string{experiment.KindStalled, experiment.KindDeadline,
		experiment.KindWorkerDied, experiment.KindCorrupt,
		experiment.KindCancelled, experiment.KindFailed} {
		if n := kinds[k]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, k))
		}
	}
	return strings.Join(parts, ", ")
}

// sweepOutput is the -out / -json payload. It carries only the
// per-point results, so -share-traces leaves it byte-identical.
type sweepOutput struct {
	Results []experiment.SweepResult
}

// printTraceCacheSummary reports the shared trace cache's counters on
// stderr when -share-traces put anything through it.
func printTraceCacheSummary(st trace.CacheStats) {
	if st.Hits == 0 && st.Misses == 0 && st.Detaches == 0 {
		return
	}
	total := st.Hits + st.Misses
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(st.Hits) / float64(total)
	}
	fmt.Fprintf(os.Stderr, "sweep: trace cache: %d/%d segments served from cache (%.1f%%), "+
		"%d generated, %d detaches, %d evictions, %d entries / %.1f MiB resident\n",
		st.Hits, total, pct, st.Misses, st.Detaches, st.Evictions,
		st.Entries, float64(st.Bytes)/(1<<20))
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

// runRobust sweeps policies × fault levels over all nine benchmarks.
// Any plan built from -fault-* flags is added as a fifth "custom"
// level on top of the canonical ladder. Exits exitPartial when some
// cells failed.
func runRobust(ctx context.Context, cfg experiment.Config, opts experiment.SweepOptions,
	asJSON bool, outPath string, stopProfile func()) {
	levels := experiment.DefaultFaultLevels()
	if cfg.Fault != nil {
		levels = append(levels, experiment.FaultLevel{Name: "custom", Plan: *cfg.Fault})
		cfg.Fault = nil
	}
	cells, err := experiment.RobustnessSweepJournaled(ctx, cfg, nil, nil, levels, opts)
	if err != nil {
		reportInterrupted(err, opts.JournalPath)
		fatal(err)
	}
	if outPath != "" {
		if err := report.SaveJSON(outPath, cells); err != nil {
			fatal(err)
		}
	}
	failed, kinds := 0, map[string]int{}
	for _, c := range cells {
		if c.Err != nil {
			failed++
			kinds[experiment.CellErrorKind(c.Err)]++
			fmt.Fprintf(os.Stderr, "sweep: %s/%s/%s: %v\n", c.Benchmark, c.Policy, c.Level, c.Err)
		}
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cells); err != nil {
			fatal(err)
		}
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
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d/%d cells failed (%s); partial results above\n",
			failed, len(cells), kindCounts(kinds))
		stopProfile()
		os.Exit(exitPartial)
	}
}

// runMechanism sweeps partitioning mechanisms × policies × benchmarks
// against the shared baseline and prints the comparison matrix plus a
// per-benchmark winner table. Each (benchmark, policy) slice journals
// separately under -resume; when workers are configured each slice is
// dispatched through the distributed coordinator.
func runMechanism(ctx context.Context, cfg experiment.Config, opts experiment.SweepOptions,
	benchmarks []string, policies []core.Policy, baseline core.Policy,
	asJSON bool, outPath string, dispatch experiment.SweepDispatch, stopProfile func()) {
	cells, err := experiment.MechanismSweep(ctx, experiment.MechanismSweepSpec{
		Cfg:        cfg,
		Benchmarks: benchmarks,
		Policies:   policies,
		Baseline:   baseline,
		Opts:       opts,
		Dispatch:   dispatch,
	})
	if err != nil {
		reportInterrupted(err, opts.JournalPath)
		fatal(err)
	}
	if outPath != "" {
		if err := report.SaveJSON(outPath, cells); err != nil {
			fatal(err)
		}
	}
	failed, kinds := 0, map[string]int{}
	for _, c := range cells {
		if c.Err != nil {
			failed++
			kinds[experiment.CellErrorKind(c.Err)]++
			fmt.Fprintf(os.Stderr, "sweep: %s/%s/%s: %v\n", c.Benchmark, c.Policy, c.Mechanism, c.Err)
		}
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cells); err != nil {
			fatal(err)
		}
	} else {
		rows, cols, vals := experiment.MechanismMatrix(cells)
		fmt.Print(report.ComparisonMatrix(
			"mechanisms: mean improvement over shared baseline (%), policies x mechanisms",
			rows, cols, vals))
		// Winner table under the strongest policy in the matrix.
		winner := core.PolicyModelBased
		present := map[core.Policy]bool{}
		for _, c := range cells {
			present[c.Policy] = true
		}
		if !present[winner] && len(cells) > 0 {
			winner = cells[0].Policy
		}
		if best := experiment.MechanismBestFor(cells, winner); len(best) > 0 {
			fmt.Println()
			printed := map[string]bool{}
			for _, c := range cells {
				if m, ok := best[c.Benchmark]; ok && !printed[c.Benchmark] {
					printed[c.Benchmark] = true
					fmt.Printf("best mechanism for %-8s %s (%s)\n", c.Benchmark+":", m, winner)
				}
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d/%d cells failed (%s); partial results above\n",
			failed, len(cells), kindCounts(kinds))
		stopProfile()
		os.Exit(exitPartial)
	}
}

// checkJournalMechanism turns the journal's generic fingerprint-
// mismatch error into a specific one when the mismatch is exactly the
// -mechanism flag: it re-fingerprints the sweep under each other
// mechanism and, on a match, says which geometry the journal was
// written under. Any other difference falls through to OpenJournal's
// generic refusal.
func checkJournalMechanism(path string, points []experiment.SweepPoint, bench string,
	baseline, candidate core.Policy, mech cache.Mechanism) error {
	have, err := checkpoint.JournalFingerprint(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	if experiment.SweepFingerprint(points, bench, baseline, candidate, 0) == have {
		return nil
	}
	for _, m := range cache.Mechanisms() {
		if m == mech {
			continue
		}
		alt := make([]experiment.SweepPoint, len(points))
		for i, p := range points {
			alt[i] = p
			alt[i].Cfg = p.Cfg.WithMechanism(m)
		}
		if experiment.SweepFingerprint(alt, bench, baseline, candidate, 0) == have {
			return fmt.Errorf("journal %s was written with -mechanism %s, not %s; rerun with -mechanism %s or point -resume at a fresh directory",
				path, m, mech, m)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
