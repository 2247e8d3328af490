// Command intracache runs one benchmark under one cache-management
// policy and prints the interval-by-interval trace plus a summary.
//
// Usage:
//
//	intracache -bench cg -policy model-based
//	intracache -bench swim -policy shared -intervals 50
//	intracache -bench mgrid -policy model-based -threads 8 -trace=false
//	intracache -list
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"intracache"
	"intracache/internal/profiling"
	"intracache/internal/report"
)

func main() {
	bench := flag.String("bench", "cg", "benchmark profile name")
	policyName := flag.String("policy", "model-based", "cache policy")
	threads := flag.Int("threads", 4, "number of threads/cores")
	intervals := flag.Int("intervals", 0, "run length in execution intervals (0 = config default)")
	sections := flag.Int("sections", 0, "run length in parallel sections instead of intervals")
	seed := flag.Uint64("seed", 42, "workload random seed")
	l2kb := flag.Int("l2kb", 0, "L2 size in KiB (0 = default 256)")
	l2ways := flag.Int("l2ways", 0, "L2 associativity (0 = default 64)")
	intervalInstr := flag.Uint64("interval-instr", 0, "aggregate instructions per execution interval (0 = default)")
	showTrace := flag.Bool("trace", true, "print the per-interval trace")
	asJSON := flag.Bool("json", false, "emit the full result as JSON and exit")
	list := flag.Bool("list", false, "list benchmarks and policies, then exit")
	ckptPath := flag.String("checkpoint", "", "checkpoint file: run state is saved here atomically so the run survives kills")
	ckptEvery := flag.Int("checkpoint-every", 0, "snapshot every N completed intervals (0 = only when stopping)")
	resumeRun := flag.Bool("resume", false, "resume from -checkpoint if the file exists (bit-identical to an uninterrupted run)")
	faultSeed := flag.Uint64("fault-seed", 1, "fault injection random seed")
	faultCPINoise := flag.Float64("fault-cpi-noise", 0, "multiplicative CPI counter noise, e.g. 0.1 for ±10%")
	faultAddNoise := flag.Float64("fault-add-noise", 0, "additive counter noise in cycles per instruction")
	faultDrop := flag.Float64("fault-drop", 0, "probability of losing a whole sampling interval")
	faultStuck := flag.Float64("fault-stuck", 0, "per-thread probability of a stuck-counter repeat")
	faultDelay := flag.Int("fault-delay", 0, "repartition decisions applied this many intervals late")
	faultStall := flag.Float64("fault-stall", 0, "per-thread probability of a transient apparent stall")
	pprofPath := flag.String("pprof", "", "write a CPU profile of the run to this file")
	flag.Parse()
	if *resumeRun && *ckptPath == "" {
		fmt.Fprintln(os.Stderr, "intracache: -resume needs -checkpoint FILE to resume from")
		os.Exit(2)
	}

	stopProfile := profiling.MustStartCPU(*pprofPath)
	defer stopProfile()

	if *list {
		fmt.Println("benchmarks:", strings.Join(intracache.Benchmarks(), ", "))
		names := make([]string, 0, 6)
		for _, p := range intracache.Policies() {
			names = append(names, p.String())
		}
		fmt.Println("policies:  ", strings.Join(names, ", "))
		return
	}

	pol, err := intracache.ParsePolicy(*policyName)
	if err != nil {
		fatal(err)
	}
	cfg := intracache.DefaultConfig()
	if *threads != cfg.NumThreads {
		cfg = cfg.WithThreads(*threads)
	}
	cfg.Seed = *seed
	if *l2kb > 0 {
		cfg.L2KB = *l2kb
	}
	if *l2ways > 0 {
		cfg.L2Ways = *l2ways
	}
	if *intervalInstr > 0 {
		cfg.IntervalInstructions = *intervalInstr
	}
	mode := intracache.ByIntervals
	if *sections > 0 {
		cfg.Sections = *sections
		mode = intracache.BySections
	} else if *intervals > 0 {
		cfg.Intervals = *intervals
	}
	plan := intracache.FaultPlan{
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
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	// ctrl-C / SIGTERM stops the run at the next interval boundary; with
	// -checkpoint set, the stop state is saved there for -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ckpt := intracache.CheckpointSpec{
		Path:   *ckptPath,
		Every:  *ckptEvery,
		Resume: *resumeRun,
	}
	run, err := intracache.SimulateCheckpointed(ctx, cfg, *bench, pol, mode, ckpt)
	if errors.Is(err, context.Canceled) {
		if *ckptPath != "" {
			fmt.Fprintf(os.Stderr, "intracache: interrupted after %d intervals; state saved to %s — rerun with -resume to continue\n",
				len(run.Result.Intervals), *ckptPath)
		} else {
			fmt.Fprintln(os.Stderr, "intracache: interrupted (rerun with -checkpoint FILE to make runs resumable)")
		}
		stopProfile()
		os.Exit(130)
	}
	if err != nil {
		fatal(err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Benchmark string
			Policy    string
			Threads   int
			Faults    *intracache.FaultStats `json:",omitempty"`
			Result    intracache.Result
		}{run.Benchmark, run.Policy.String(), cfg.NumThreads, run.FaultStats, run.Result}); err != nil {
			fatal(err)
		}
		return
	}

	if *showTrace {
		t := report.NewTable(
			fmt.Sprintf("%s under %s — per-interval trace", *bench, pol),
			traceHeaders(cfg.NumThreads)...)
		for _, iv := range run.Result.Intervals {
			cells := []interface{}{iv.Index}
			for _, ts := range iv.Threads {
				cells = append(cells, fmt.Sprintf("%d/%.2f", ts.WaysAssigned, ts.CPI()))
			}
			cells = append(cells, iv.OverallCPI())
			t.AddRow(cells...)
		}
		fmt.Print(t.String())
		fmt.Println()
	}

	res := run.Result
	fmt.Printf("benchmark:          %s\n", run.Benchmark)
	fmt.Printf("policy:             %s\n", run.Policy)
	fmt.Printf("threads:            %d\n", cfg.NumThreads)
	fmt.Printf("wall cycles:        %d\n", res.WallCycles)
	fmt.Printf("instructions:       %d\n", res.TotalInstr)
	fmt.Printf("application CPI:    %.3f\n", res.AppCPI())
	fmt.Printf("barriers crossed:   %d\n", res.Barriers)
	tot := res.L2Stats.Totals()
	fmt.Printf("L2 accesses:        %d (hit rate %.1f%%)\n", tot.Accesses,
		100*float64(tot.Hits)/max1(float64(tot.Accesses)))
	fmt.Printf("inter-thread:       %.2f%% of accesses (%.1f%% constructive)\n",
		100*res.L2Stats.InterThreadInteractionFraction(),
		100*res.L2Stats.ConstructiveFraction())
	if res.FinalTargets != nil {
		fmt.Printf("final way targets:  %v\n", res.FinalTargets)
	}
	if res.ControllerHealth != "" {
		fmt.Printf("controller health:  %s\n", res.ControllerHealth)
	}
	if fs := run.FaultStats; fs != nil {
		fmt.Printf("faults injected:    plan %s over %d intervals "+
			"(noisy=%d dropped=%d stuck=%d stalls=%d delayed=%d)\n",
			cfg.Fault.String(), fs.Intervals,
			fs.NoisySamples, fs.DroppedIntervals, fs.StuckSamples, fs.Stalls, fs.DelayedDecisions)
	}
	for tdx := range res.ThreadCycles {
		fmt.Printf("  thread %d: instr=%d stall=%.1f%%\n", tdx,
			res.ThreadInstr[tdx],
			100*float64(res.ThreadStall[tdx])/max1(float64(res.ThreadCycles[tdx])))
	}
}

func traceHeaders(n int) []string {
	out := []string{"interval"}
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf("t%d ways/CPI", i+1))
	}
	return append(out, "overall CPI")
}

func max1(x float64) float64 {
	if x < 1 {
		return 1
	}
	return x
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "intracache:", err)
	os.Exit(1)
}
