// Command partitiond runs the paper's partitioning runtime as a
// persistent daemon: telemetry agents POST per-application counter
// batches (JSON sealed in the checkpoint CRC64 envelope) to /ingest, a
// ticker drives one decision round per tick across every session, and
// /alloc serves the resulting per-thread way allocations. Each
// application gets its own core.ResilientEngine, so one application's
// garbage telemetry degrades that application's rung — never a
// neighbour's.
//
// Usage:
//
//	partitiond -listen :9444                        # serve
//	partitiond -listen :9444 -checkpoint p.ckpt     # crash-safe serve
//	partitiond -listen :9444 -shards 8              # 8 parallel tick domains
//	partitiond -selftest -apps 1000                 # load/soak harness
//
// -shards N hashes applications over N independent tick/checkpoint
// domains ticked concurrently by -tick-workers workers; per-session
// decisions are bit-identical to -shards 1 (the selftest verifies it).
// Checkpoints become one manifest plus one file per shard, and a
// manifest only restores at the shard count that wrote it.
//
// Serving endpoints: POST /ingest, GET /alloc?app= (add &watch=1&epoch=N
// to long-poll for the next allocation change), GET /stats,
// GET /healthz, GET /readyz. SIGINT/SIGTERM starts a drain: /healthz
// flips to 503 "draining", new batches are rejected, in-flight
// requests finish, queued samples get a final decision tick, state is
// checkpointed, and the process exits 0. A second signal exits 1
// immediately.
//
// -selftest replays a deterministic fleet of simulated applications
// (internal/service/loadgen) against an in-process service, with
// seeded telemetry-fault injection and an optional mid-run
// kill/restart, and checks the run against the declared SLO.
//
// Exit codes mirror sweep's convention: 0 success, 3 degraded — the
// selftest finished but breached its SLO or the restart differential
// diverged — and 1 on hard errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"intracache/internal/fault"
	"intracache/internal/report"
	"intracache/internal/service"
	"intracache/internal/service/loadgen"
)

// Exit codes (documented in README.md).
const (
	exitOK       = 0
	exitHard     = 1
	exitDegraded = 3 // selftest ran to completion but breached its SLO
)

func main() {
	listen := flag.String("listen", ":9444", "HTTP listen address")
	maxSessions := flag.Int("max-sessions", 0, "admission cap on concurrent application sessions (0 = 4096)")
	queueCap := flag.Int("queue-cap", 0, "per-session pending-sample cap; overflow drops oldest (0 = 64)")
	samplesPerTick := flag.Int("samples-per-tick", 0, "max samples one tick feeds one session's engine (0 = 8)")
	highWater := flag.Int("pressure-highwater", 0, "queue length that trips the last-good pressure rung (0 = queue-cap)")
	tick := flag.Duration("tick", time.Second, "decision tick period")
	deadline := flag.Duration("deadline", 0, "per-tick decision budget; past it, remaining sessions get last-good (0 = unbounded)")
	ckptPath := flag.String("checkpoint", "", "checkpoint file: restored on start if present, written on drain and every -checkpoint-every ticks")
	ckptEvery := flag.Int("checkpoint-every", 60, "checkpoint every N ticks when -checkpoint is set (0 = only on drain)")
	shards := flag.Int("shards", 1, "independent tick/checkpoint domains; apps are hashed to shards, so a checkpoint only restores at the shard count that wrote it")
	tickWorkers := flag.Int("tick-workers", 0, "concurrent shard tick workers (0 = min(shards, GOMAXPROCS))")

	selftest := flag.Bool("selftest", false, "run the deterministic load harness instead of serving")
	apps := flag.Int("apps", 1000, "selftest: concurrent simulated applications")
	steps := flag.Int("steps", 24, "selftest: fleet steps (one batch per app + one tick each)")
	threads := flag.Int("threads", 4, "selftest: threads per application")
	ways := flag.Int("ways", 16, "selftest: cache ways per application")
	seed := flag.Uint64("seed", 20260808, "selftest: master seed for fleet and fault streams")
	faultCPINoise := flag.Float64("fault-cpi-noise", 0, "selftest: multiplicative CPI counter noise for the faulted subset")
	faultDrop := flag.Float64("fault-drop", 0, "selftest: whole-interval sample-loss probability for the faulted subset")
	faultStuck := flag.Float64("fault-stuck", 0, "selftest: stuck-counter probability for the faulted subset")
	faultFraction := flag.Float64("fault-fraction", 0, "selftest: fraction of the fleet whose telemetry is fault-injected")
	burstEvery := flag.Int("burst-every", 0, "selftest: send oversized batches every N steps (0 = never)")
	sloP99 := flag.Duration("slo-p99", 100*time.Millisecond, "selftest: fail (exit 3) when p99 decision latency exceeds this")
	killStep := flag.Int("kill-step", 0, "selftest: checkpoint+restart the service after this step and verify decisions match an unkilled run (0 = off)")
	asJSON := flag.Bool("json", false, "selftest: emit the report as JSON")
	outPath := flag.String("out", "", "selftest: also write the report as JSON to this file (atomic write)")
	flag.Parse()

	opts := service.Options{
		MaxSessions:       *maxSessions,
		QueueCap:          *queueCap,
		MaxSamplesPerTick: *samplesPerTick,
		PressureHighWater: *highWater,
		Log: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}

	if *selftest {
		os.Exit(runSelftest(selftestConfig{
			opts: opts, apps: *apps, steps: *steps, threads: *threads, ways: *ways,
			seed: *seed, deadline: *deadline, sloP99: *sloP99, killStep: *killStep,
			burstEvery: *burstEvery, asJSON: *asJSON, outPath: *outPath,
			shards: *shards, tickWorkers: *tickWorkers,
			plan: fault.Plan{
				CPINoise:  *faultCPINoise,
				DropRate:  *faultDrop,
				StuckRate: *faultStuck,
			},
			faultFraction: *faultFraction,
		}))
	}
	os.Exit(serve(*listen, opts, *shards, *tickWorkers, *tick, *deadline, *ckptPath, *ckptEvery, nil))
}

// serve runs the daemon until a signal drains it. Returns the exit
// code. bound, when non-nil, receives the actual listen address once
// the socket is open (tests bind port 0).
//
// The daemon always runs the sharded backend; -shards 1 is one domain
// and restores pre-shard checkpoints unchanged, while -shards N>1
// writes per-shard checkpoint files under one manifest and restores
// them concurrently (a manifest from a different -shards is refused).
func serve(listen string, opts service.Options, shards, tickWorkers int, tick, deadline time.Duration,
	ckptPath string, ckptEvery int, bound chan<- string) int {
	svc := service.NewSharded(opts, shards, tickWorkers)
	if ckptPath != "" {
		if _, err := os.Stat(ckptPath); err == nil {
			if err := svc.LoadCheckpoint(ckptPath); err != nil {
				fmt.Fprintln(os.Stderr, "partitiond: restoring checkpoint:", err)
				return exitHard
			}
			st := svc.SnapshotStats()
			fmt.Fprintf(os.Stderr, "partitiond: restored %d sessions (tick %d) from %s\n",
				st.Sessions, st.Ticks, ckptPath)
		}
	}
	handler, err := service.NewServer(svc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "partitiond:", err)
		return exitHard
	}
	srv := &http.Server{Addr: listen, Handler: handler}

	// The ticker goroutine is the only caller of Tick; stopping it (done
	// below, before the final flush) keeps drain ordering simple.
	tickerCtx, stopTicker := context.WithCancel(context.Background())
	tickerDone := make(chan struct{})
	go func() {
		defer close(tickerDone)
		tk := time.NewTicker(tick)
		defer tk.Stop()
		n := 0
		for {
			select {
			case <-tickerCtx.Done():
				return
			case <-tk.C:
				svc.Tick(deadline)
				n++
				if ckptPath != "" && ckptEvery > 0 && n%ckptEvery == 0 {
					if err := svc.SaveCheckpoint(ckptPath); err != nil {
						fmt.Fprintln(os.Stderr, "partitiond: checkpoint:", err)
					}
				}
			}
		}
	}()

	// Register before the listen address is published: a caller may
	// signal as soon as it learns the address, and an unregistered
	// SIGTERM would kill the process instead of draining it.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	// Unregister on every exit path so a leftover second-signal watcher
	// from this serve can never fire on a later process signal (the
	// in-process restart test runs serve twice).
	defer signal.Stop(sigs)

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		stopTicker()
		<-tickerDone
		fmt.Fprintln(os.Stderr, "partitiond:", err)
		return exitHard
	}
	if bound != nil {
		bound <- ln.Addr().String()
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	handler.SetReady(true)
	fmt.Fprintf(os.Stderr, "partitiond: listening on %s (tick %v, deadline %v, %d shards)\n",
		ln.Addr(), tick, deadline, svc.NumShards())

	select {
	case err := <-serveErr:
		stopTicker()
		<-tickerDone
		fmt.Fprintln(os.Stderr, "partitiond:", err)
		return exitHard
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "partitiond: %v: draining (again to kill)\n", sig)
	}

	// Drain: refuse new batches (healthz flips to 503 so load balancers
	// stop sending), wake every parked /alloc?watch=1 long-poll with an
	// immediate 204 (StartDraining closes the watch drain channel, so
	// Shutdown never waits out idle poll windows), finish in-flight
	// requests, flush queued samples through one final unbounded tick,
	// checkpoint, exit.
	svc.StartDraining()
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "partitiond: second signal, exiting immediately")
		os.Exit(exitHard)
	}()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "partitiond: shutdown:", err)
	}
	stopTicker()
	<-tickerDone
	svc.Tick(0) // final flush of queued samples, no deadline
	if ckptPath != "" {
		if err := svc.SaveCheckpoint(ckptPath); err != nil {
			fmt.Fprintln(os.Stderr, "partitiond: final checkpoint:", err)
			return exitHard
		}
	}
	st := svc.SnapshotStats()
	fmt.Fprintf(os.Stderr, "partitiond: drained: %d sessions, %d decisions, %d samples ingested\n",
		st.Sessions, st.Decisions, st.SamplesAccepted)
	return exitOK
}

// selftestConfig carries the -selftest flags into runSelftest.
type selftestConfig struct {
	opts          service.Options
	apps, steps   int
	threads, ways int
	seed          uint64
	plan          fault.Plan
	faultFraction float64
	burstEvery    int
	deadline      time.Duration
	sloP99        time.Duration
	killStep      int
	shards        int
	tickWorkers   int
	asJSON        bool
	outPath       string
}

// selftestReport is the -selftest output payload.
type selftestReport struct {
	Report          loadgen.Report
	SLOP99          time.Duration
	SLOBreached     bool
	RestartVerified bool
	RestartDiverged bool
	// ShardsVerified/ShardsDiverged report the -shards N>1 differential:
	// every app's decision stream compared against an unsharded run of
	// the same fleet.
	ShardsVerified bool
	ShardsDiverged bool
}

// runSelftest executes the load harness and grades the run. Returns
// the process exit code.
func runSelftest(c selftestConfig) int {
	hc := loadgen.HarnessConfig{
		Load: loadgen.Config{
			Apps:          c.apps,
			Threads:       c.threads,
			Ways:          c.ways,
			Seed:          c.seed,
			Fault:         c.plan,
			FaultFraction: c.faultFraction,
			BurstEvery:    c.burstEvery,
		},
		Service:     c.opts,
		Steps:       c.steps,
		Deadline:    c.deadline,
		Shards:      c.shards,
		TickWorkers: c.tickWorkers,
	}
	rep, decisions, err := loadgen.Run(hc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "partitiond: selftest:", err)
		return exitHard
	}
	out := selftestReport{Report: rep, SLOP99: c.sloP99}

	if c.shards > 1 && c.deadline == 0 {
		// Shard differential: the same fleet against the unsharded
		// service must yield byte-identical per-app decision streams
		// (the global interleaving legitimately differs, so the compare
		// is per app).
		uhc := hc
		uhc.Shards, uhc.TickWorkers = 0, 0
		_, udecisions, err := loadgen.Run(uhc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "partitiond: selftest (unsharded differential):", err)
			return exitHard
		}
		out.ShardsVerified = true
		byS, byU := loadgen.DecisionsByApp(decisions), loadgen.DecisionsByApp(udecisions)
		if len(byS) != len(byU) {
			out.ShardsDiverged = true
		}
		for app, ds := range byS {
			if !service.DecisionsEqual(ds, byU[app]) {
				out.ShardsDiverged = true
				fmt.Fprintf(os.Stderr, "partitiond: selftest: app %s diverged between -shards %d and unsharded\n", app, c.shards)
				break
			}
		}
	}

	if c.killStep > 0 {
		// The differential needs an exact decision comparison, which the
		// wall-clock deadline would break; refuse the combination rather
		// than report a spurious divergence.
		if c.deadline > 0 {
			fmt.Fprintln(os.Stderr, "partitiond: selftest: -kill-step requires -deadline 0 (the differential is exact)")
			return exitHard
		}
		khc := hc
		khc.KillAtStep = c.killStep
		dir, err := os.MkdirTemp("", "partitiond-selftest-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "partitiond: selftest:", err)
			return exitHard
		}
		defer os.RemoveAll(dir)
		khc.CheckpointPath = dir + "/selftest.ckpt"
		krep, kdecisions, err := loadgen.Run(khc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "partitiond: selftest (kill/restart):", err)
			return exitHard
		}
		out.RestartVerified = krep.Restarted
		out.RestartDiverged = !service.DecisionsEqual(decisions, kdecisions)
	}
	out.SLOBreached = rep.P99 > c.sloP99

	if c.outPath != "" {
		if err := report.SaveJSON(c.outPath, out); err != nil {
			fmt.Fprintln(os.Stderr, "partitiond: selftest:", err)
			return exitHard
		}
	}
	if c.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "partitiond: selftest:", err)
			return exitHard
		}
	} else {
		printSelftest(out)
	}

	switch {
	case out.SLOBreached:
		fmt.Fprintf(os.Stderr, "partitiond: selftest: p99 %v breaches SLO %v\n", rep.P99, c.sloP99)
		return exitDegraded
	case out.RestartDiverged:
		fmt.Fprintln(os.Stderr, "partitiond: selftest: post-restart decisions diverged from the unkilled run")
		return exitDegraded
	case out.ShardsDiverged:
		fmt.Fprintln(os.Stderr, "partitiond: selftest: sharded decisions diverged from the unsharded run")
		return exitDegraded
	}
	return exitOK
}

// printSelftest renders the human-readable selftest report.
func printSelftest(out selftestReport) {
	rep := out.Report
	t := report.NewTable(
		fmt.Sprintf("partitiond selftest: %d apps x %d steps", rep.Apps, rep.Steps),
		"metric", "value")
	t.AddRow("decisions", rep.Decisions)
	t.AddRow("wall", rep.Wall.Round(time.Millisecond).String())
	t.AddRow("alloc rate (dec/s)", fmt.Sprintf("%.0f", rep.AllocRatePerSec))
	t.AddRow("decision p50", rep.P50.String())
	t.AddRow("decision p99", fmt.Sprintf("%v (SLO %v)", rep.P99, out.SLOP99))
	t.AddRow("samples ingested", rep.Stats.SamplesAccepted)
	t.AddRow("dropped oldest / pressure", fmt.Sprintf("%d / %d", rep.Stats.DroppedOldest, rep.Stats.DroppedPressure))
	t.AddRow("rung model/prop/static", fmt.Sprintf("%d / %d / %d",
		rep.Stats.RungModel, rep.Stats.RungProportional, rep.Stats.RungStatic))
	t.AddRow("last-good deadline/pressure", fmt.Sprintf("%d / %d",
		rep.Stats.LastGoodDeadline, rep.Stats.LastGoodPressure))
	t.AddRow("engine demotions/promotions", fmt.Sprintf("%d / %d",
		rep.Stats.EngineDemotions, rep.Stats.EnginePromotions))
	t.AddRow("engine rejected samples", rep.Stats.EngineRejectedSamples)
	if out.RestartVerified {
		verdict := "identical to unkilled run"
		if out.RestartDiverged {
			verdict = "DIVERGED from unkilled run"
		}
		t.AddRow("kill/restart decisions", verdict)
	}
	if out.ShardsVerified {
		verdict := "identical to unsharded run"
		if out.ShardsDiverged {
			verdict = "DIVERGED from unsharded run"
		}
		t.AddRow("sharded decisions", verdict)
	}
	fmt.Print(t.String())
}
