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
//
// -shards N hashes applications over N independent tick/checkpoint
// domains ticked concurrently by -tick-workers workers; per-session
// decisions are bit-identical to -shards 1. Checkpoints become one
// manifest plus one file per shard, and a manifest only restores at the
// shard count that wrote it.
//
// Serving endpoints: POST /ingest, GET /alloc?app= (add &watch=1&epoch=N
// to long-poll for the next allocation change), GET /stats,
// GET /healthz, GET /readyz. SIGINT/SIGTERM starts a drain: /healthz
// flips to 503 "draining", new batches are rejected, in-flight
// requests finish, queued samples get a final decision tick, state is
// checkpointed, and the process exits 0. A second signal exits 1
// immediately.
//
// Exit codes: 0 after a clean drain, 1 on hard errors (a checkpoint
// that does not restore, a listen failure), 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"intracache/internal/service"
)

// Exit codes (documented in README.md).
const (
	exitOK    = 0
	exitHard  = 1
	exitUsage = 2
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
	flag.Parse()
	if *tick <= 0 {
		fmt.Fprintf(os.Stderr, "partitiond: -tick must be positive, got %v\n", *tick)
		os.Exit(exitUsage)
	}

	opts := service.Options{
		MaxSessions:       *maxSessions,
		QueueCap:          *queueCap,
		MaxSamplesPerTick: *samplesPerTick,
		PressureHighWater: *highWater,
		Log: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
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
