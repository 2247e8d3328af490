package intracache

// Service benchmarks for the partitiond daemon path: ingest throughput
// (sealed-envelope decode + admission + enqueue) and decision-tick
// latency across a populated session table. They run in the bench-gate
// CI job alongside the figure benchmarks (BenchmarkService matches the
// job's -bench regex), so regressions on the daemon's two hot paths
// are caught by cmd/benchdiff like any simulator regression.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"

	"intracache/internal/fault"
	"intracache/internal/service"
	"intracache/internal/service/loadgen"
	"intracache/internal/sim"
)

// benchServiceSample builds one healthy 4-thread sample; jitter varies
// the counters so consecutive samples are not stuck-counter repeats.
func benchServiceSample(jitter uint64) service.Sample {
	threads := make([]sim.ThreadIntervalStats, 4)
	for t := range threads {
		instr := uint64(100_000)
		threads[t] = sim.ThreadIntervalStats{
			Instructions: instr,
			ActiveCycles: instr*uint64(t+1) + jitter*uint64(t+3),
			StallCycles:  instr / 4,
			L1Misses:     1200 + jitter,
			L2Accesses:   900 + jitter,
			L2Hits:       700,
			L2Misses:     200 + jitter,
		}
	}
	return service.Sample{Threads: threads}
}

func benchServiceBatch(app string, samples int, base uint64) service.Batch {
	b := service.Batch{App: app, Threads: 4, Ways: 16}
	for i := 0; i < samples; i++ {
		b.Samples = append(b.Samples, benchServiceSample(base+uint64(i)*37))
	}
	return b
}

// BenchmarkServiceIngest measures the daemon's wire-to-queue path:
// seal + unseal of one 4-sample batch plus admission and enqueue into
// a steady-state session. Ticks run periodically so the queue never
// saturates into the (cheaper) drop path.
func BenchmarkServiceIngest(b *testing.B) {
	svc := service.New(service.Options{QueueCap: 256, MaxSamplesPerTick: 64})
	payload, err := service.SealJSON(benchServiceBatch("bench-app", 4, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var batch service.Batch
		if err := service.UnsealJSON(payload, &batch); err != nil {
			b.Fatal(err)
		}
		if rep := svc.Ingest(batch); rep.Rejected != "" {
			b.Fatalf("rejected: %+v", rep)
		}
		if i%16 == 15 {
			b.StopTimer()
			svc.Tick(0)
			b.StartTimer()
		}
	}
}

// BenchmarkServiceHTTPIngest measures the same path as partitiond
// serves it: POST /ingest through Server.ServeHTTP, so the handler's
// own envelope check and Batch decode, admission, enqueue and the
// sealed reply are all priced. Request and recorder setup run outside
// the timer.
func BenchmarkServiceHTTPIngest(b *testing.B) {
	svc := service.New(service.Options{QueueCap: 256, MaxSamplesPerTick: 64})
	srv, err := service.NewServer(svc)
	if err != nil {
		b.Fatal(err)
	}
	payload, err := service.SealJSON(benchServiceBatch("bench-app", 4, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(payload))
		rec := httptest.NewRecorder()
		b.StartTimer()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("ingest: %d %q", rec.Code, rec.Body.Bytes())
		}
		if i%16 == 15 {
			b.StopTimer()
			svc.Tick(0)
			b.StartTimer()
		}
	}
}

// BenchmarkServiceIngestSharded measures the same wire-to-queue path
// through the 4-shard front door: FNV shard routing plus the per-shard
// lock. Single-threaded this prices the routing overhead against
// BenchmarkServiceIngest; under -cpu N the RunParallel variant below
// shows the contention win.
func BenchmarkServiceIngestSharded(b *testing.B) {
	sh := service.NewSharded(service.Options{QueueCap: 256, MaxSamplesPerTick: 64}, 4, 0)
	payload, err := service.SealJSON(benchServiceBatch("bench-app", 4, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var batch service.Batch
		if err := service.UnsealJSON(payload, &batch); err != nil {
			b.Fatal(err)
		}
		if rep := sh.Ingest(batch); rep.Rejected != "" {
			b.Fatalf("rejected: %+v", rep)
		}
		if i%16 == 15 {
			b.StopTimer()
			sh.Tick(0)
			b.StartTimer()
		}
	}
}

// BenchmarkServiceIngestShardedParallel drives concurrent producers
// (one app per goroutine, like real agents) into the 4-shard service;
// with one lock per shard, producers on different shards no longer
// serialize. Run with -cpu 1,2,4 to see the scaling; the analogous
// single-lock service flatlines. Queues are bounded, so steady state
// is the drop-oldest regime — the same O(1) enqueue either way, which
// keeps the shard-count comparison fair and the memory flat.
func BenchmarkServiceIngestShardedParallel(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sh := service.NewSharded(service.Options{QueueCap: 256, MaxSamplesPerTick: 64}, shards, 0)
			var next int32
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := atomic.AddInt32(&next, 1)
				app := fmt.Sprintf("agent-%03d", id)
				base := uint64(id) * 1_000_003
				i := uint64(0)
				for pb.Next() {
					i++
					if rep := sh.Ingest(benchServiceBatch(app, 4, base+i*37)); rep.Rejected != "" {
						b.Fatalf("rejected: %+v", rep)
					}
				}
			})
		})
	}
}

// BenchmarkServiceDecisionTick measures one decision round over 64
// populated sessions — the latency the daemon's per-tick SLO bounds.
// Reported ns/op is the full tick; divide by 64 for per-session cost.
func BenchmarkServiceDecisionTick(b *testing.B) {
	const sessions = 64
	svc := service.New(service.Options{QueueCap: 64, MaxSamplesPerTick: 2})
	for s := 0; s < sessions; s++ {
		app := fmt.Sprintf("app-%03d", s)
		if rep := svc.Ingest(benchServiceBatch(app, 2, uint64(s))); rep.Rejected != "" {
			b.Fatalf("seeding %s: %+v", app, rep)
		}
	}
	svc.Tick(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Refill outside the measured region so every tick decides over
		// a full session table.
		b.StopTimer()
		for s := 0; s < sessions; s++ {
			svc.Ingest(benchServiceBatch(fmt.Sprintf("app-%03d", s), 2, uint64(i*sessions+s)))
		}
		b.StartTimer()
		svc.Tick(0)
	}
}

// BenchmarkServiceTickSharded measures one decision round over 256
// populated sessions hashed across 4 shards, ticked by the worker
// pool. Workers default to min(GOMAXPROCS, shards), so -cpu 1,2,4
// sweeps the pool size: at -cpu 1 the reported ns/op prices the
// fan-out overhead against BenchmarkServiceDecisionTick; at -cpu 4
// the four shards decide concurrently.
func BenchmarkServiceTickSharded(b *testing.B) {
	const sessions = 256
	sh := service.NewSharded(service.Options{QueueCap: 64, MaxSamplesPerTick: 2}, 4, 0)
	refill := func(round int) {
		for s := 0; s < sessions; s++ {
			sh.Ingest(benchServiceBatch(fmt.Sprintf("app-%03d", s), 2, uint64(round*sessions+s)))
		}
	}
	refill(0)
	sh.Tick(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		refill(i + 1)
		b.StartTimer()
		sh.Tick(0)
	}
}

// benchCheckpointFleet builds the session table partitiond restores in
// the perfbench partitiond workload: 1024 loadgen apps, 5% of them
// faulted, after 8 ingest-and-tick steps.
func benchCheckpointFleet(b *testing.B) *service.Service {
	gen, err := loadgen.New(loadgen.Config{Apps: 1024, Seed: 1, FaultFraction: 0.05,
		Fault: fault.Plan{CPINoise: 0.5, DropRate: 0.2}})
	if err != nil {
		b.Fatal(err)
	}
	svc := service.New(service.Options{})
	for s := 0; s < 8; s++ {
		for _, bt := range gen.Step() {
			if rep := svc.Ingest(bt); rep.Rejected != "" {
				b.Fatalf("warm-up batch for %s rejected: %+v", bt.App, rep)
			}
		}
		svc.Tick(0)
	}
	return svc
}

// BenchmarkServiceCheckpoint measures partitiond's checkpoint of that
// fleet: save is capture, encode, seal and the atomic write; load is
// read, unseal, decode and Restore into an empty service — the
// daemon's downtime on restart.
func BenchmarkServiceCheckpoint(b *testing.B) {
	svc := benchCheckpointFleet(b)
	path := filepath.Join(b.TempDir(), "fleet.ckpt")
	if err := svc.SaveCheckpoint(path); err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := svc.SaveCheckpoint(path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := service.New(service.Options{}).LoadCheckpoint(path); err != nil {
				b.Fatal(err)
			}
		}
	})
}
