package service

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"intracache/internal/checkpoint"
	"intracache/internal/sim"
)

// mkSample builds a healthy-looking sample: n threads, distinct CPIs,
// plausible hierarchy counters. jitter varies the counters per call so
// consecutive samples are not stuck-counter repeats.
func mkSample(n int, jitter uint64) Sample {
	threads := make([]sim.ThreadIntervalStats, n)
	for t := range threads {
		instr := uint64(100_000)
		threads[t] = sim.ThreadIntervalStats{
			Instructions: instr,
			ActiveCycles: instr*uint64(t+1) + jitter*uint64(t+3),
			StallCycles:  instr / 4,
			L1Misses:     1000 + jitter,
			L2Accesses:   800 + jitter,
			L2Hits:       600,
			L2Misses:     200 + jitter,
		}
	}
	return Sample{Threads: threads}
}

func mkBatch(app string, threads, ways, samples int, base uint64) Batch {
	b := Batch{App: app, Threads: threads, Ways: ways}
	for i := 0; i < samples; i++ {
		b.Samples = append(b.Samples, mkSample(threads, base+uint64(i)*37))
	}
	return b
}

func TestIngestValidation(t *testing.T) {
	svc := New(Options{})
	cases := []struct {
		name string
		b    Batch
		kind string
	}{
		{"empty app", mkBatch("", 4, 16, 1, 0), RejectMalformed},
		{"zero threads", Batch{App: "a", Threads: 0, Ways: 16, Samples: []Sample{{}}}, RejectMalformed},
		{"huge threads", mkBatch("a", maxThreadsPerApp+1, 16, 1, 0), RejectMalformed},
		{"zero ways", mkBatch("a", 4, 0, 1, 0), RejectMalformed},
		{"huge ways", mkBatch("a", 4, maxWaysPerApp+1, 1, 0), RejectMalformed},
		{"no samples", Batch{App: "a", Threads: 4, Ways: 16}, RejectMalformed},
		{"thread mismatch", Batch{App: "a", Threads: 4, Ways: 16,
			Samples: []Sample{mkSample(3, 0)}}, RejectMalformed},
	}
	for _, tc := range cases {
		rep := svc.Ingest(tc.b)
		if rep.Rejected != tc.kind {
			t.Errorf("%s: rejected=%q reason=%q, want %q", tc.name, rep.Rejected, rep.Reason, tc.kind)
		}
	}
	st := svc.SnapshotStats()
	if st.RejectedMalformed != uint64(len(cases)) {
		t.Errorf("RejectedMalformed = %d, want %d", st.RejectedMalformed, len(cases))
	}
	if st.Sessions != 0 {
		t.Errorf("malformed batches created %d sessions", st.Sessions)
	}
}

func TestSessionLimitAndShapeMismatch(t *testing.T) {
	svc := New(Options{MaxSessions: 2})
	if rep := svc.Ingest(mkBatch("a", 4, 16, 1, 0)); rep.Rejected != "" {
		t.Fatalf("first session rejected: %+v", rep)
	}
	if rep := svc.Ingest(mkBatch("b", 2, 8, 1, 0)); rep.Rejected != "" {
		t.Fatalf("second session rejected: %+v", rep)
	}
	if rep := svc.Ingest(mkBatch("c", 4, 16, 1, 0)); rep.Rejected != RejectSessionLimit {
		t.Fatalf("third session: %+v, want session-limit", rep)
	}
	// An existing session's batch still lands while the table is full.
	if rep := svc.Ingest(mkBatch("a", 4, 16, 1, 50)); rep.Rejected != "" {
		t.Fatalf("existing session rejected at the limit: %+v", rep)
	}
	// A shape change is rejected and the session is untouched.
	if rep := svc.Ingest(mkBatch("a", 8, 16, 1, 0)); rep.Rejected != RejectMismatch {
		t.Fatalf("shape change: %+v, want shape-mismatch", rep)
	}
	alloc, ok := svc.Allocation("a")
	if !ok || alloc.Threads != 4 || alloc.Queued != 2 {
		t.Fatalf("session a disturbed by mismatch: %+v ok=%v", alloc, ok)
	}
	st := svc.SnapshotStats()
	if st.RejectedSessionLimit != 1 || st.RejectedMismatch != 1 {
		t.Errorf("taxonomy: limit=%d mismatch=%d, want 1/1", st.RejectedSessionLimit, st.RejectedMismatch)
	}
}

func TestDropOldestBackpressure(t *testing.T) {
	svc := New(Options{QueueCap: 3})
	rep := svc.Ingest(mkBatch("a", 2, 8, 5, 0))
	if rep.Rejected != "" {
		t.Fatalf("rejected: %+v", rep)
	}
	if rep.Accepted != 5 || rep.Dropped != 2 {
		t.Fatalf("accepted=%d dropped=%d, want 5/2", rep.Accepted, rep.Dropped)
	}
	alloc, _ := svc.Allocation("a")
	if alloc.Queued != 3 {
		t.Fatalf("queued=%d, want cap 3", alloc.Queued)
	}
	if st := svc.SnapshotStats(); st.DroppedOldest != 2 {
		t.Fatalf("DroppedOldest=%d, want 2", st.DroppedOldest)
	}
}

func TestTickDecisionsAndEqualSplitStart(t *testing.T) {
	svc := New(Options{})
	svc.Ingest(mkBatch("a", 3, 16, 2, 0))
	ds := svc.Tick(0)
	if len(ds) != 1 {
		t.Fatalf("decisions=%d, want 1", len(ds))
	}
	d := ds[0]
	if d.App != "a" || d.Tick != 1 || d.Samples != 2 || d.Interval != 2 {
		t.Fatalf("decision %+v", d)
	}
	sum := 0
	for _, w := range d.Alloc {
		sum += w
	}
	if sum != 16 || len(d.Alloc) != 3 {
		t.Fatalf("allocation %v does not cover 16 ways over 3 threads", d.Alloc)
	}
	if d.Rung != "model" {
		t.Fatalf("rung=%q, want model on healthy telemetry", d.Rung)
	}
	// Empty queues produce no decision on the next tick.
	if ds := svc.Tick(0); len(ds) != 0 {
		t.Fatalf("idle tick emitted %d decisions", len(ds))
	}
}

func TestPressureRungShedsAndServesLastGood(t *testing.T) {
	svc := New(Options{QueueCap: 64, PressureHighWater: 6, MaxSamplesPerTick: 2})
	svc.Ingest(mkBatch("a", 2, 8, 10, 0))
	ds := svc.Tick(0)
	if len(ds) != 1 || ds[0].Rung != RungLastGood || ds[0].Samples != 0 {
		t.Fatalf("pressure tick: %+v", ds)
	}
	alloc, _ := svc.Allocation("a")
	if alloc.Queued != 2 {
		t.Fatalf("backlog after shed=%d, want MaxSamplesPerTick=2", alloc.Queued)
	}
	st := svc.SnapshotStats()
	if st.LastGoodPressure != 1 || st.DroppedPressure != 8 {
		t.Fatalf("pressure taxonomy: lastgood=%d dropped=%d, want 1/8", st.LastGoodPressure, st.DroppedPressure)
	}
	// The next tick recovers and consults the engine again.
	ds = svc.Tick(0)
	if len(ds) != 1 || ds[0].Rung == RungLastGood {
		t.Fatalf("recovery tick: %+v", ds)
	}
}

func TestDeadlineRungServesLastGood(t *testing.T) {
	// A fake clock that leaps forward per reading trips the deadline
	// after the first session is processed.
	var now time.Time
	svc := New(Options{Now: func() time.Time {
		now = now.Add(40 * time.Millisecond)
		return now
	}})
	svc.Ingest(mkBatch("a", 2, 8, 1, 0))
	svc.Ingest(mkBatch("b", 2, 8, 1, 10))
	svc.Ingest(mkBatch("c", 2, 8, 1, 20))
	ds := svc.Tick(50 * time.Millisecond)
	if len(ds) != 3 {
		t.Fatalf("decisions=%d, want 3", len(ds))
	}
	lastGood := 0
	for _, d := range ds {
		if d.Rung == RungLastGood {
			lastGood++
			if d.Samples != 0 {
				t.Fatalf("deadline rung consumed samples: %+v", d)
			}
		}
	}
	if lastGood == 0 {
		t.Fatalf("no session hit the deadline rung: %+v", ds)
	}
	st := svc.SnapshotStats()
	if st.LastGoodDeadline != uint64(lastGood) {
		t.Fatalf("LastGoodDeadline=%d, want %d", st.LastGoodDeadline, lastGood)
	}
	// Deferred samples survive for the next (unbounded) tick.
	total := 0
	for _, app := range svc.Apps() {
		a, _ := svc.Allocation(app)
		total += a.Queued
	}
	if total != lastGood {
		t.Fatalf("queued after deadline tick=%d, want %d deferred", total, lastGood)
	}
}

func TestDrainingRejectsIngest(t *testing.T) {
	svc := New(Options{})
	svc.Ingest(mkBatch("a", 2, 8, 2, 0))
	svc.StartDraining()
	if !svc.Draining() {
		t.Fatal("Draining() false after StartDraining")
	}
	if rep := svc.Ingest(mkBatch("a", 2, 8, 1, 0)); rep.Rejected != RejectDraining {
		t.Fatalf("ingest while draining: %+v", rep)
	}
	// Ticks still run so queued work can be flushed before exit.
	if ds := svc.Tick(0); len(ds) != 1 {
		t.Fatalf("draining tick emitted %d decisions, want 1", len(ds))
	}
	if st := svc.SnapshotStats(); st.RejectedDraining != 1 {
		t.Fatalf("RejectedDraining=%d", st.RejectedDraining)
	}
}

// runScript drives a fixed ingest/tick schedule and returns the
// decision stream; used by the determinism and restart tests.
func runScript(t *testing.T, svc *Service, killAt int, path string) []Decision {
	t.Helper()
	var out []Decision
	for step := 1; step <= 8; step++ {
		for i, app := range []string{"alpha", "beta", "gamma"} {
			b := mkBatch(app, 2, 8, 2, uint64(step*100+i*10))
			if rep := svc.Ingest(b); rep.Rejected != "" {
				t.Fatalf("step %d app %s rejected: %+v", step, app, rep)
			}
		}
		out = append(out, svc.Tick(0)...)
		if killAt == step {
			if err := svc.SaveCheckpoint(path); err != nil {
				t.Fatalf("SaveCheckpoint: %v", err)
			}
			svc = New(Options{})
			if err := svc.LoadCheckpoint(path); err != nil {
				t.Fatalf("LoadCheckpoint: %v", err)
			}
		}
	}
	return out
}

func TestDecisionDeterminismAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	straight := runScript(t, New(Options{}), 0, "")
	restarted := runScript(t, New(Options{}), 4, filepath.Join(dir, "svc.ckpt"))
	if !DecisionsEqual(straight, restarted) {
		t.Fatalf("restarted decision stream diverged\nstraight:  %+v\nrestarted: %+v", straight, restarted)
	}
	// And a plain re-run is bit-identical too.
	again := runScript(t, New(Options{}), 0, "")
	if !DecisionsEqual(straight, again) {
		t.Fatal("two identical runs diverged")
	}
}

func TestRestoreRefusesNonEmptyService(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "svc.ckpt")
	svc := New(Options{})
	svc.Ingest(mkBatch("a", 2, 8, 1, 0))
	if err := svc.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if err := svc.LoadCheckpoint(path); err == nil {
		t.Fatal("restore into a non-empty service succeeded")
	}
}

// A sealed, CRC-valid checkpoint whose model carries a NaN CPI must be
// refused at load. Restoring it used to succeed, and the next Tick
// then panicked inside the engine while holding the service lock.
func TestLoadCheckpointRefusesInvalidModelPoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "svc.ckpt")
	svc := New(Options{})
	for step := 0; step < 6; step++ {
		svc.Ingest(mkBatch("a", 2, 8, 2, uint64(step*100)))
		svc.Tick(0)
	}
	st, err := svc.State()
	if err != nil {
		t.Fatal(err)
	}
	model := st.Sessions[0].Runtime.Engine.Resilient.Model.Models[0]
	if len(model.Points) < 2 {
		t.Fatalf("model has %d points; the crafted checkpoint needs a fit", len(model.Points))
	}
	for w := range model.Points {
		model.Points[w] = math.NaN()
		break
	}
	if err := checkpoint.SaveGob(path, &st); err != nil {
		t.Fatal(err)
	}
	fresh := New(Options{})
	err = fresh.LoadCheckpoint(path)
	if err == nil || !strings.Contains(err.Error(), "invalid") {
		t.Fatalf("LoadCheckpoint of a NaN model point: err %v, want a refusal", err)
	}
	// The refused load leaves the service empty and serving.
	if rep := fresh.Ingest(mkBatch("a", 2, 8, 2, 0)); rep.Rejected != "" {
		t.Fatalf("ingest after refused load: %+v", rep)
	}
	if ds := fresh.Tick(0); len(ds) != 1 {
		t.Fatalf("tick after refused load: %+v", ds)
	}
}

func TestStateRoundTripPreservesCounters(t *testing.T) {
	svc := New(Options{QueueCap: 3})
	svc.Ingest(mkBatch("a", 2, 8, 5, 0)) // forces drop-oldest
	svc.Tick(0)
	svc.Ingest(mkBatch("a", 4, 8, 1, 0)) // shape mismatch
	st, err := svc.State()
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(Options{QueueCap: 3})
	if err := fresh.Restore(st); err != nil {
		t.Fatal(err)
	}
	a, b := svc.SnapshotStats(), fresh.SnapshotStats()
	a.LatencyP50, a.LatencyP99, a.LatencySamples = 0, 0, 0
	b.LatencyP50, b.LatencyP99, b.LatencySamples = 0, 0, 0
	if a != b {
		t.Fatalf("stats diverged across restore:\n%+v\n%+v", a, b)
	}
}

// TestOrderNeverLeaksEntries audits the insertion-order slice's growth
// bound: order only grows behind the MaxSessions admission check,
// sessions are never evicted, and restore rebuilds it validated
// entry-for-entry — so len(order) == len(sessions) ≤ MaxSessions holds
// through admission, rejection, mismatch, restart, and repeated
// batches to existing sessions.
func TestOrderNeverLeaksEntries(t *testing.T) {
	const cap = 8
	svc := New(Options{MaxSessions: cap})
	check := func(label string) {
		t.Helper()
		svc.mu.Lock()
		defer svc.mu.Unlock()
		if len(svc.order) != len(svc.sessions) {
			t.Fatalf("%s: order has %d entries for %d sessions", label, len(svc.order), len(svc.sessions))
		}
		if len(svc.order) > cap {
			t.Fatalf("%s: order grew past MaxSessions: %d > %d", label, len(svc.order), cap)
		}
		seen := make(map[string]bool)
		for _, app := range svc.order {
			if seen[app] {
				t.Fatalf("%s: duplicate order entry %q", label, app)
			}
			seen[app] = true
			if svc.sessions[app] == nil {
				t.Fatalf("%s: order entry %q has no session", label, app)
			}
		}
	}
	// Fill to the cap, then hammer it: over-cap admissions, repeated
	// batches to existing apps, shape mismatches, malformed batches.
	for round := 0; round < 3; round++ {
		for i := 0; i < 2*cap; i++ {
			svc.Ingest(mkBatch(fmt.Sprintf("app-%02d", i), 2, 8, 1, uint64(round*100+i)))
		}
		svc.Ingest(mkBatch("app-00", 4, 8, 1, 0)) // mismatch
		svc.Ingest(mkBatch("", 2, 8, 1, 0))       // malformed
		svc.Tick(0)
		check(fmt.Sprintf("round %d", round))
	}
	// And across a checkpoint restart.
	path := filepath.Join(t.TempDir(), "order.ckpt")
	if err := svc.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	svc = New(Options{MaxSessions: cap})
	if err := svc.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	check("after restore")
	if st := svc.SnapshotStats(); st.Sessions != cap {
		t.Fatalf("sessions=%d, want the cap %d", st.Sessions, cap)
	}
}

// TestEpochBumpsOnlyOnChange pins the watch contract: the epoch starts
// at 1, advances when a decision changes the allocation or the rung,
// and stays put when a decision changes nothing a client can observe
// (consecutive last-good decisions).
func TestEpochBumpsOnlyOnChange(t *testing.T) {
	svc := New(Options{QueueCap: 64, PressureHighWater: 4, MaxSamplesPerTick: 2})
	svc.Ingest(mkBatch("a", 2, 8, 1, 0))
	alloc, _ := svc.Allocation("a")
	if alloc.Epoch != 1 {
		t.Fatalf("creation epoch=%d, want 1", alloc.Epoch)
	}

	// Force the pressure rung twice in a row: the first last-good is a
	// rung change (bump), the second changes nothing (no bump).
	svc.Ingest(mkBatch("a", 2, 8, 8, 10))
	d1 := svc.Tick(0)[0]
	if d1.Rung != RungLastGood {
		t.Fatalf("first pressure tick rung=%q", d1.Rung)
	}
	svc.Ingest(mkBatch("a", 2, 8, 8, 20))
	d2 := svc.Tick(0)[0]
	if d2.Rung != RungLastGood {
		t.Fatalf("second pressure tick rung=%q", d2.Rung)
	}
	if d1.Epoch != 2 || d2.Epoch != 2 {
		t.Fatalf("last-good epochs %d, %d: want one bump to 2, then hold", d1.Epoch, d2.Epoch)
	}
	// Recovery to the engine chain is a rung change again.
	d3 := svc.Tick(0)[0]
	if d3.Rung == RungLastGood || d3.Epoch != 3 {
		t.Fatalf("recovery decision %+v, want engine rung at epoch 3", d3)
	}
	// Epoch survives a checkpoint round trip.
	path := filepath.Join(t.TempDir(), "epoch.ckpt")
	if err := svc.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	fresh := New(Options{})
	if err := fresh.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	alloc, _ = fresh.Allocation("a")
	if alloc.Epoch != d3.Epoch {
		t.Fatalf("restored epoch=%d, want %d", alloc.Epoch, d3.Epoch)
	}
}

// TestAllocationWatch pins the long-poll path: immediate answer when
// the epoch already moved, blocking wake-up on the next change, ctx
// expiry with no change, and unknown apps.
func TestAllocationWatch(t *testing.T) {
	svc := New(Options{})
	if _, err := svc.AllocationWatch(context.Background(), "ghost", 0); err != ErrUnknownApp {
		t.Fatalf("unknown app: %v", err)
	}
	svc.Ingest(mkBatch("a", 2, 8, 2, 0))

	// sinceEpoch 0 < creation epoch 1: immediate.
	alloc, err := svc.AllocationWatch(context.Background(), "a", 0)
	if err != nil || alloc.Epoch != 1 {
		t.Fatalf("immediate watch: %+v, %v", alloc, err)
	}

	// Parked watcher wakes when a tick changes the allocation.
	type res struct {
		alloc Allocation
		err   error
	}
	got := make(chan res, 1)
	go func() {
		a, err := svc.AllocationWatch(context.Background(), "a", 1)
		got <- res{a, err}
	}()
	// The watcher must be parked, not spinning on the lock: give it a
	// moment to register, then decide.
	time.Sleep(10 * time.Millisecond)
	select {
	case r := <-got:
		t.Fatalf("watch returned before any change: %+v", r)
	default:
	}
	svc.Tick(0)
	select {
	case r := <-got:
		if r.err != nil || r.alloc.Epoch < 2 {
			t.Fatalf("woken watch: %+v, %v", r.alloc, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("watcher never woke after an allocation change")
	}

	// ctx expiry with no change returns the context error.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	cur, _ := svc.Allocation("a")
	if _, err := svc.AllocationWatch(ctx, "a", cur.Epoch); err != context.DeadlineExceeded {
		t.Fatalf("expired watch: %v", err)
	}
}

// TestAllocationWatchWakesOnDrain pins the shutdown path: a parked
// watcher is woken with ErrDraining the instant StartDraining runs —
// graceful drains must never wait out idle long-poll windows — and a
// watch arriving after the drain started returns immediately too.
func TestAllocationWatchWakesOnDrain(t *testing.T) {
	svc := New(Options{})
	svc.Ingest(mkBatch("a", 2, 8, 2, 0))
	svc.Tick(0)
	cur, _ := svc.Allocation("a")

	got := make(chan error, 1)
	go func() {
		_, err := svc.AllocationWatch(context.Background(), "a", cur.Epoch)
		got <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the watcher park
	svc.StartDraining()
	select {
	case err := <-got:
		if err != ErrDraining {
			t.Fatalf("drained watch: %v, want ErrDraining", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked watcher never woke on drain")
	}

	// A watch arriving mid-drain does not park either.
	if _, err := svc.AllocationWatch(context.Background(), "a", cur.Epoch); err != ErrDraining {
		t.Fatalf("watch during drain: %v, want ErrDraining", err)
	}
	// But one whose epoch already moved still gets its answer: drain
	// only suppresses parking, never a ready result.
	if alloc, err := svc.AllocationWatch(context.Background(), "a", 0); err != nil || alloc.App != "a" {
		t.Fatalf("satisfiable watch during drain: %+v, %v", alloc, err)
	}
	// Idempotent (the drain channel must close exactly once).
	svc.StartDraining()
}

func TestCountWireReject(t *testing.T) {
	svc := New(Options{})
	svc.CountWireReject()
	st := svc.SnapshotStats()
	if st.BatchesRejected != 1 || st.RejectedMalformed != 1 {
		t.Fatalf("wire reject not counted: %+v", st)
	}
}
