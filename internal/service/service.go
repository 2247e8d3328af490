// Package service packages the paper's runtime system as a
// long-running partitioning daemon. The batch reproduction runs one
// core.ResilientEngine inside one simulation; partitiond runs one per
// *application*, for thousands of concurrent applications, fed by
// streams of per-thread counter samples arriving over HTTP instead of
// from a simulator loop.
//
// The hard part at service scale is not model quality but decision
// latency, bad samples, and churn, so the design is robustness-first:
//
//   - Bounded admission: at most MaxSessions applications; a batch for
//     a new application beyond the cap is rejected, never queued.
//   - Bounded queues with drop-oldest backpressure: each session holds
//     at most QueueCap pending samples; overflow drops the oldest
//     sample (the stalest telemetry) and accounts for it. Ingest can
//     therefore never grow memory without bound or block a producer.
//   - Bounded decision work: a tick pushes at most MaxSamplesPerTick
//     samples per session through its engine, and an optional per-tick
//     wall-clock budget caps total decision latency.
//   - A service-level degradation rung below the engine's own chain:
//     the ResilientEngine already degrades model → CPI-proportional →
//     static-equal on bad telemetry; the service extends the chain
//     with "last-good" — when the tick deadline trips before a session
//     is reached, or a session's queue is over the pressure high-water
//     mark, the session is served its last-good allocation unchanged
//     and its engine is not consulted at all. Degraded sessions never
//     delay healthy neighbours.
//
// Everything that steers decisions is deterministic: sessions are
// iterated in insertion order with a tick-rotated starting point, and
// every allocation is a pure function of the ingested sample sequence
// and the tick schedule. Wall-clock only decides *when* queued samples
// get processed (deadline trips defer them), never what the engine
// computes from them — which is what makes the kill/restart
// differential in the soak harness possible: a service restored from
// its checkpoint and fed the same remaining schedule emits decisions
// identical to one that was never killed.
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"intracache/internal/cache"
	"intracache/internal/core"
	"intracache/internal/sim"
)

// Sample is one execution interval's per-thread counters for one
// application, as reported by its telemetry agent. Interval is the
// producer's own numbering (informational); the service keeps its own
// per-session processed-sample count for engine interval indices.
type Sample struct {
	Interval int
	Threads  []sim.ThreadIntervalStats
}

// Batch is the ingest unit: a burst of samples for one application.
// Threads and Ways declare the session shape; once a session exists,
// every subsequent batch must agree (a shape change is a malformed
// batch, not a silent reconfiguration).
type Batch struct {
	App     string
	Threads int
	Ways    int
	Samples []Sample
}

// Rejection kinds carried in IngestReply.Rejected. An empty Rejected
// means the batch was accepted (possibly with oldest-drops).
const (
	RejectDraining     = "draining"
	RejectSessionLimit = "session-limit"
	RejectMalformed    = "malformed"
	RejectMismatch     = "shape-mismatch"
)

// IngestReply is the service's answer to one batch.
type IngestReply struct {
	// Accepted is how many samples were enqueued.
	Accepted int
	// Dropped is how many *older* queued samples this batch pushed out
	// (drop-oldest backpressure); the producer should slow down.
	Dropped int
	// Rejected is one of the Reject* kinds when the whole batch was
	// refused, with Reason carrying the detail.
	Rejected string
	Reason   string
}

// RungLastGood is the service-level degradation rung appended below
// the engine chain (model → proportional → static → last-good): the
// session was served its previous allocation without consulting its
// engine, because the decision deadline or queue pressure tripped.
const RungLastGood = "last-good"

// Decision is one tick's outcome for one session.
type Decision struct {
	App string
	// Tick is the service-global tick that emitted the decision.
	Tick uint64
	// Interval is the session's processed-sample count after the tick.
	Interval int
	// Samples is how many queued samples the tick consumed (0 on the
	// last-good rung).
	Samples int
	// Alloc is the per-thread way allocation now in force.
	Alloc []int
	// Rung is the degradation rung that produced the allocation:
	// "model", "proportional", "static" (the engine chain) or
	// "last-good" (the service rung).
	Rung string
	// Epoch is the session's allocation epoch after the decision. It
	// bumps only when the decision actually changed something a client
	// can observe (the allocation or the rung), so it is what /alloc
	// watchers long-poll on — and, being a pure function of the decision
	// history, it is pinned by the same differentials as the rest.
	Epoch uint64
	// Latency is the measured wall-clock cost of this session's
	// decision work. It is measurement, not state: two otherwise
	// identical runs differ here, which is why DecisionsEqual ignores
	// it.
	Latency time.Duration
}

// DecisionsEqual reports whether two decision streams are identical in
// every steering field (everything but the measured Latency). The soak
// harness uses it to pin kill/restart and cross-session determinism.
func DecisionsEqual(a, b []Decision) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.App != y.App || x.Tick != y.Tick || x.Interval != y.Interval ||
			x.Samples != y.Samples || x.Rung != y.Rung || x.Epoch != y.Epoch ||
			len(x.Alloc) != len(y.Alloc) {
			return false
		}
		for j := range x.Alloc {
			if x.Alloc[j] != y.Alloc[j] {
				return false
			}
		}
	}
	return true
}

// Options configures a Service. The zero value gets workable defaults.
type Options struct {
	// MaxSessions bounds concurrent applications (default 4096). A
	// batch for a new application beyond the cap is rejected.
	MaxSessions int
	// QueueCap bounds each session's pending-sample queue (default 64).
	// A full queue drops its oldest sample per arrival.
	QueueCap int
	// MaxSamplesPerTick bounds how many queued samples one tick pushes
	// through one session's engine (default 8).
	MaxSamplesPerTick int
	// PressureHighWater is the queue length at which a session is under
	// pressure at tick time: the tick serves its last-good allocation,
	// sheds the backlog down to the newest MaxSamplesPerTick samples,
	// and lets the next tick recover (default QueueCap).
	PressureHighWater int
	// Now is the deadline clock, a seam for deterministic tests
	// (default time.Now).
	Now func() time.Time
	// Log receives diagnostics; nil discards them.
	Log func(format string, args ...interface{})
}

func (o Options) maxSessions() int {
	if o.MaxSessions <= 0 {
		return 4096
	}
	return o.MaxSessions
}

func (o Options) queueCap() int {
	if o.QueueCap <= 0 {
		return 64
	}
	return o.QueueCap
}

func (o Options) maxSamplesPerTick() int {
	if o.MaxSamplesPerTick <= 0 {
		return 8
	}
	return o.MaxSamplesPerTick
}

func (o Options) pressureHighWater() int {
	if o.PressureHighWater <= 0 {
		return o.queueCap()
	}
	return o.PressureHighWater
}

// Validation caps: a batch that claims shapes beyond these is
// malformed, not ambitious. They bound per-session allocation work.
const (
	maxThreadsPerApp = 256
	maxWaysPerApp    = 4096
	maxSamplesPerBat = 4096
)

// Stats is the service's cumulative accounting: the ingest, drop, and
// degradation taxonomy the soak harness and /stats endpoint report.
// Counter fields are part of the checkpointed state (they must survive
// a restart for the differential to hold); the Latency* fields are
// measurements filled in by SnapshotStats and never checkpointed.
type Stats struct {
	Sessions     int
	PeakSessions int
	Ticks        uint64

	BatchesAccepted      uint64
	BatchesRejected      uint64
	RejectedDraining     uint64
	RejectedSessionLimit uint64
	RejectedMalformed    uint64
	RejectedMismatch     uint64

	SamplesAccepted uint64
	// DroppedOldest counts queue-overflow drops at ingest (backpressure);
	// DroppedPressure counts backlog sheds by the pressure rung at tick.
	DroppedOldest   uint64
	DroppedPressure uint64

	Decisions        uint64
	RungModel        uint64
	RungProportional uint64
	RungStatic       uint64
	// LastGoodDeadline and LastGoodPressure split the service rung by
	// trigger: tick-deadline exhaustion vs queue pressure.
	LastGoodDeadline uint64
	LastGoodPressure uint64

	// Aggregates over the per-session engines (filled by SnapshotStats).
	EngineDemotions       int
	EnginePromotions      int
	EngineRejectedSamples uint64
	InvalidAssignments    int

	// Decision-latency percentiles over the recent-latency ring
	// (measurement only; zero right after a restart).
	LatencyP50     time.Duration
	LatencyP99     time.Duration
	LatencySamples int
}

// session is one application's partitioning state.
type session struct {
	app     string
	threads int
	ways    int

	queue []Sample

	eng *core.ResilientEngine
	rts *core.RuntimeSystem

	current  []int
	interval int
	lastRung string
	lastTick uint64

	// epoch counts observable allocation changes: it starts at 1 (the
	// initial equal split is observable state) and bumps only when a
	// decision changes the allocation or the rung. watch is closed and
	// replaced on every bump; AllocationWatch long-polls on it.
	epoch uint64
	watch chan struct{}

	droppedOldest   uint64
	droppedPressure uint64
	mismatches      uint64
}

// bumpEpoch advances the session's allocation epoch and wakes every
// watcher. Caller holds the service lock.
func (sess *session) bumpEpoch() {
	sess.epoch++
	close(sess.watch)
	sess.watch = make(chan struct{})
}

// allocChanged reports whether the session's current allocation or rung
// differs from the given pre-decision snapshot.
func (sess *session) allocChanged(oldRung string, oldAlloc []int) bool {
	if sess.lastRung != oldRung || len(sess.current) != len(oldAlloc) {
		return true
	}
	for i := range oldAlloc {
		if sess.current[i] != oldAlloc[i] {
			return true
		}
	}
	return false
}

// Service is the partitioning daemon's core: a session table behind
// one lock, mutated only by Ingest, Tick, and Restore. It carries no
// goroutines of its own — the owner decides the tick cadence — so its
// behaviour is a pure function of the call sequence.
type Service struct {
	mu       sync.Mutex
	opts     Options
	sessions map[string]*session
	// order is the insertion order: the deterministic iteration order.
	// It only ever grows in newSession (behind the MaxSessions admission
	// check) and is rebuilt verbatim by Restore (which validates it
	// entry-for-entry against Sessions), so its length is always exactly
	// len(sessions) and never exceeds maxSessions(); sessions are never
	// evicted, so there is no delete path to leak through.
	// TestOrderNeverLeaksEntries audits the invariant.
	order []string
	rr    int // rotating tick start index (fairness under deadline pressure)
	tick  uint64
	// draining is atomic so Draining() — polled by /healthz and /readyz
	// on every probe — never contends with ingest/tick on the session
	// lock. drain is closed exactly once when draining flips, waking
	// every parked AllocationWatch so a graceful shutdown never waits
	// out idle long-polls.
	draining atomic.Bool
	drain    chan struct{}
	stats    Stats
	lat      latRing
}

// Backend is the surface the HTTP server, the daemon, and the load
// harness program against: both the single-lock Service and the
// Sharded fan-out implement it, so every layer above is shard-blind.
type Backend interface {
	Ingest(Batch) IngestReply
	CountWireReject()
	Tick(budget time.Duration) []Decision
	Allocation(app string) (Allocation, bool)
	AllocationWatch(ctx context.Context, app string, sinceEpoch uint64) (Allocation, error)
	Apps() []string
	SnapshotStats() Stats
	StartDraining()
	Draining() bool
	SaveCheckpoint(path string) error
	LoadCheckpoint(path string) error
}

var (
	_ Backend = (*Service)(nil)
	_ Backend = (*Sharded)(nil)
)

// New builds an empty service.
func New(opts Options) *Service {
	return &Service{opts: opts, sessions: make(map[string]*session), drain: make(chan struct{})}
}

func (s *Service) logf(format string, args ...interface{}) {
	if s.opts.Log != nil {
		s.opts.Log(format, args...)
	}
}

func (s *Service) now() time.Time {
	if s.opts.Now != nil {
		return s.opts.Now()
	}
	return time.Now()
}

// StartDraining flips the service into shutdown mode: every subsequent
// batch is rejected with RejectDraining, and every parked
// AllocationWatch is woken with ErrDraining so the HTTP server's
// graceful shutdown never blocks on idle long-polls. Ticks still run,
// so queued samples can be flushed before the final checkpoint if the
// owner wants; Draining reports the state for health endpoints.
func (s *Service) StartDraining() {
	if s.draining.CompareAndSwap(false, true) {
		close(s.drain)
	}
}

// Draining reports whether StartDraining has been called. Lock-free:
// health probes hammer this and must not contend with ingest/tick.
func (s *Service) Draining() bool {
	return s.draining.Load()
}

// validateBatch returns a rejection kind and reason for a structurally
// bad batch, or "" when the batch is well-formed.
func validateBatch(b Batch) (string, string) {
	switch {
	case b.App == "":
		return RejectMalformed, "empty application id"
	case b.Threads <= 0 || b.Threads > maxThreadsPerApp:
		return RejectMalformed, fmt.Sprintf("thread count %d outside [1,%d]", b.Threads, maxThreadsPerApp)
	case b.Ways <= 0 || b.Ways > maxWaysPerApp:
		return RejectMalformed, fmt.Sprintf("way count %d outside [1,%d]", b.Ways, maxWaysPerApp)
	case len(b.Samples) == 0:
		return RejectMalformed, "no samples"
	case len(b.Samples) > maxSamplesPerBat:
		return RejectMalformed, fmt.Sprintf("%d samples exceed the %d per-batch cap", len(b.Samples), maxSamplesPerBat)
	}
	for i, smp := range b.Samples {
		if len(smp.Threads) != b.Threads {
			return RejectMalformed, fmt.Sprintf("sample %d has %d threads, batch declares %d", i, len(smp.Threads), b.Threads)
		}
	}
	return "", ""
}

// Ingest admits one batch: validate, admit or reject the session, and
// enqueue with drop-oldest backpressure. It never blocks and never
// touches any engine — decision work happens only in Tick, which is
// what keeps a flood of telemetry from one application from delaying
// every other application's decisions.
func (s *Service) Ingest(b Batch) IngestReply {
	s.mu.Lock()
	defer s.mu.Unlock()

	if s.draining.Load() {
		s.stats.BatchesRejected++
		s.stats.RejectedDraining++
		return IngestReply{Rejected: RejectDraining, Reason: "service is shutting down"}
	}
	if kind, reason := validateBatch(b); kind != "" {
		s.stats.BatchesRejected++
		s.stats.RejectedMalformed++
		return IngestReply{Rejected: kind, Reason: reason}
	}

	sess := s.sessions[b.App]
	switch {
	case sess == nil:
		if len(s.sessions) >= s.opts.maxSessions() {
			s.stats.BatchesRejected++
			s.stats.RejectedSessionLimit++
			return IngestReply{Rejected: RejectSessionLimit,
				Reason: fmt.Sprintf("session table full (%d)", s.opts.maxSessions())}
		}
		sess = s.newSession(b.App, b.Threads, b.Ways)
	case sess.threads != b.Threads || sess.ways != b.Ways:
		// A shape change mid-session is bad telemetry, and it is *this*
		// session's bad telemetry: reject the batch, count it against
		// the session, leave its state (and every neighbour) untouched.
		sess.mismatches++
		s.stats.BatchesRejected++
		s.stats.RejectedMismatch++
		return IngestReply{Rejected: RejectMismatch,
			Reason: fmt.Sprintf("session is %d threads / %d ways, batch declares %d / %d",
				sess.threads, sess.ways, b.Threads, b.Ways)}
	}

	qcap := s.opts.queueCap()
	dropped := 0
	for _, smp := range b.Samples {
		if len(sess.queue) >= qcap {
			// Drop the stalest telemetry, not the freshest: old samples
			// describe behaviour the application has already moved past.
			sess.queue = sess.queue[1:]
			dropped++
		}
		cp := smp
		cp.Threads = append([]sim.ThreadIntervalStats(nil), smp.Threads...)
		sess.queue = append(sess.queue, cp)
	}
	sess.droppedOldest += uint64(dropped)
	s.stats.DroppedOldest += uint64(dropped)
	s.stats.BatchesAccepted++
	s.stats.SamplesAccepted += uint64(len(b.Samples))
	return IngestReply{Accepted: len(b.Samples), Dropped: dropped}
}

// CountWireReject accounts for a batch that never made it to Ingest —
// an undecodable or corrupt envelope at the HTTP layer. It lands in
// the malformed bucket so the taxonomy covers wire-level damage too.
func (s *Service) CountWireReject() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.BatchesRejected++
	s.stats.RejectedMalformed++
}

// newSession creates a session with an equal-split allocation and a
// fresh resilient engine. Caller holds the lock.
func (s *Service) newSession(app string, threads, ways int) *session {
	eng := core.NewResilientEngine()
	rts, err := core.NewRuntimeSystem(eng)
	if err != nil {
		// Unreachable: the engine is never nil. Guard anyway.
		panic(err)
	}
	sess := &session{
		app:      app,
		threads:  threads,
		ways:     ways,
		eng:      eng,
		rts:      rts,
		current:  cache.EqualSplit(ways, threads),
		lastRung: core.HealthModel.String(),
		epoch:    1,
		watch:    make(chan struct{}),
	}
	s.sessions[app] = sess
	s.order = append(s.order, app)
	if len(s.sessions) > s.stats.PeakSessions {
		s.stats.PeakSessions = len(s.sessions)
	}
	return sess
}

// Tick runs one decision round: sessions are visited in insertion
// order starting from a tick-rotated index, and each session with
// pending samples gets exactly one Decision. budget > 0 arms the
// per-tick decision deadline — once it is exhausted, every remaining
// session is served its last-good allocation and its samples stay
// queued for the next tick. budget <= 0 means unbounded (the fully
// deterministic mode the differential tests run in).
func (s *Service) Tick(budget time.Duration) []Decision {
	s.mu.Lock()
	defer s.mu.Unlock()

	s.tick++
	s.stats.Ticks++
	n := len(s.order)
	if n == 0 {
		return nil
	}
	start := s.rr % n
	s.rr = (s.rr + 1) % n

	var deadline time.Time
	if budget > 0 {
		deadline = s.now().Add(budget)
	}
	var out []Decision
	for i := 0; i < n; i++ {
		sess := s.sessions[s.order[(start+i)%n]]
		if len(sess.queue) == 0 {
			continue
		}
		switch {
		case budget > 0 && !s.now().Before(deadline):
			s.stats.LastGoodDeadline++
			out = append(out, s.serveLastGood(sess))
		case len(sess.queue) >= s.opts.pressureHighWater():
			// Queue pressure: the producer is outrunning the decision
			// budget. Shed the backlog down to the newest samples (they
			// describe the present), serve last-good now, and let the
			// next tick process the survivors normally.
			keep := s.opts.maxSamplesPerTick()
			if drop := len(sess.queue) - keep; drop > 0 {
				sess.queue = append([]Sample(nil), sess.queue[drop:]...)
				sess.droppedPressure += uint64(drop)
				s.stats.DroppedPressure += uint64(drop)
			}
			s.stats.LastGoodPressure++
			out = append(out, s.serveLastGood(sess))
		default:
			out = append(out, s.process(sess))
		}
	}
	return out
}

// serveLastGood emits the service-rung decision: the current
// allocation, untouched engine. Caller holds the lock and has already
// counted the trigger.
func (s *Service) serveLastGood(sess *session) Decision {
	if sess.lastRung != RungLastGood {
		// The allocation is by definition unchanged, but the rung is
		// client-observable state: the first last-good in a row bumps.
		sess.lastRung = RungLastGood
		sess.bumpEpoch()
	}
	sess.lastTick = s.tick
	s.stats.Decisions++
	return Decision{
		App:      sess.app,
		Tick:     s.tick,
		Interval: sess.interval,
		Alloc:    append([]int(nil), sess.current...),
		Rung:     RungLastGood,
		Epoch:    sess.epoch,
	}
}

// process drains up to MaxSamplesPerTick queued samples through the
// session's engine and emits the resulting allocation. Caller holds
// the lock.
func (s *Service) process(sess *session) Decision {
	t0 := s.now()
	k := s.opts.maxSamplesPerTick()
	if k > len(sess.queue) {
		k = len(sess.queue)
	}
	oldRung := sess.lastRung
	oldAlloc := append([]int(nil), sess.current...)
	mon := monitors{ways: sess.ways, threads: sess.threads}
	for j := 0; j < k; j++ {
		iv := sim.IntervalStats{Index: sess.interval,
			Threads: append([]sim.ThreadIntervalStats(nil), sess.queue[j].Threads...)}
		// The service, not the producer, knows what allocation was in
		// force: stamp it server-side so a confused (or malicious)
		// producer cannot teach the model a false ways→CPI mapping.
		for t := range iv.Threads {
			iv.Threads[t].WaysAssigned = sess.current[t]
		}
		if targets := sess.rts.OnInterval(iv, mon); targets != nil {
			sess.current = append(sess.current[:0], targets...)
		}
		sess.interval++
	}
	sess.queue = append([]Sample(nil), sess.queue[k:]...)

	rung := sess.eng.Health().String()
	switch sess.eng.Health() {
	case core.HealthModel:
		s.stats.RungModel++
	case core.HealthProportional:
		s.stats.RungProportional++
	case core.HealthStatic:
		s.stats.RungStatic++
	}
	lat := s.now().Sub(t0)
	s.lat.add(lat)
	sess.lastRung = rung
	sess.lastTick = s.tick
	if sess.allocChanged(oldRung, oldAlloc) {
		sess.bumpEpoch()
	}
	s.stats.Decisions++
	return Decision{
		App:      sess.app,
		Tick:     s.tick,
		Interval: sess.interval,
		Samples:  k,
		Alloc:    append([]int(nil), sess.current...),
		Rung:     rung,
		Epoch:    sess.epoch,
		Latency:  lat,
	}
}

// Allocation is the externally visible state of one session, served by
// GET /alloc.
type Allocation struct {
	App      string
	Threads  int
	Ways     int
	Alloc    []int
	Rung     string
	Tick     uint64 // tick of the last decision for this session
	Interval int    // processed-sample count
	Queued   int    // samples waiting for the next tick
	// Epoch is the allocation epoch: it advances only when a decision
	// changes the allocation or the rung. Watch clients pass it back as
	// ?epoch= to long-poll for the next change.
	Epoch uint64
}

func (sess *session) allocation() Allocation {
	return Allocation{
		App:      sess.app,
		Threads:  sess.threads,
		Ways:     sess.ways,
		Alloc:    append([]int(nil), sess.current...),
		Rung:     sess.lastRung,
		Tick:     sess.lastTick,
		Interval: sess.interval,
		Queued:   len(sess.queue),
		Epoch:    sess.epoch,
	}
}

// Allocation returns the named session's current allocation.
func (s *Service) Allocation(app string) (Allocation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[app]
	if !ok {
		return Allocation{}, false
	}
	return sess.allocation(), true
}

// ErrUnknownApp is returned by AllocationWatch for a session that does
// not exist.
var ErrUnknownApp = errors.New("service: unknown application")

// ErrDraining is returned by AllocationWatch when the service starts
// (or already is) draining and no newer allocation exists to report:
// the daemon is going away, so parking a watcher would only stall its
// shutdown. The HTTP layer maps it to 204, telling the client to
// re-poll — against whatever replica its load balancer sends it to.
var ErrDraining = errors.New("service: draining")

// AllocationWatch is the allocation push path: it returns the named
// session's allocation as soon as its epoch exceeds sinceEpoch —
// immediately if it already does, otherwise blocking until a decision
// changes the allocation or the rung. Passing sinceEpoch 0 always
// returns immediately (epochs start at 1). On ctx expiry the context's
// error is returned and the caller re-polls; millions of clients can
// park here without ever touching the session lock between changes.
// When the service starts draining, every parked watcher is woken with
// ErrDraining instead of waiting out its poll window.
func (s *Service) AllocationWatch(ctx context.Context, app string, sinceEpoch uint64) (Allocation, error) {
	for {
		s.mu.Lock()
		sess, ok := s.sessions[app]
		if !ok {
			s.mu.Unlock()
			return Allocation{}, ErrUnknownApp
		}
		if sess.epoch > sinceEpoch {
			alloc := sess.allocation()
			s.mu.Unlock()
			return alloc, nil
		}
		ch := sess.watch
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return Allocation{}, ctx.Err()
		case <-s.drain:
			return Allocation{}, ErrDraining
		case <-ch:
			// Epoch bumped; loop to re-read under the lock.
		}
	}
}

// Apps returns the session ids in insertion order.
func (s *Service) Apps() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

// SnapshotStats returns the cumulative accounting plus the engine
// aggregates and decision-latency percentiles.
func (s *Service) SnapshotStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Sessions = len(s.sessions)
	for _, app := range s.order {
		sess := s.sessions[app]
		st.EngineDemotions += sess.eng.Demotions()
		st.EnginePromotions += sess.eng.Promotions()
		st.EngineRejectedSamples += sess.eng.RejectedSamples()
		st.InvalidAssignments += sess.rts.InvalidAssignments()
	}
	st.LatencyP50, st.LatencyP99, st.LatencySamples = s.lat.percentiles()
	return st
}

// tickCount returns the service-local tick counter. The sharded
// restore cross-checks it across shards to refuse a torn set of shard
// files (each individually valid, but cut at different ticks).
func (s *Service) tickCount() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tick
}

// latencySeconds copies out the recent-latency ring so Sharded can
// compute percentiles over all shards' rings merged.
func (s *Service) latencySeconds() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.lat.buf[:s.lat.n]...)
}

// monitors adapts a session's fixed shape to sim.Monitors. The service
// has no UMON hardware behind it, so miss curves are absent; the
// resilient engine's chain never requires them (UCP does, and UCP is
// not in the chain).
type monitors struct {
	ways    int
	threads int
}

func (m monitors) MissCurve(int) []uint64 { return nil }
func (m monitors) Ways() int              { return m.ways }
func (m monitors) NumThreads() int        { return m.threads }

// latRing keeps the most recent decision latencies for percentile
// reporting. Bounded, overwritten in place, and deliberately outside
// the checkpointed state: latency is a property of the run, not of the
// decision stream.
type latRing struct {
	buf []float64 // seconds
	pos int
	n   int
}

const latRingCap = 8192

func (l *latRing) add(d time.Duration) {
	if l.buf == nil {
		l.buf = make([]float64, latRingCap)
	}
	l.buf[l.pos] = d.Seconds()
	l.pos = (l.pos + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
}

func (l *latRing) percentiles() (p50, p99 time.Duration, n int) {
	if l.n == 0 {
		return 0, 0, 0
	}
	xs := append([]float64(nil), l.buf[:l.n]...)
	sort.Float64s(xs)
	return time.Duration(percentile(xs, 50) * float64(time.Second)),
		time.Duration(percentile(xs, 99) * float64(time.Second)), l.n
}

// percentile over an already-sorted slice, nearest-rank on the sorted
// order (matches internal/stats.Percentile without the resort).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
