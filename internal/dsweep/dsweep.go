// Package dsweep distributes a journaled parameter sweep across worker
// processes. A coordinator shards journal cells to workers over a
// small framed protocol (subprocess stdio or HTTP), tracks each
// dispatch with a heartbeat-fed lease, retries lost or failed cells
// with jittered backoff, recovers results from dead workers' local
// journals, and finishes by merging everything into one canonical
// journal.
//
// The binding invariant, pinned by the chaos differential tests: cell
// computation is deterministic and the merge is canonical, so a sweep
// executed under worker kills, hangs, and corrupted replies produces a
// journal and result set byte-identical to a fault-free in-process
// experiment.RunSweepCells. Fingerprint-keyed dedup guarantees a
// re-dispatched cell is merged at most once no matter how many copies
// of its result eventually arrive.
package dsweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"intracache/internal/checkpoint"
	"intracache/internal/experiment"
	"intracache/internal/workload"
)

// Worker is one remote compute endpoint the coordinator can lease
// cells to. Implementations: ExecWorker (subprocess stdio), HTTPWorker
// (remote HTTP endpoint).
type Worker interface {
	// Name identifies the worker in logs and lease records.
	Name() string
	// Ping verifies the worker is reachable and speaking the protocol.
	Ping(ctx context.Context) error
	// Run dispatches one task and blocks until its result arrives,
	// calling onBeat on every heartbeat. Errors: wrapped
	// experiment.ErrWorkerDied when the worker vanished, wrapped
	// experiment.ErrResultCorrupt when the reply failed the envelope
	// check, ctx.Err() when ctx was cancelled first. After a non-nil
	// error the coordinator must not reuse the worker without Close.
	Run(ctx context.Context, t Task, onBeat func()) (Result, error)
	// JournalPath is the worker's local journal as visible to the
	// coordinator ("" if none); used for dead-worker recovery and the
	// final merge.
	JournalPath() string
	// Close releases the worker (kills the subprocess for ExecWorker).
	Close() error
}

// Options configures a distributed sweep.
type Options struct {
	// Workers is the pool. An empty pool — or a pool where nobody
	// answers the initial probe — degrades the run to the plain
	// in-process experiment.RunSweepCells.
	Workers []Worker
	// JournalPath is the coordinator's journal: resume source, merge
	// target, and the file the final canonical journal lands in.
	JournalPath string
	Cell        experiment.CellOptions
	// LocalWorkers bounds in-process parallelism on the degraded path
	// (<= 0 uses GOMAXPROCS).
	LocalWorkers int
	// Lease is how long a dispatched cell may go without a heartbeat
	// before the coordinator declares it lost, kills the worker, and
	// re-dispatches (default 10s). It subsumes the stall watchdog
	// across the process boundary: a hung worker stops heartbeating and
	// the lease catches it.
	Lease time.Duration
	// ProbeTimeout bounds each worker's initial reachability probe
	// (default 2s).
	ProbeTimeout time.Duration
	// MaxWorkerFailures retires a worker after this many consecutive
	// dispatch failures (default 3). Worker death and lease expiry
	// retire immediately.
	MaxWorkerFailures int
	// Log receives coordinator diagnostics; nil discards them.
	Log func(format string, args ...interface{})
}

// Stats is the coordinator's accounting, published so chaos tests can
// assert the run actually exercised the machinery it claims to.
type Stats struct {
	Cells     int // total sweep cells
	Resumed   int // satisfied from the coordinator journal before dispatch
	Computed  int // merged from a worker reply
	Recovered int // merged from a dead worker's local journal
	Local     int // computed in-process (degraded path)
	Failed    int // cells that exhausted their retry budget

	Dispatches   int // tasks handed to workers
	Redispatches int // dispatches beyond each cell's first
	Duplicates   int // redundant results dropped by dedup, never merged

	WorkersAlive   int  // workers that answered the initial probe
	WorkersRetired int  // workers lost or retired mid-run
	Degraded       bool // any in-process fallback happened

	// ErrKinds counts every dispatch failure by taxonomy kind,
	// including failures that were later retried successfully.
	ErrKinds map[string]int
	// Attempts is the final per-cell dispatch/attempt count, keyed by
	// cell key — the "every cell's attempted-count" ledger (resumed
	// cells count 0).
	Attempts map[string]int
}

// Run executes the cells of the sweep fingerprinted fp across
// opts.Workers and returns results in cell order, exactly like
// experiment.RunSweepCells (same error policy: non-nil error only for
// cancellation or when every cell failed). Cells already present in
// the journal are returned with Resumed set and never dispatched.
func Run(ctx context.Context, fp string, cells []experiment.SweepCell,
	opts Options) ([]experiment.SweepResult, Stats, error) {
	stats := Stats{Cells: len(cells), ErrKinds: map[string]int{}, Attempts: map[string]int{}}
	for _, cell := range cells {
		if _, err := workload.ByName(cell.Benchmark); err != nil {
			return nil, stats, err
		}
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}

	alive := probe(ctx, opts.Workers, opts.probeTimeout(), logf)
	stats.WorkersAlive = len(alive)
	if len(alive) == 0 {
		out, err := degrade(ctx, fp, cells, opts, &stats, logf)
		if merr := canonicalize(opts.JournalPath, fp, nil); merr != nil && err == nil {
			err = merr
		}
		return out, stats, err
	}

	c := &coordinator{
		opts: opts, fp: fp, cells: cells,
		out:    make([]experiment.SweepResult, len(cells)),
		merged: make(map[string]bool),
		done:   make(chan struct{}),
		stats:  &stats, logf: logf, ctx: ctx,
	}

	var prior map[string]json.RawMessage
	if opts.JournalPath != "" {
		var err error
		c.jr, prior, err = checkpoint.OpenJournal(opts.JournalPath, fp)
		if err != nil {
			return nil, stats, err
		}
	}

	var pending []*cellState
	for i, cell := range cells {
		c.out[i] = experiment.SweepResult{Label: cell.Label, Benchmark: cell.Benchmark}
		key := cell.Key
		if raw, ok := prior[key]; ok {
			var rec experiment.CellRecord
			if json.Unmarshal(raw, &rec) == nil {
				c.out[i].ImprovementPct = rec.ImprovementPct
				c.out[i].BaselineCycles = rec.BaselineCycles
				c.out[i].DynamicCycles = rec.DynamicCycles
				c.out[i].Resumed = true
				c.merged[key] = true
				stats.Resumed++
				continue
			}
		}
		pending = append(pending, &cellState{idx: i, key: key})
	}
	c.pending = pending
	c.remaining = len(pending)
	if c.remaining == 0 {
		close(c.done)
	}

	c.queue = make(chan *cellState, len(pending)+1)
	for _, st := range pending {
		c.queue <- st
	}
	c.alive = len(alive)
	for _, w := range alive {
		c.wg.Add(1)
		go c.workerLoop(w)
	}

	select {
	case <-c.done:
	case <-ctx.Done():
	}
	c.wg.Wait()
	c.finish()

	if c.jr != nil {
		c.jr.Close()
	}
	err := c.verdict()
	if opts.JournalPath != "" {
		var srcs []string
		for _, w := range opts.Workers {
			if p := w.JournalPath(); p != "" {
				srcs = append(srcs, p)
			}
		}
		mstats, merr := checkpoint.MergeJournalFiles(opts.JournalPath, fp,
			checkpoint.MergeOptions{Drop: experiment.DropTransientJournalKeys}, srcs...)
		if merr != nil {
			if err == nil {
				err = fmt.Errorf("dsweep: final journal merge: %w", merr)
			}
		} else {
			logf("dsweep: canonical journal: %d entries (+%d from workers, %d duplicates, %d transient dropped)",
				mstats.Entries, mstats.Added, mstats.Duplicates, mstats.Dropped)
		}
	}
	return c.out, stats, err
}

func (o Options) probeTimeout() time.Duration {
	if o.ProbeTimeout <= 0 {
		return 2 * time.Second
	}
	return o.ProbeTimeout
}

func (o Options) lease() time.Duration {
	if o.Lease <= 0 {
		return 10 * time.Second
	}
	return o.Lease
}

func (o Options) maxWorkerFailures() int {
	if o.MaxWorkerFailures <= 0 {
		return 3
	}
	return o.MaxWorkerFailures
}

// probe pings every worker concurrently; only responders join the
// pool, and non-responders are closed on the spot.
func probe(ctx context.Context, workers []Worker, timeout time.Duration,
	logf func(string, ...interface{})) []Worker {
	var mu sync.Mutex
	var alive []Worker
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w Worker) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			if err := w.Ping(pctx); err != nil {
				logf("dsweep: worker %s failed probe: %v", w.Name(), err)
				w.Close()
				return
			}
			mu.Lock()
			alive = append(alive, w)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return alive
}

// degrade is the no-workers-reachable path: the whole sweep runs
// through the plain in-process RunSweepCells against the same journal.
func degrade(ctx context.Context, fp string, cells []experiment.SweepCell, opts Options,
	stats *Stats, logf func(string, ...interface{})) ([]experiment.SweepResult, error) {
	stats.Degraded = true
	logf("dsweep: no workers reachable; degrading to in-process sweep")
	out, err := experiment.RunSweepCells(ctx, fp, cells,
		experiment.SweepOptions{
			Workers:     opts.LocalWorkers,
			JournalPath: opts.JournalPath,
			Cell:        opts.Cell,
		})
	for i := range out {
		stats.Attempts[cells[i].Key] = out[i].Attempts
		switch {
		case out[i].Err != nil:
			stats.Failed++
			stats.ErrKinds[out[i].ErrKind]++
		case out[i].Resumed:
			stats.Resumed++
		default:
			stats.Local++
		}
	}
	return out, err
}

// canonicalize rewrites a journal in canonical merged form (no-op
// without a journal path).
func canonicalize(path, fp string, srcs []string) error {
	if path == "" {
		return nil
	}
	_, err := checkpoint.MergeJournalFiles(path, fp,
		checkpoint.MergeOptions{Drop: experiment.DropTransientJournalKeys}, srcs...)
	return err
}

// cellState is one pending cell's coordinator-side bookkeeping. A cell
// is owned by exactly one place at a time — the queue, a retry timer,
// or an in-flight dispatch — which is what makes the accounting
// race-free.
type cellState struct {
	idx      int
	key      string
	attempts int
	lastErr  error
}

type deliverKind int

const (
	deliverComputed deliverKind = iota
	deliverRecovered
	deliverLocal
)

type coordinator struct {
	opts  Options
	fp    string
	cells []experiment.SweepCell
	logf  func(string, ...interface{})
	ctx   context.Context

	queue   chan *cellState
	done    chan struct{} // closed when every cell reached a terminal state
	pending []*cellState
	wg      sync.WaitGroup

	mu        sync.Mutex
	jr        *checkpoint.Journal
	out       []experiment.SweepResult
	merged    map[string]bool
	remaining int
	alive     int
	stats     *Stats
}

// workerLoop feeds one worker cells until the sweep completes, the
// context dies, or the worker is retired.
func (c *coordinator) workerLoop(w Worker) {
	defer c.wg.Done()
	defer c.workerExit(w)
	consecutive := 0
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-c.done:
			return
		case st := <-c.queue:
			healthy, retire := c.dispatch(w, st)
			if healthy {
				consecutive = 0
			} else {
				consecutive++
			}
			if retire {
				return
			}
			if consecutive >= c.opts.maxWorkerFailures() {
				c.logf("dsweep: retiring %s after %d consecutive failures", w.Name(), consecutive)
				return
			}
		}
	}
}

// workerExit retires a worker. If it was the last one and cells
// remain, the sweep degrades to finishing them in-process rather than
// deadlocking.
func (c *coordinator) workerExit(w Worker) {
	w.Close()
	c.mu.Lock()
	c.alive--
	last := c.alive == 0 && c.remaining > 0
	if last || c.remaining > 0 {
		c.stats.WorkersRetired++
	}
	c.mu.Unlock()
	if last && c.ctx.Err() == nil {
		c.mu.Lock()
		c.stats.Degraded = true
		left := c.remaining
		c.mu.Unlock()
		c.logf("dsweep: all workers lost; finishing %d remaining cells in-process", left)
		c.wg.Add(1)
		go c.localLoop()
	}
}

// localLoop is the degraded tail: it drains the queue in-process.
func (c *coordinator) localLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-c.done:
			return
		case st := <-c.queue:
			c.localCell(st)
		}
	}
}

// localCell computes one cell in-process with the retry budget the
// cell has left, charging its attempts to the same ledger.
func (c *coordinator) localCell(st *cellState) {
	opts := c.opts.Cell
	budget := opts.Retry.MaxAttempts() - st.attempts
	if budget < 1 {
		budget = 1
	}
	opts.Retry.Attempts = budget
	cell := &c.cells[st.idx]
	rec, attempts, err := experiment.RunSweepCell(c.ctx, st.key, cell.Cfg,
		cell.Benchmark, cell.Baseline, cell.Candidate, opts, nil)
	c.mu.Lock()
	st.attempts += attempts
	c.mu.Unlock()
	if err != nil {
		c.finalFail(st, err)
		return
	}
	c.deliver(st, rec, deliverLocal)
}

// task builds the wire task for one dispatch.
func (c *coordinator) task(st *cellState, attempt int) Task {
	cell := &c.cells[st.idx]
	return Task{
		Key:          st.key,
		Index:        st.idx,
		Label:        cell.Label,
		Benchmark:    cell.Benchmark,
		Baseline:     cell.Baseline.String(),
		Candidate:    cell.Candidate.String(),
		Fingerprint:  c.fp,
		Attempt:      attempt,
		Cfg:          cell.Cfg,
		Timeout:      c.opts.Cell.Timeout,
		StallTimeout: c.opts.Cell.StallTimeout,
	}
}

// dispatch leases one cell to one worker and routes the outcome.
// healthy reports whether the worker behaved; retire demands the
// worker be taken out of rotation (death or lease expiry).
func (c *coordinator) dispatch(w Worker, st *cellState) (healthy, retire bool) {
	c.mu.Lock()
	st.attempts++
	attempt := st.attempts
	c.stats.Dispatches++
	if attempt > 1 {
		c.stats.Redispatches++
	}
	if c.jr != nil {
		experiment.AppendCellLease(c.jr, st.key, w.Name(), attempt)
	}
	c.mu.Unlock()

	lease := c.opts.lease()
	leaseCtx, cancel := context.WithCancel(c.ctx)
	defer cancel()
	var expired atomic.Bool
	timer := time.AfterFunc(lease, func() {
		expired.Store(true)
		cancel()
	})
	res, err := w.Run(leaseCtx, c.task(st, attempt), func() { timer.Reset(lease) })
	timer.Stop()

	if err == nil {
		if res.failed() {
			// The worker is fine; the cell itself failed remotely.
			// Rebuild a matchable error from the wire strings.
			rerr := experiment.KindError(res.ErrKind, res.Err)
			if rerr == nil {
				rerr = errors.New("dsweep: worker reported unspecified failure")
			}
			c.fail(st, rerr)
			return true, false
		}
		if res.Key != st.key || res.Fingerprint != c.fp {
			err = fmt.Errorf("%w: %s replied for %q/%s, want %q/%s",
				experiment.ErrResultCorrupt, w.Name(), res.Key, res.Fingerprint, st.key, c.fp)
		} else {
			c.deliver(st, res.Record, deliverComputed)
			return true, false
		}
	}

	if expired.Load() {
		// No heartbeat for a whole lease: the worker hung mid-cell.
		// Same taxonomy as the in-process stall watchdog.
		err = fmt.Errorf("%w: no heartbeat from %s for %v (lease expired): %v",
			experiment.ErrCellStalled, w.Name(), lease, err)
		retire = true
	}
	if errors.Is(err, experiment.ErrWorkerDied) {
		retire = true
	}
	if retire && c.recover(w, st) {
		return false, retire
	}
	c.fail(st, err)
	return false, retire
}

// recover tries to salvage a dead or hung worker's cell from its local
// journal — the worker may have computed and journaled the record but
// died before the reply landed.
func (c *coordinator) recover(w Worker, st *cellState) bool {
	path := w.JournalPath()
	if path == "" {
		return false
	}
	entries, err := checkpoint.ReadJournal(path, c.fp)
	if err != nil {
		if !os.IsNotExist(err) {
			c.logf("dsweep: reading %s's journal: %v", w.Name(), err)
		}
		return false
	}
	raw, ok := entries[st.key]
	if !ok {
		return false
	}
	var rec experiment.CellRecord
	if json.Unmarshal(raw, &rec) != nil {
		return false
	}
	c.logf("dsweep: recovered %s from dead worker %s's journal", st.key, w.Name())
	c.deliver(st, rec, deliverRecovered)
	return true
}

// deliver merges one computed record, exactly once per cell: the
// merged set is the dedup gate that makes re-dispatch harmless.
func (c *coordinator) deliver(st *cellState, rec experiment.CellRecord, how deliverKind) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.merged[st.key] {
		c.stats.Duplicates++
		c.logf("dsweep: duplicate result for %s dropped", st.key)
		return
	}
	c.merged[st.key] = true
	o := &c.out[st.idx]
	o.ImprovementPct = rec.ImprovementPct
	o.BaselineCycles = rec.BaselineCycles
	o.DynamicCycles = rec.DynamicCycles
	o.Attempts = st.attempts
	switch how {
	case deliverComputed:
		c.stats.Computed++
	case deliverRecovered:
		c.stats.Recovered++
	case deliverLocal:
		c.stats.Local++
	}
	c.stats.Attempts[st.key] = st.attempts
	if c.jr != nil {
		if err := c.jr.Append(st.key, rec); err != nil {
			c.logf("dsweep: journal append %s: %v", st.key, err)
		}
	}
	c.complete()
}

// fail routes a dispatch failure: reschedule with jittered backoff if
// the cell has retry budget, otherwise finalize the failure.
func (c *coordinator) fail(st *cellState, err error) {
	c.mu.Lock()
	st.lastErr = err
	c.stats.ErrKinds[experiment.CellErrorKind(err)]++
	attempts := st.attempts
	c.mu.Unlock()
	c.logf("dsweep: %s attempt %d failed (%s): %v",
		st.key, attempts, experiment.CellErrorKind(err), err)
	if c.ctx.Err() != nil {
		c.finalFail(st, err)
		return
	}
	if attempts >= c.opts.Cell.Retry.MaxAttempts() {
		c.finalFail(st, err)
		return
	}
	delay := c.opts.Cell.Retry.Backoff(st.key, attempts-1)
	time.AfterFunc(delay, func() {
		select {
		case c.queue <- st:
		case <-c.done:
		case <-c.ctx.Done():
		}
	})
}

// finalFail records a cell's terminal failure.
func (c *coordinator) finalFail(st *cellState, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.merged[st.key] {
		return
	}
	c.merged[st.key] = true
	c.out[st.idx].Err = err
	c.out[st.idx].ErrKind = experiment.CellErrorKind(err)
	c.out[st.idx].Attempts = st.attempts
	c.stats.Failed++
	c.stats.Attempts[st.key] = st.attempts
	if c.jr != nil {
		experiment.AppendCellFailure(c.jr, st.key, err, st.attempts)
	}
	c.complete()
}

// complete decrements the outstanding-cell count; the last cell closes
// done. Caller holds c.mu.
func (c *coordinator) complete() {
	c.remaining--
	if c.remaining == 0 {
		close(c.done)
	}
}

// finish marks cells the cancellation left unfinished.
func (c *coordinator) finish() {
	err := c.ctx.Err()
	if err == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range c.pending {
		if c.merged[st.key] {
			continue
		}
		c.merged[st.key] = true
		c.out[st.idx].Err = err
		c.out[st.idx].ErrKind = experiment.CellErrorKind(err)
		c.out[st.idx].Attempts = st.attempts
		c.stats.Failed++
		c.stats.Attempts[st.key] = st.attempts
	}
}

// verdict mirrors RunSweepCells' error policy.
func (c *coordinator) verdict() error {
	if err := c.ctx.Err(); err != nil {
		return fmt.Errorf("dsweep: sweep cancelled after %d/%d cells: %w",
			len(c.cells)-c.stats.Failed, len(c.cells), err)
	}
	if len(c.cells) > 0 && c.stats.Failed == len(c.cells) {
		var first error
		for i := range c.out {
			if c.out[i].Err != nil {
				first = c.out[i].Err
				break
			}
		}
		return fmt.Errorf("dsweep: sweep: all %d cells failed; first: %w", c.stats.Failed, first)
	}
	return nil
}
