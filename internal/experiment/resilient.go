package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"io/fs"
	"strings"
	"sync/atomic"
	"time"

	"intracache/internal/cache"
	"intracache/internal/checkpoint"
	"intracache/internal/core"
	"intracache/internal/fault"
	"intracache/internal/sim"
	"intracache/internal/stats"
	"intracache/internal/workload"
)

// This file is the crash-safety layer over the experiment drivers:
// checkpointed single runs (kill -9 at any interval boundary, resume
// bit-identically), journaled sweeps (finished cells survive a crash
// and are skipped on -resume), per-cell deadlines, a stall watchdog,
// and capped-exponential retry for transient cell failures.

// Fingerprint renders every configuration field that affects simulation
// output into one canonical string. Checkpoint and journal resume use
// it to refuse state written under a different setup. ShareTraces is
// deliberately excluded: shared traces are bit-identical to bare
// generation by construction (pinned by the differential tests), so a
// run checkpointed in one mode may resume in the other.
func (c Config) Fingerprint() string {
	faultDesc := "none"
	if c.Fault != nil && !c.Fault.IsZero() {
		faultDesc = fmt.Sprintf("%+v", *c.Fault)
	}
	// Like the shard-count stamp in SweepFingerprint, the mechanism is
	// stamped only when it departs from the way-partitioning default,
	// so every journal and checkpoint written before mechanisms existed
	// stays resumable.
	mech := ""
	if c.Mechanism != cache.MechWays || c.SetGroups != 0 || c.Clusters != 0 {
		mech = fmt.Sprintf(" mech=%s/%d/%d", c.Mechanism, c.SetGroups, c.Clusters)
	}
	return fmt.Sprintf("cfg1{t=%d l1=%dKB/%dw l2=%dKB/%dw line=%d lat=%d/%d/%d sect=%d iv=%d run=%d/%d umon=%d seed=%d fault=%s%s}",
		c.NumThreads, c.L1KB, c.L1Ways, c.L2KB, c.L2Ways, c.LineBytes,
		c.BaseCycles, c.L2HitCycles, c.MemCycles,
		c.SectionInstructions, c.IntervalInstructions,
		c.Intervals, c.Sections, c.UMONStride, c.Seed, faultDesc, mech)
}

// hashFingerprint folds the parts into a short hex token for journal
// headers, where the full multi-cell fingerprint would be unwieldy.
func hashFingerprint(parts ...string) string {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	for _, p := range parts {
		io.WriteString(h, p)
		io.WriteString(h, "\x00")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// RetryPolicy bounds how a failing sweep cell is retried. Retries exist
// for transient failures (fault-injected panics, resource pressure); a
// deterministic failure simply fails Attempts times and reports the
// last error.
type RetryPolicy struct {
	// Attempts is the total number of tries; <= 1 means no retry.
	Attempts int
	// BaseDelay is the backoff before the first retry, doubling each
	// retry up to MaxDelay. Zero values default to 100ms and 5s.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// MaxAttempts is the effective total number of tries (Attempts clamped
// to at least 1); the dsweep coordinator uses it to budget re-dispatch.
func (p RetryPolicy) MaxAttempts() int {
	if p.Attempts <= 1 {
		return 1
	}
	return p.Attempts
}

// Backoff returns the delay before retry number retry (0-based) of the
// cell identified by key: capped exponential growth with bounded
// deterministic jitter. The jitter is ±25%, derived by hashing (key,
// retry), so a batch of cells failing simultaneously (a dead worker's
// whole lease set, a shared resource blip) spreads its retries out
// instead of thundering back in lockstep — while any given cell's
// retry schedule is exactly reproducible.
func (p RetryPolicy) Backoff(key string, retry int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	cap := p.MaxDelay
	if cap <= 0 {
		cap = 5 * time.Second
	}
	d := cap
	if retry <= 30 {
		d = base << uint(retry)
		if d <= 0 || d > cap {
			d = cap
		}
	}
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	fmt.Fprintf(h, "backoff\x00%s\x00%d", key, retry)
	frac := float64(h.Sum64()>>11) / float64(uint64(1)<<53) // uniform [0,1)
	d = time.Duration(float64(d) * (0.75 + 0.5*frac))
	if d > cap {
		d = cap
	}
	return d
}

// CellOptions bounds one sweep cell's execution.
type CellOptions struct {
	// Timeout is a hard wall-clock deadline per attempt (0 = none).
	Timeout time.Duration
	// StallTimeout cancels an attempt that makes no interval progress
	// for this long — a hung cell, as opposed to a merely slow one
	// (0 = watchdog off).
	StallTimeout time.Duration
	Retry        RetryPolicy
}

// The cell error taxonomy. A failed cell is classified so the journal,
// the sweep summary, and the distributed coordinator's retry logic can
// tell a hung simulation from a slow one from a dead worker post-hoc:
//
//   - ErrCellStalled: the stall watchdog killed an attempt that made no
//     interval progress (hung, not slow).
//   - ErrCellDeadline: the attempt's hard wall-clock deadline expired
//     (slow, not hung).
//   - ErrWorkerDied: the process computing the cell died mid-cell
//     (produced by the dsweep coordinator on worker exit or lease
//     expiry, never by in-process execution).
//   - ErrResultCorrupt: the cell computed but its result payload failed
//     the CRC64 envelope check and was discarded, not merged.
var (
	ErrCellStalled   = errors.New("experiment: cell stalled (no interval progress)")
	ErrCellDeadline  = errors.New("experiment: cell deadline exceeded")
	ErrWorkerDied    = errors.New("experiment: worker died mid-cell")
	ErrResultCorrupt = errors.New("experiment: cell result payload corrupt")
)

// Cell error kinds, the journal/summary rendering of the taxonomy.
const (
	KindStalled    = "stalled"
	KindDeadline   = "deadline"
	KindWorkerDied = "worker-died"
	KindCorrupt    = "corrupt"
	KindCancelled  = "cancelled"
	KindFailed     = "failed"
)

// CellErrorKind classifies a cell error into the taxonomy above;
// nil maps to "".
func CellErrorKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrCellStalled):
		return KindStalled
	case errors.Is(err, ErrCellDeadline), errors.Is(err, context.DeadlineExceeded):
		return KindDeadline
	case errors.Is(err, ErrWorkerDied):
		return KindWorkerDied
	case errors.Is(err, ErrResultCorrupt):
		return KindCorrupt
	case errors.Is(err, context.Canceled):
		return KindCancelled
	default:
		return KindFailed
	}
}

// KindError reconstructs a sentinel-wrapped error from a kind and
// message that crossed a process boundary as strings (a dsweep worker's
// failure report), so errors.Is classification keeps working on the
// coordinator side.
func KindError(kind, msg string) error {
	switch kind {
	case "":
		return nil
	case KindStalled:
		return fmt.Errorf("%w: %s", ErrCellStalled, msg)
	case KindDeadline:
		return fmt.Errorf("%w: %s", ErrCellDeadline, msg)
	case KindWorkerDied:
		return fmt.Errorf("%w: %s", ErrWorkerDied, msg)
	case KindCorrupt:
		return fmt.Errorf("%w: %s", ErrResultCorrupt, msg)
	case KindCancelled:
		return fmt.Errorf("%w: %s", context.Canceled, msg)
	default:
		return errors.New(msg)
	}
}

// runCell executes fn with the cell's deadline, stall watchdog and
// retry policy applied. fn receives a derived context (cancelled on
// deadline, stall, or parent cancellation) and a progress callback it
// must invoke at interval boundaries to feed the watchdog. key
// identifies the cell for backoff jitter. Returns how many attempts ran
// and the final error.
func runCell(ctx context.Context, key string, opts CellOptions, fn func(ctx context.Context, progress func()) error) (attempts int, err error) {
	tries := opts.Retry.MaxAttempts()
	for try := 0; try < tries; try++ {
		if cerr := ctx.Err(); cerr != nil {
			if err == nil {
				err = cerr
			}
			return attempts, err
		}
		attempts++
		err = runAttempt(ctx, opts, fn)
		if err == nil || ctx.Err() != nil {
			// Success, or the parent was cancelled: retrying after the
			// caller asked to stop would hold the shutdown hostage.
			return attempts, err
		}
		if try+1 < tries {
			t := time.NewTimer(opts.Retry.Backoff(key, try))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return attempts, err
			}
		}
	}
	return attempts, err
}

// runAttempt is one try: it wires up the deadline and watchdog, recovers
// panics (fault-injected or otherwise) into errors so the retry loop
// sees them, and maps watchdog kills to ErrCellStalled.
func runAttempt(ctx context.Context, opts CellOptions, fn func(ctx context.Context, progress func()) error) (err error) {
	attemptCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if opts.Timeout > 0 {
		var tcancel context.CancelFunc
		attemptCtx, tcancel = context.WithTimeout(attemptCtx, opts.Timeout)
		defer tcancel()
	}
	progress := func() {}
	var stalled atomic.Bool
	if opts.StallTimeout > 0 {
		watchdog := time.AfterFunc(opts.StallTimeout, func() {
			stalled.Store(true)
			cancel()
		})
		defer watchdog.Stop()
		progress = func() { watchdog.Reset(opts.StallTimeout) }
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment: cell panicked: %v", r)
		}
		switch {
		case stalled.Load():
			err = fmt.Errorf("%w after %v", ErrCellStalled, opts.StallTimeout)
		case err != nil && opts.Timeout > 0 && errors.Is(err, context.DeadlineExceeded):
			// Both sentinels stay matchable: ErrCellDeadline for the
			// taxonomy, context.DeadlineExceeded for existing callers.
			err = fmt.Errorf("%w after %v: %w", ErrCellDeadline, opts.Timeout, err)
		}
	}()
	return fn(attemptCtx, progress)
}

// SweepOptions configures a journaled sweep.
type SweepOptions struct {
	// Workers bounds the worker pool; <= 0 uses GOMAXPROCS.
	Workers int
	// JournalPath, when non-empty, records each completed cell durably
	// so a crashed or cancelled sweep resumes where it stopped. Only
	// successes are journaled: a failed cell is retried on resume.
	JournalPath string
	Cell        CellOptions
}

// CellRecord is the journaled payload of one successful sweep cell —
// the exact bytes a dsweep worker ships back to the coordinator. It
// depends only on the cell's configuration (simulations are
// deterministic), never on where or how often the cell ran, which is
// what makes journals mergeable and re-dispatch harmless.
type CellRecord struct {
	ImprovementPct float64
	BaselineCycles uint64
	DynamicCycles  uint64
}

// failRecord is the journaled payload of a cell that exhausted its
// retries, keyed under FailKeyPrefix so it never shadows a result.
type failRecord struct {
	Kind     string
	Error    string
	Attempts int
}

// leaseRecord is the journaled payload of one coordinator dispatch,
// keyed under LeaseKeyPrefix.
type leaseRecord struct {
	Worker  string
	Attempt int
}

// AppendCellFailure journals a cell's final failure under
// FailKeyPrefix. SweepJournaled and the dsweep coordinator both go
// through it so failure records have a single schema.
func AppendCellFailure(jr *checkpoint.Journal, key string, err error, attempts int) error {
	return jr.Append(FailKeyPrefix+key, failRecord{
		Kind: CellErrorKind(err), Error: err.Error(), Attempts: attempts,
	})
}

// AppendCellLease journals one coordinator dispatch of a cell (which
// worker, which global attempt) under LeaseKeyPrefix, making
// attempted-counts durable across coordinator crashes. Lease records
// are transient: the canonical merge prunes them.
func AppendCellLease(jr *checkpoint.Journal, key, worker string, attempt int) error {
	return jr.Append(fmt.Sprintf("%s%s/%d", LeaseKeyPrefix, key, attempt),
		leaseRecord{Worker: worker, Attempt: attempt})
}

// Journal key namespaces. Cell results live under bare CellKey keys;
// everything else is transient bookkeeping that the canonical merge
// prunes (see DropTransientJournalKeys).
const (
	// FailKeyPrefix + CellKey records a cell's final failure and its
	// taxonomy kind, so a crashed sweep's post-mortem can tell stalls
	// from deadlines from dead workers without re-running anything.
	FailKeyPrefix = "fail/"
	// LeaseKeyPrefix + CellKey records each coordinator dispatch of a
	// cell (worker and attempt number), making attempted-counts durable
	// across coordinator crashes.
	LeaseKeyPrefix = "lease/"
)

// CellKey is the journal key of sweep cell i with the given label.
func CellKey(i int, label string) string {
	return fmt.Sprintf("cell/%d/%s", i, label)
}

// DropTransientJournalKeys is the canonical-merge filter for sweep
// journals: lease records always go, and a recorded failure goes once
// the same cell has a result (the success supersedes it). Pass it as
// checkpoint.MergeOptions.Drop.
func DropTransientJournalKeys(key string, entries map[string]json.RawMessage) bool {
	if strings.HasPrefix(key, LeaseKeyPrefix) {
		return true
	}
	if rest, ok := strings.CutPrefix(key, FailKeyPrefix); ok {
		return entries[rest] != nil
	}
	return false
}

// SweepFingerprint identifies a sweep: the full point list, benchmark
// and policy pair, hashed. Journals carry it in their header, dsweep
// tasks and results echo it, and both refuse to mix state across
// different fingerprints. The trailing int parameter is ignored; it
// remains only so existing callers keep compiling.
func SweepFingerprint(points []SweepPoint, benchmark string, baseline, candidate core.Policy, _ int) string {
	parts := []string{"sweep1", benchmark, baseline.String(), candidate.String()}
	for _, p := range points {
		parts = append(parts, p.Label, p.Cfg.Fingerprint())
	}
	return hashFingerprint(parts...)
}

// RunSweepCell executes one sweep cell — the baseline-vs-candidate
// comparison at one point — under the cell's deadline, stall watchdog
// and retry policy. It is the single compute path shared by the
// in-process SweepJournaled and dsweep workers, which is what
// guarantees a cell's CellRecord is identical no matter which process
// computed it. onProgress, when non-nil, is called at every interval
// boundary alongside the watchdog feed (dsweep workers emit heartbeats
// from it). key identifies the cell for backoff jitter.
func RunSweepCell(ctx context.Context, key string, cfg Config, benchmark string,
	baseline, candidate core.Policy, opts CellOptions, onProgress func()) (CellRecord, int, error) {
	prof, err := workload.ByName(benchmark)
	if err != nil {
		return CellRecord{}, 0, err
	}
	var rec CellRecord
	attempts, err := runCell(ctx, key, opts, func(cellCtx context.Context, progress func()) error {
		hook := func(int) error {
			progress()
			if onProgress != nil {
				onProgress()
			}
			return nil
		}
		c, err := CompareCtx(cellCtx, cfg, prof, baseline, candidate, hook)
		if err != nil {
			return err
		}
		rec = CellRecord{
			ImprovementPct: c.ImprovementPct,
			BaselineCycles: c.BaselineCycles,
			DynamicCycles:  c.CandidateCycles,
		}
		return nil
	})
	return rec, attempts, err
}

// SweepJournaled is Sweep with cancellation, per-cell deadlines and
// retry, and an optional on-disk journal: cells already journaled by a
// previous run are returned from the journal (Resumed=true) instead of
// being recomputed. A cancelled sweep stops dispatching immediately,
// lets in-flight cells observe their context, and returns ctx's error.
func SweepJournaled(ctx context.Context, points []SweepPoint, benchmark string,
	baseline, candidate core.Policy, opts SweepOptions) ([]SweepResult, error) {
	if _, err := workload.ByName(benchmark); err != nil {
		return nil, err
	}
	var err error
	var jr *checkpoint.Journal
	var prior map[string]json.RawMessage
	if opts.JournalPath != "" {
		fp := SweepFingerprint(points, benchmark, baseline, candidate, 0)
		jr, prior, err = checkpoint.OpenJournal(opts.JournalPath, fp)
		if err != nil {
			return nil, err
		}
		defer jr.Close()
	}
	out := make([]SweepResult, len(points))
	errs := forEachIndexCtx(ctx, len(points), opts.Workers, func(i int) error {
		out[i] = SweepResult{Label: points[i].Label, Benchmark: benchmark}
		key := CellKey(i, points[i].Label)
		if raw, ok := prior[key]; ok {
			var rec CellRecord
			if err := json.Unmarshal(raw, &rec); err == nil {
				out[i].ImprovementPct = rec.ImprovementPct
				out[i].BaselineCycles = rec.BaselineCycles
				out[i].DynamicCycles = rec.DynamicCycles
				out[i].Resumed = true
				return nil
			}
			// Unreadable record: recompute the cell rather than fail.
		}
		rec, attempts, err := RunSweepCell(ctx, key, points[i].Cfg, benchmark,
			baseline, candidate, opts.Cell, nil)
		out[i].Attempts = attempts
		if err != nil {
			if jr != nil {
				// Best-effort: the failure record aids post-mortems but
				// must not mask the cell's own error.
				AppendCellFailure(jr, key, err, attempts)
			}
			return err
		}
		out[i].ImprovementPct = rec.ImprovementPct
		out[i].BaselineCycles = rec.BaselineCycles
		out[i].DynamicCycles = rec.DynamicCycles
		if jr != nil {
			return jr.Append(key, rec)
		}
		return nil
	})
	failed := 0
	for i, err := range errs {
		if err != nil {
			out[i].Err = err
			out[i].ErrKind = CellErrorKind(err)
			failed++
		}
	}
	if err := ctx.Err(); err != nil {
		return out, fmt.Errorf("experiment: sweep cancelled after %d/%d cells: %w",
			len(points)-failed, len(points), err)
	}
	if len(points) > 0 && failed == len(points) {
		first := errs[0]
		for _, err := range errs {
			if err != nil {
				first = err
				break
			}
		}
		return out, fmt.Errorf("experiment: sweep: all %d cells failed; first: %w", failed, first)
	}
	return out, nil
}

// robustBaseRecord / robustCellRecord are the journaled payloads of the
// robustness sweep's two stages.
type robustBaseRecord struct {
	WallCycles uint64
}

type robustCellRecord struct {
	WallCycles     uint64
	SharedCycles   uint64
	ImprovementPct float64
	Health         string
	Faults         fault.Stats
}

func robustFingerprint(cfg Config, benchmarks []string, policies []core.Policy, levels []FaultLevel) string {
	parts := []string{"robust1", cfg.Fingerprint()}
	parts = append(parts, benchmarks...)
	for _, p := range policies {
		parts = append(parts, p.String())
	}
	for _, l := range levels {
		parts = append(parts, l.Name, fmt.Sprintf("%+v", l.Plan))
	}
	return hashFingerprint(parts...)
}

// RobustnessSweepJournaled is RobustnessSweep with cancellation,
// per-cell deadlines/retry, and journaled resume. Both stages journal:
// clean shared baselines under "base/<benchmark>", cells under
// "cell/<benchmark>/<policy>/<level>".
func RobustnessSweepJournaled(ctx context.Context, cfg Config, benchmarks []string,
	policies []core.Policy, levels []FaultLevel, opts SweepOptions) ([]RobustnessCell, error) {
	if benchmarks == nil {
		benchmarks = workload.Names()
	}
	if policies == nil {
		policies = []core.Policy{core.PolicyStaticEqual, core.PolicyCPIProportional, core.PolicyModelBased}
	}
	if levels == nil {
		levels = DefaultFaultLevels()
	}
	if len(benchmarks) == 0 || len(policies) == 0 || len(levels) == 0 {
		return nil, fmt.Errorf("experiment: empty robustness sweep")
	}
	var jr *checkpoint.Journal
	var prior map[string]json.RawMessage
	if opts.JournalPath != "" {
		var err error
		jr, prior, err = checkpoint.OpenJournal(opts.JournalPath,
			robustFingerprint(cfg, benchmarks, policies, levels))
		if err != nil {
			return nil, err
		}
		defer jr.Close()
	}

	// Stage 1: clean shared baselines, one per benchmark.
	baseCycles := make([]uint64, len(benchmarks))
	baseErrs := forEachIndexCtx(ctx, len(benchmarks), opts.Workers, func(i int) error {
		key := "base/" + benchmarks[i]
		if raw, ok := prior[key]; ok {
			var rec robustBaseRecord
			if err := json.Unmarshal(raw, &rec); err == nil {
				baseCycles[i] = rec.WallCycles
				return nil
			}
		}
		prof, err := workload.ByName(benchmarks[i])
		if err != nil {
			return err
		}
		c := cfg
		c.Fault = nil
		_, err = runCell(ctx, key, opts.Cell, func(cellCtx context.Context, progress func()) error {
			run, err := RunOneCtx(cellCtx, c, prof, core.PolicyShared, BySections,
				func(int) error { progress(); return nil })
			if err != nil {
				return err
			}
			baseCycles[i] = run.Result.WallCycles
			return nil
		})
		if err != nil {
			return err
		}
		if jr != nil {
			return jr.Append(key, robustBaseRecord{WallCycles: baseCycles[i]})
		}
		return nil
	})

	// Stage 2: the (benchmark, policy, level) cells.
	cells := make([]RobustnessCell, len(benchmarks)*len(policies)*len(levels))
	errs := forEachIndexCtx(ctx, len(cells), opts.Workers, func(i int) error {
		b := i / (len(policies) * len(levels))
		rest := i % (len(policies) * len(levels))
		p := rest / len(levels)
		l := rest % len(levels)
		cells[i] = RobustnessCell{
			Benchmark: benchmarks[b],
			Policy:    policies[p],
			Level:     levels[l].Name,
		}
		if baseErrs[b] != nil {
			return fmt.Errorf("experiment: baseline %s: %w", benchmarks[b], baseErrs[b])
		}
		key := fmt.Sprintf("cell/%s/%s/%s", benchmarks[b], policies[p], levels[l].Name)
		if raw, ok := prior[key]; ok {
			var rec robustCellRecord
			if err := json.Unmarshal(raw, &rec); err == nil {
				cells[i].WallCycles = rec.WallCycles
				cells[i].SharedCycles = rec.SharedCycles
				cells[i].ImprovementPct = rec.ImprovementPct
				cells[i].Health = rec.Health
				cells[i].Faults = rec.Faults
				cells[i].Resumed = true
				return nil
			}
		}
		prof, err := workload.ByName(benchmarks[b])
		if err != nil {
			return err
		}
		c := cfg
		if levels[l].Plan.IsZero() {
			c.Fault = nil
		} else {
			plan := levels[l].Plan
			c.Fault = &plan
		}
		attempts, err := runCell(ctx, key, opts.Cell, func(cellCtx context.Context, progress func()) error {
			run, err := RunOneCtx(cellCtx, c, prof, policies[p], BySections,
				func(int) error { progress(); return nil })
			if err != nil {
				return err
			}
			cells[i].WallCycles = run.Result.WallCycles
			cells[i].SharedCycles = baseCycles[b]
			cells[i].ImprovementPct = 100 * stats.Improvement(
				float64(baseCycles[b]), float64(run.Result.WallCycles))
			cells[i].Health = run.Result.ControllerHealth
			if run.FaultStats != nil {
				cells[i].Faults = *run.FaultStats
			}
			return nil
		})
		cells[i].Attempts = attempts
		if err != nil {
			return err
		}
		if jr != nil {
			return jr.Append(key, robustCellRecord{
				WallCycles:     cells[i].WallCycles,
				SharedCycles:   cells[i].SharedCycles,
				ImprovementPct: cells[i].ImprovementPct,
				Health:         cells[i].Health,
				Faults:         cells[i].Faults,
			})
		}
		return nil
	})
	failed := 0
	for i, err := range errs {
		if err != nil {
			cells[i].Err = err
			failed++
		}
	}
	if err := ctx.Err(); err != nil {
		return cells, fmt.Errorf("experiment: robustness sweep cancelled after %d/%d cells: %w",
			len(cells)-failed, len(cells), err)
	}
	if failed == len(cells) {
		return cells, fmt.Errorf("experiment: robustness sweep: all %d cells failed; first: %w",
			failed, cells[0].Err)
	}
	return cells, nil
}

// CheckpointSpec configures crash-safe snapshotting of one long run.
type CheckpointSpec struct {
	// Path is the checkpoint file; "" disables snapshotting entirely.
	Path string
	// Every snapshots after every N completed intervals. 0 snapshots
	// only at cancellation and completion.
	Every int
	// Resume loads Path before running and continues from it; a missing
	// file is a fresh start, any other load failure is an error.
	Resume bool
}

// CheckpointedRun is RunOneCtx made crash-safe: it snapshots the full
// run state (simulator, engine, fault injector) to spec.Path at
// interval boundaries, saves a final snapshot on cancellation or
// completion, and — with spec.Resume — continues a previous run from
// its last snapshot. The binding invariant, pinned by tests: a run
// killed at any interval boundary and resumed produces a bit-identical
// sim.Result to the same run executed straight through.
func CheckpointedRun(ctx context.Context, cfg Config, benchmark string, pol core.Policy,
	mode RunMode, spec CheckpointSpec, hook sim.IntervalHook) (Run, error) {
	prof, err := workload.ByName(benchmark)
	if err != nil {
		return Run{}, err
	}
	gens, err := prof.Generators(cfg.NumThreads, cfg.LineBytes, cfg.Seed)
	if err != nil {
		return Run{}, err
	}
	ctl, rts, err := core.ControllerFor(pol)
	if err != nil {
		return Run{}, err
	}
	ctl, inj, err := cfg.wrapFault(ctl)
	if err != nil {
		return Run{}, err
	}
	srcs, closeSrcs := cfg.sources(gens)
	defer closeSrcs()
	s, err := sim.New(cfg.simParams(pol), srcs, ctl, prof.PhaseFunc(cfg.NumThreads))
	if err != nil {
		return Run{}, err
	}

	modeName, total := "intervals", cfg.Intervals
	if mode == BySections {
		modeName, total = "sections", cfg.Sections
	}
	meta := checkpoint.Meta{
		Benchmark:   benchmark,
		Policy:      pol.String(),
		Fingerprint: cfg.Fingerprint(),
		Mode:        modeName,
		Total:       total,
	}

	if spec.Resume && spec.Path != "" {
		snap, err := checkpoint.Load(spec.Path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Nothing to resume from; run from the start.
		case err != nil:
			return Run{}, err
		default:
			if err := restoreSnapshot(snap, meta, s, rts, inj); err != nil {
				return Run{}, err
			}
		}
	}

	save := func() error {
		if spec.Path == "" {
			return nil
		}
		snap, err := captureSnapshot(meta, s, rts, inj)
		if err != nil {
			return err
		}
		return checkpoint.Save(spec.Path, snap)
	}
	runHook := func(done int) error {
		if spec.Every > 0 && done%spec.Every == 0 {
			if err := save(); err != nil {
				return err
			}
		}
		if hook != nil {
			return hook(done)
		}
		return nil
	}

	var res sim.Result
	var runErr error
	if mode == BySections {
		remaining := total - s.CompletedSections()
		if remaining < 0 {
			remaining = 0
		}
		res, runErr = s.RunSectionsContext(ctx, remaining, runHook)
	} else {
		res, runErr = s.RunIntervalsContext(ctx, total, runHook)
	}
	run := Run{Benchmark: benchmark, Policy: pol, Result: res, RTS: rts}
	run.noteFaults(inj)
	// Persist the stop state whether the run completed or was cancelled:
	// every interval boundary is a valid resume point, and the atomic
	// write means a crash here keeps the previous snapshot.
	if err := save(); err != nil && runErr == nil {
		runErr = err
	}
	return run, runErr
}

// captureSnapshot assembles the full checkpoint for a run built from
// (s, rts, inj); nil rts/inj simply leave their sections empty.
func captureSnapshot(meta checkpoint.Meta, s *sim.Simulator, rts *core.RuntimeSystem, inj *fault.Injector) (*checkpoint.Snapshot, error) {
	simSt, err := s.State()
	if err != nil {
		return nil, err
	}
	snap := &checkpoint.Snapshot{Meta: meta, Sim: simSt}
	if rts != nil {
		st, err := rts.State()
		if err != nil {
			return nil, err
		}
		snap.Runtime = &st
	}
	if inj != nil {
		st := inj.State()
		snap.Fault = &st
	}
	return snap, nil
}

// restoreSnapshot overlays a loaded snapshot onto a freshly constructed
// run after verifying it was taken under the same experiment identity.
func restoreSnapshot(snap *checkpoint.Snapshot, want checkpoint.Meta, s *sim.Simulator, rts *core.RuntimeSystem, inj *fault.Injector) error {
	got := snap.Meta
	got.CreatedUnix = 0
	want.CreatedUnix = 0
	if got != want {
		return fmt.Errorf("experiment: checkpoint identity mismatch: have %+v, want %+v", got, want)
	}
	if (snap.Runtime != nil) != (rts != nil) {
		return fmt.Errorf("experiment: checkpoint runtime-system presence does not match the run's")
	}
	if (snap.Fault != nil) != (inj != nil) {
		return fmt.Errorf("experiment: checkpoint fault-injector presence does not match the run's")
	}
	if err := s.Restore(snap.Sim); err != nil {
		return err
	}
	if rts != nil {
		if err := rts.Restore(*snap.Runtime); err != nil {
			return err
		}
	}
	if inj != nil {
		if err := inj.Restore(*snap.Fault); err != nil {
			return err
		}
	}
	return nil
}
