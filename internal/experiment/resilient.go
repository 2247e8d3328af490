package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"io/fs"
	"time"

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
// and are skipped on -resume), per-cell deadlines, and
// capped-exponential retry for transient cell failures.

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
	return fmt.Sprintf("cfg1{t=%d l1=%dKB/%dw l2=%dKB/%dw line=%d lat=%d/%d/%d sect=%d iv=%d run=%d/%d umon=%d seed=%d fault=%s}",
		c.NumThreads, c.L1KB, c.L1Ways, c.L2KB, c.L2Ways, c.LineBytes,
		c.BaseCycles, c.L2HitCycles, c.MemCycles,
		c.SectionInstructions, c.IntervalInstructions,
		c.Intervals, c.Sections, c.UMONStride, c.Seed, faultDesc)
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

// maxAttempts is the effective total number of tries (Attempts clamped
// to at least 1).
func (p RetryPolicy) maxAttempts() int {
	if p.Attempts <= 1 {
		return 1
	}
	return p.Attempts
}

// backoff returns the delay before retry number retry (0-based) of the
// cell identified by key: capped exponential growth with bounded
// deterministic jitter. The jitter is ±25%, derived by hashing (key,
// retry), so a batch of cells failing simultaneously (a shared
// resource blip) spreads its retries out instead of thundering back in
// lockstep — while any given cell's retry schedule is exactly
// reproducible.
func (p RetryPolicy) backoff(key string, retry int) time.Duration {
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
	Retry   RetryPolicy
}

// ErrCellDeadline marks an attempt whose hard wall-clock deadline
// expired. A failed cell is classified so the journal and the sweep
// summary can tell a timed-out cell from a cancelled or failing one.
var ErrCellDeadline = errors.New("experiment: cell deadline exceeded")

// Cell error kinds, the journal/summary rendering of the taxonomy.
const (
	KindDeadline  = "deadline"
	KindCancelled = "cancelled"
	KindFailed    = "failed"
)

// CellErrorKind classifies a cell error into the taxonomy above;
// nil maps to "".
func CellErrorKind(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrCellDeadline), errors.Is(err, context.DeadlineExceeded):
		return KindDeadline
	case errors.Is(err, context.Canceled):
		return KindCancelled
	default:
		return KindFailed
	}
}

// runCell executes fn with the cell's deadline and retry policy
// applied. fn receives a derived context, cancelled on deadline or
// parent cancellation. key identifies the cell for backoff jitter.
// Returns how many attempts ran and the final error.
func runCell(ctx context.Context, key string, opts CellOptions, fn func(ctx context.Context) error) (attempts int, err error) {
	tries := opts.Retry.maxAttempts()
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
			t := time.NewTimer(opts.Retry.backoff(key, try))
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

// runAttempt is one try: it wires up the deadline and recovers panics
// into errors so the retry loop sees them.
func runAttempt(ctx context.Context, opts CellOptions, fn func(ctx context.Context) error) (err error) {
	attemptCtx := ctx
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		attemptCtx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment: cell panicked: %v", r)
		}
		if err != nil && opts.Timeout > 0 && errors.Is(err, context.DeadlineExceeded) {
			// Both sentinels stay matchable: ErrCellDeadline for the
			// taxonomy, context.DeadlineExceeded for existing callers.
			err = fmt.Errorf("%w after %v: %w", ErrCellDeadline, opts.Timeout, err)
		}
	}()
	return fn(attemptCtx)
}

// SweepOptions configures a journaled sweep.
type SweepOptions struct {
	// Workers bounds the worker pool; <= 0 uses GOMAXPROCS.
	Workers int
	// JournalPath, when non-empty, records each completed cell durably
	// so a crashed or cancelled sweep resumes where it stopped. Only
	// successes are read back: a failed cell's fail/ record is for
	// post-mortems, and the cell is retried on resume.
	JournalPath string
	Cell        CellOptions
}

// CellRecord is the journaled payload of one successful sweep cell. It
// depends only on the cell's configuration (simulations are
// deterministic), never on when or how often the cell ran, which is
// what makes a resumed cell identical to a recomputed one.
type CellRecord struct {
	ImprovementPct float64
	BaselineCycles uint64
	DynamicCycles  uint64
}

// failRecord is the journaled payload of a cell that exhausted its
// retries, keyed under failKeyPrefix so it never shadows a result.
type failRecord struct {
	Kind     string
	Error    string
	Attempts int
}

// appendCellFailure journals a cell's final failure under
// failKeyPrefix.
func appendCellFailure(jr *checkpoint.Journal, key string, err error, attempts int) error {
	return jr.Append(failKeyPrefix+key, failRecord{
		Kind: CellErrorKind(err), Error: err.Error(), Attempts: attempts,
	})
}

// failKeyPrefix + CellKey records a cell's final failure and its
// taxonomy kind, so a crashed sweep's post-mortem can tell deadlines
// from failures without re-running anything. Only bare CellKey records are
// read back on resume, so failure records (and any other prefixed
// bookkeeping an older journal holds) never shadow a result.
const failKeyPrefix = "fail/"

// CellKey is the journal key of sweep cell i with the given label.
func CellKey(i int, label string) string {
	return fmt.Sprintf("cell/%d/%s", i, label)
}

// SweepFingerprint identifies a sweep: the full point list, benchmark
// and policy pair, hashed. Journals carry it in their header and refuse
// to mix state across different fingerprints. The trailing int
// parameter is ignored; it remains only so existing callers keep
// compiling.
func SweepFingerprint(points []SweepPoint, benchmark string, baseline, candidate core.Policy, _ int) string {
	parts := []string{"sweep1", benchmark, baseline.String(), candidate.String()}
	for _, p := range points {
		parts = append(parts, p.Label, p.Cfg.Fingerprint())
	}
	return hashFingerprint(parts...)
}

// runSweepCell executes one sweep cell — the baseline-vs-candidate
// comparison at one point — under the cell's deadline and retry
// policy. key identifies the cell for backoff jitter.
func runSweepCell(ctx context.Context, key string, cfg Config, benchmark string,
	baseline, candidate core.Policy, opts CellOptions) (CellRecord, int, error) {
	prof, err := workload.ByName(benchmark)
	if err != nil {
		return CellRecord{}, 0, err
	}
	var rec CellRecord
	attempts, err := runCell(ctx, key, opts, func(cellCtx context.Context) error {
		c, err := CompareCtx(cellCtx, cfg, prof, baseline, candidate)
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

// SweepCell is one baseline-vs-candidate comparison of a cell sweep:
// the journal key its record is stored under, a display label, and
// everything runSweepCell needs to compute it. Point sweeps lay
// themselves out as flat cell lists (PointCells), which RunSweepCells
// runs.
type SweepCell struct {
	Key       string
	Label     string
	Benchmark string
	Baseline  core.Policy
	Candidate core.Policy
	Cfg       Config
}

// PointCells lays a point sweep out as cells, cell i keyed
// CellKey(i, points[i].Label).
func PointCells(points []SweepPoint, benchmark string, baseline, candidate core.Policy) []SweepCell {
	cells := make([]SweepCell, len(points))
	for i, p := range points {
		cells[i] = SweepCell{
			Key: CellKey(i, p.Label), Label: p.Label, Benchmark: benchmark,
			Baseline: baseline, Candidate: candidate, Cfg: p.Cfg,
		}
	}
	return cells
}

// SweepJournaled runs baseline-vs-candidate on one benchmark across a
// set of configurations and returns one result per point, in order.
// It is RunSweepCells over PointCells, journaled under
// SweepFingerprint.
func SweepJournaled(ctx context.Context, points []SweepPoint, benchmark string,
	baseline, candidate core.Policy, opts SweepOptions) ([]SweepResult, error) {
	if _, err := workload.ByName(benchmark); err != nil {
		return nil, err
	}
	return RunSweepCells(ctx, SweepFingerprint(points, benchmark, baseline, candidate, 0),
		PointCells(points, benchmark, baseline, candidate), opts)
}

// RunSweepCells runs cells in-process on opts.Workers workers, with
// cancellation, per-cell deadlines and retry, and an optional journal
// at opts.JournalPath stamped with fp: cells already journaled by a
// previous run are returned from the journal (Resumed=true) instead of
// being recomputed. A failing cell does not abort the sweep: its Err
// is set and the rest still run. A cell with an unknown benchmark or no
// run length fails the whole sweep before the journal is opened.
// Otherwise the returned error is non-nil only when the sweep was
// cancelled or every cell failed; the per-cell results come back
// alongside it.
func RunSweepCells(ctx context.Context, fp string, cells []SweepCell, opts SweepOptions) ([]SweepResult, error) {
	for _, c := range cells {
		if _, err := workload.ByName(c.Benchmark); err != nil {
			return nil, err
		}
		if _, err := c.Cfg.runLength(BySections); err != nil {
			return nil, err
		}
	}
	j := &sweepJournal{path: opts.JournalPath, fp: fp}
	defer j.close()
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.Key
	}
	runs, err := runJournaled(ctx, "sweep", j, opts.Workers, keys,
		func(ctx context.Context, i int) (CellRecord, int, error) {
			c := &cells[i]
			return runSweepCell(ctx, c.Key, c.Cfg, c.Benchmark, c.Baseline, c.Candidate, opts.Cell)
		})
	if runs == nil {
		return nil, err
	}
	out := make([]SweepResult, len(cells))
	for i, r := range runs {
		out[i] = SweepResult{
			Label:          cells[i].Label,
			Benchmark:      cells[i].Benchmark,
			ImprovementPct: r.rec.ImprovementPct,
			BaselineCycles: r.rec.BaselineCycles,
			DynamicCycles:  r.rec.DynamicCycles,
			Attempts:       r.attempts,
			Resumed:        r.resumed,
			Err:            r.err,
			ErrKind:        CellErrorKind(r.err),
		}
	}
	return out, err
}

// sweepJournal is where a sweep journals its cells: the path ("" for
// none) and the fingerprint its header must carry. runJournaled opens
// it on first use, so the stages of one sweep share a journal; the
// sweep closes it when done.
type sweepJournal struct {
	path, fp string
	jr       *checkpoint.Journal
	prior    map[string]json.RawMessage
}

func (j *sweepJournal) close() {
	if j.jr != nil {
		j.jr.Close()
	}
}

// cellRun is one journaled cell's outcome: its record, how many tries
// it took (0 when read back from the journal), and its final error.
type cellRun[R any] struct {
	rec      R
	attempts int
	resumed  bool
	err      error
}

// runJournaled is the journaled sweep loop every in-process sweep
// runs on. It opens j, then for each cell i reads back the record a
// previous run journaled under keys[i] or, failing that, computes it
// with compute on a pool of workers. Each success is appended under
// its key and each final failure under failKeyPrefix+key. The error
// is the sweep's verdict, named by what: non-nil when j cannot be
// opened (and the runs are nil), when ctx was cancelled, or when every
// cell failed.
func runJournaled[R any](ctx context.Context, what string, j *sweepJournal, workers int,
	keys []string, compute func(ctx context.Context, i int) (R, int, error)) ([]cellRun[R], error) {
	if j.jr == nil && j.path != "" {
		var err error
		if j.jr, j.prior, err = checkpoint.OpenJournal(j.path, j.fp); err != nil {
			return nil, err
		}
	}
	out := make([]cellRun[R], len(keys))
	errs := forEachIndexCtx(ctx, len(keys), workers, func(i int) error {
		if raw, ok := j.prior[keys[i]]; ok {
			var rec R
			if json.Unmarshal(raw, &rec) == nil {
				out[i] = cellRun[R]{rec: rec, resumed: true}
				return nil
			}
			// Unreadable record: recompute the cell rather than fail.
		}
		rec, attempts, err := compute(ctx, i)
		out[i].attempts = attempts
		if err != nil {
			if j.jr != nil {
				// Best-effort: the failure record aids post-mortems but
				// must not mask the cell's own error.
				appendCellFailure(j.jr, keys[i], err, attempts)
			}
			return err
		}
		out[i].rec = rec
		if j.jr != nil {
			return j.jr.Append(keys[i], rec)
		}
		return nil
	})
	failed := 0
	var first error
	for i, err := range errs {
		if err != nil {
			out[i].err = err
			failed++
			if first == nil {
				first = err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return out, fmt.Errorf("experiment: %s cancelled after %d/%d cells: %w",
			what, len(keys)-failed, len(keys), err)
	}
	if len(keys) > 0 && failed == len(keys) {
		return out, fmt.Errorf("experiment: %s: all %d cells failed; first: %w", what, failed, first)
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

// RobustnessSweepJournaled runs every (benchmark, policy, level) cell,
// comparing each against a clean shared-cache baseline on the same
// fixed work (BySections). nil benchmarks means all nine; nil policies
// means {static-equal, cpi-proportional, model-based}; nil levels
// means DefaultFaultLevels(). Its two stages run on runJournaled
// against one journal: clean shared baselines under
// "base/<benchmark>", then cells under
// "cell/<benchmark>/<policy>/<level>". Failing cells carry per-cell
// errors; the returned error is non-nil only when the sweep was
// cancelled or every cell failed.
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
	if _, err := cfg.runLength(BySections); err != nil {
		return nil, err
	}
	const what = "robustness sweep"
	j := &sweepJournal{path: opts.JournalPath, fp: robustFingerprint(cfg, benchmarks, policies, levels)}
	defer j.close()

	// Stage 1: clean shared baselines, one per benchmark. Its verdict
	// is stage 2's: a failed baseline fails every cell built on it.
	clean := cfg
	clean.Fault = nil
	baseKeys := make([]string, len(benchmarks))
	for i, b := range benchmarks {
		baseKeys[i] = "base/" + b
	}
	bases, err := runJournaled(ctx, what, j, opts.Workers, baseKeys,
		func(ctx context.Context, i int) (robustBaseRecord, int, error) {
			run, attempts, err := runFixedWork(ctx, baseKeys[i], clean, benchmarks[i], core.PolicyShared, opts.Cell)
			return robustBaseRecord{WallCycles: run.Result.WallCycles}, attempts, err
		})
	if bases == nil {
		return nil, err
	}

	// Stage 2: the (benchmark, policy, level) cells.
	perBench := len(policies) * len(levels)
	cells := make([]RobustnessCell, len(benchmarks)*perBench)
	keys := make([]string, len(cells))
	for i := range cells {
		c := RobustnessCell{
			Benchmark: benchmarks[i/perBench],
			Policy:    policies[i%perBench/len(levels)],
			Level:     levels[i%len(levels)].Name,
		}
		cells[i] = c
		keys[i] = fmt.Sprintf("cell/%s/%s/%s", c.Benchmark, c.Policy, c.Level)
	}
	runs, err := runJournaled(ctx, what, j, opts.Workers, keys,
		func(ctx context.Context, i int) (robustCellRecord, int, error) {
			base := bases[i/perBench]
			if base.err != nil {
				return robustCellRecord{}, 0, fmt.Errorf("experiment: baseline %s: %w", cells[i].Benchmark, base.err)
			}
			c := clean
			if plan := levels[i%len(levels)].Plan; !plan.IsZero() {
				c.Fault = &plan
			}
			run, attempts, err := runFixedWork(ctx, keys[i], c, cells[i].Benchmark, cells[i].Policy, opts.Cell)
			if err != nil {
				return robustCellRecord{}, attempts, err
			}
			rec := robustCellRecord{
				WallCycles:     run.Result.WallCycles,
				SharedCycles:   base.rec.WallCycles,
				ImprovementPct: 100 * stats.Improvement(float64(base.rec.WallCycles), float64(run.Result.WallCycles)),
				Health:         run.Result.ControllerHealth,
			}
			if run.FaultStats != nil {
				rec.Faults = *run.FaultStats
			}
			return rec, attempts, nil
		})
	for i, r := range runs {
		c := &cells[i]
		c.WallCycles, c.SharedCycles = r.rec.WallCycles, r.rec.SharedCycles
		c.ImprovementPct, c.Health, c.Faults = r.rec.ImprovementPct, r.rec.Health, r.rec.Faults
		c.Attempts, c.Resumed, c.Err = r.attempts, r.resumed, r.err
	}
	return cells, err
}

// runFixedWork runs pol on benchmark for cfg.Sections under the cell's
// deadline and retry policy, returning the last
// attempt's run and how many attempts ran.
func runFixedWork(ctx context.Context, key string, cfg Config, benchmark string,
	pol core.Policy, opts CellOptions) (Run, int, error) {
	prof, err := workload.ByName(benchmark)
	if err != nil {
		return Run{}, 0, err
	}
	var run Run
	attempts, err := runCell(ctx, key, opts, func(cellCtx context.Context) error {
		var err error
		run, err = RunOneCtx(cellCtx, cfg, prof, pol, BySections)
		return err
	})
	return run, attempts, err
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
	ctl, rts, err := core.ControllerFor(pol)
	if err != nil {
		return Run{}, err
	}
	r, err := cfg.newRun(mode, pol, ctl, cfg.profileInput(prof))
	if err != nil {
		return Run{}, err
	}
	defer r.close()

	modeName := "intervals"
	if mode == BySections {
		modeName = "sections"
	}
	meta := checkpoint.Meta{
		Benchmark:   benchmark,
		Policy:      pol.String(),
		Fingerprint: cfg.Fingerprint(),
		Mode:        modeName,
		Total:       r.n,
	}

	if spec.Resume && spec.Path != "" {
		snap, err := checkpoint.Load(spec.Path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Nothing to resume from; run from the start.
		case err != nil:
			return Run{}, err
		default:
			if err := restoreSnapshot(snap, meta, r.Simulator, rts, r.inj); err != nil {
				return Run{}, err
			}
		}
	}

	save := func() error {
		if spec.Path == "" {
			return nil
		}
		snap, err := captureSnapshot(meta, r.Simulator, rts, r.inj)
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

	res, runErr := r.run(ctx, runHook)
	run := r.output(benchmark, pol, res, rts)
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
