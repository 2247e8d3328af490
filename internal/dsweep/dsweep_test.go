package dsweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"intracache/internal/checkpoint"
	"intracache/internal/core"
	"intracache/internal/experiment"
)

const (
	testBench     = "cg"
	testBaseline  = core.PolicyShared
	testCandidate = core.PolicyStaticEqual
)

// testPoints builds n small, mutually distinct sweep cells.
func testPoints(n int) []experiment.SweepPoint {
	cfg := experiment.QuickConfig()
	cfg.Sections = 6
	pts := make([]experiment.SweepPoint, n)
	for i := range pts {
		c := cfg
		c.Seed = uint64(100 + i)
		pts[i] = experiment.SweepPoint{Label: fmt.Sprintf("p%d", i), Cfg: c}
	}
	return pts
}

// runPoints distributes a point sweep of testBench through Run.
func runPoints(points []experiment.SweepPoint, opts Options) ([]experiment.SweepResult, Stats, error) {
	return Run(context.Background(),
		experiment.SweepFingerprint(points, testBench, testBaseline, testCandidate, 0),
		experiment.PointCells(points, testBench, testBaseline, testCandidate), opts)
}

// referenceSweep runs the fault-free in-process sweep and returns its
// results plus the canonical bytes of its journal.
func referenceSweep(t *testing.T, points []experiment.SweepPoint) ([]experiment.SweepResult, []byte) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "ref.journal")
	want, err := experiment.SweepJournaled(context.Background(), points, testBench,
		testBaseline, testCandidate, experiment.SweepOptions{JournalPath: path})
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	fp := experiment.SweepFingerprint(points, testBench, testBaseline, testCandidate, 0)
	if _, err := checkpoint.MergeJournalFiles(path, fp,
		checkpoint.MergeOptions{Drop: experiment.DropTransientJournalKeys}); err != nil {
		t.Fatalf("canonicalize reference journal: %v", err)
	}
	raw := readFile(t, path)
	return want, raw
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return raw
}

// compareResults asserts the computed fields of two sweeps match
// cell-for-cell (Attempts/Resumed legitimately differ between paths).
func compareResults(t *testing.T, got, want []experiment.SweepResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Err != nil {
			t.Fatalf("cell %q failed: %v", got[i].Label, got[i].Err)
		}
		if got[i].Label != want[i].Label ||
			got[i].ImprovementPct != want[i].ImprovementPct ||
			got[i].BaselineCycles != want[i].BaselineCycles ||
			got[i].DynamicCycles != want[i].DynamicCycles {
			t.Errorf("cell %q: got %+v, want %+v", want[i].Label, got[i], want[i])
		}
	}
}

// stubWorker scripts a Worker for coordinator unit tests.
type stubWorker struct {
	name    string
	journal string
	pingErr error
	run     func(ctx context.Context, tk Task, onBeat func()) (Result, error)

	mu   sync.Mutex
	runs int
}

func (s *stubWorker) Name() string                   { return s.name }
func (s *stubWorker) JournalPath() string            { return s.journal }
func (s *stubWorker) Ping(ctx context.Context) error { return s.pingErr }
func (s *stubWorker) Close() error                   { return nil }
func (s *stubWorker) runCount() int                  { s.mu.Lock(); defer s.mu.Unlock(); return s.runs }
func (s *stubWorker) Run(ctx context.Context, tk Task, onBeat func()) (Result, error) {
	s.mu.Lock()
	s.runs++
	s.mu.Unlock()
	return s.run(ctx, tk, onBeat)
}

// computeTask is what a faithful worker does with a task, shared by
// stubs so scripted workers compute real records.
func computeTask(ctx context.Context, tk Task, onBeat func()) Result {
	res := Result{Key: tk.Key, Attempt: tk.Attempt, Fingerprint: tk.Fingerprint}
	baseline, err := core.ParsePolicy(tk.Baseline)
	if err != nil {
		res.ErrKind, res.Err = experiment.KindFailed, err.Error()
		return res
	}
	candidate, err := core.ParsePolicy(tk.Candidate)
	if err != nil {
		res.ErrKind, res.Err = experiment.KindFailed, err.Error()
		return res
	}
	rec, _, err := experiment.RunSweepCell(ctx, tk.Key, tk.Cfg, tk.Benchmark,
		baseline, candidate, experiment.CellOptions{}, onBeat)
	if err != nil {
		res.ErrKind = experiment.CellErrorKind(err)
		res.Err = err.Error()
		return res
	}
	res.Record = rec
	return res
}

func faithfulStub(name string) *stubWorker {
	s := &stubWorker{name: name}
	s.run = func(ctx context.Context, tk Task, onBeat func()) (Result, error) {
		return computeTask(ctx, tk, onBeat), nil
	}
	return s
}

func TestDistributedMatchesInProcess(t *testing.T) {
	points := testPoints(6)
	want, wantJournal := referenceSweep(t, points)

	journal := filepath.Join(t.TempDir(), "coord.journal")
	got, stats, err := runPoints(points,
		Options{
			Workers:     []Worker{faithfulStub("w0"), faithfulStub("w1")},
			JournalPath: journal,
			Log:         t.Logf,
		})
	if err != nil {
		t.Fatalf("distributed sweep: %v", err)
	}
	compareResults(t, got, want)
	if stats.Computed != len(points) || stats.Failed != 0 || stats.Duplicates != 0 {
		t.Errorf("stats = %+v, want all %d cells computed", stats, len(points))
	}
	if string(readFile(t, journal)) != string(wantJournal) {
		t.Error("distributed journal is not byte-identical to the fault-free in-process journal")
	}
	for i := range points {
		key := experiment.CellKey(i, points[i].Label)
		if stats.Attempts[key] != 1 {
			t.Errorf("cell %s attempted %d times, want 1", key, stats.Attempts[key])
		}
	}
}

// TestDistributedMixedCellsMatchInProcess: one coordinator run can
// span benchmarks and policies, because each Task carries its own
// cell's. A mechanism matrix distributed across two workers returns
// the in-process results and a byte-identical canonical journal.
func TestDistributedMixedCellsMatchInProcess(t *testing.T) {
	cfg := experiment.QuickConfig()
	cfg.Sections = 4
	fp, cells, err := experiment.MechanismSweepCells(experiment.MechanismSweepSpec{
		Cfg:        cfg,
		Benchmarks: []string{"cg", "swim"},
		Policies:   []core.Policy{core.PolicyStaticEqual, core.PolicyModelBased},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.journal")
	want, err := experiment.RunSweepCells(context.Background(), fp, cells,
		experiment.SweepOptions{JournalPath: ref})
	if err != nil {
		t.Fatalf("in-process sweep: %v", err)
	}
	if err := canonicalize(ref, fp, nil); err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(dir, "coord.journal")
	got, stats, err := Run(context.Background(), fp, cells, Options{
		Workers:     []Worker{faithfulStub("w0"), faithfulStub("w1")},
		JournalPath: journal,
		Log:         t.Logf,
	})
	if err != nil {
		t.Fatalf("distributed sweep: %v", err)
	}
	compareResults(t, got, want)
	for i := range got {
		if got[i].Benchmark != cells[i].Benchmark {
			t.Errorf("result %d is for %s, want %s", i, got[i].Benchmark, cells[i].Benchmark)
		}
	}
	if stats.Computed != len(cells) {
		t.Errorf("stats = %+v, want all %d cells computed", stats, len(cells))
	}
	if string(readFile(t, journal)) != string(readFile(t, ref)) {
		t.Error("distributed journal is not byte-identical to the in-process journal")
	}
}

func TestWorkerDeathRedispatches(t *testing.T) {
	points := testPoints(4)
	want, _ := referenceSweep(t, points)

	dying := &stubWorker{name: "doomed"}
	dying.run = func(ctx context.Context, tk Task, onBeat func()) (Result, error) {
		return Result{}, fmt.Errorf("%w: simulated crash", experiment.ErrWorkerDied)
	}
	got, stats, err := runPoints(points,
		Options{
			Workers: []Worker{dying, faithfulStub("healthy")},
			Cell: experiment.CellOptions{Retry: experiment.RetryPolicy{
				Attempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}},
			Log: t.Logf,
		})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	compareResults(t, got, want)
	if dying.runCount() != 1 {
		t.Errorf("dying worker ran %d tasks, want 1 (retired on first death)", dying.runCount())
	}
	if stats.ErrKinds[experiment.KindWorkerDied] != 1 {
		t.Errorf("ErrKinds = %v, want one worker-died", stats.ErrKinds)
	}
	if stats.Redispatches < 1 || stats.WorkersRetired < 1 {
		t.Errorf("stats = %+v, want at least one redispatch and one retired worker", stats)
	}
}

func TestDeadWorkerJournalRecovery(t *testing.T) {
	points := testPoints(3)
	want, _ := referenceSweep(t, points)
	fp := experiment.SweepFingerprint(points, testBench, testBaseline, testCandidate, 0)

	// The doomed worker computes and journals its cell, then "dies"
	// before the reply lands — the coordinator must read the record
	// back from its journal instead of recomputing.
	workerJournal := filepath.Join(t.TempDir(), "worker.journal")
	doomed := &stubWorker{name: "doomed", journal: workerJournal}
	doomed.run = func(ctx context.Context, tk Task, onBeat func()) (Result, error) {
		res := computeTask(ctx, tk, onBeat)
		if res.failed() {
			return res, nil
		}
		jr, _, err := checkpoint.OpenJournal(workerJournal, tk.Fingerprint)
		if err != nil {
			return Result{}, err
		}
		jr.Append(tk.Key, res.Record)
		jr.Close()
		return Result{}, fmt.Errorf("%w: died after journaling", experiment.ErrWorkerDied)
	}

	got, stats, err := runPoints(points,
		Options{
			Workers: []Worker{doomed, faithfulStub("healthy")},
			Cell: experiment.CellOptions{Retry: experiment.RetryPolicy{
				Attempts: 2, BaseDelay: time.Millisecond}},
			Log: t.Logf,
		})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	compareResults(t, got, want)
	if stats.Recovered != 1 {
		t.Errorf("stats = %+v, want exactly one cell recovered from the dead worker's journal", stats)
	}
	if stats.Redispatches != 0 {
		t.Errorf("recovered cell was redispatched anyway: %+v", stats)
	}
	// The recovery journal must carry the right fingerprint to be read.
	if _, err := checkpoint.ReadJournal(workerJournal, fp); err != nil {
		t.Fatalf("worker journal unreadable under sweep fingerprint: %v", err)
	}
}

func TestNoWorkersReachableDegradesInProcess(t *testing.T) {
	points := testPoints(3)
	want, wantJournal := referenceSweep(t, points)

	unreachable := &stubWorker{name: "gone", pingErr: errors.New("connection refused")}
	unreachable.run = func(context.Context, Task, func()) (Result, error) {
		panic("unreachable worker must never run a task")
	}
	journal := filepath.Join(t.TempDir(), "coord.journal")
	got, stats, err := runPoints(points,
		Options{
			Workers:      []Worker{unreachable},
			JournalPath:  journal,
			ProbeTimeout: 50 * time.Millisecond,
			Log:          t.Logf,
		})
	if err != nil {
		t.Fatalf("degraded sweep: %v", err)
	}
	compareResults(t, got, want)
	if !stats.Degraded || stats.Local != len(points) || stats.WorkersAlive != 0 {
		t.Errorf("stats = %+v, want degraded all-local run", stats)
	}
	if string(readFile(t, journal)) != string(wantJournal) {
		t.Error("degraded journal is not byte-identical to the reference journal")
	}
}

func TestAllWorkersLostFallsBackToLocal(t *testing.T) {
	points := testPoints(3)
	want, _ := referenceSweep(t, points)

	dying := &stubWorker{name: "doomed"}
	dying.run = func(ctx context.Context, tk Task, onBeat func()) (Result, error) {
		return Result{}, fmt.Errorf("%w: crash", experiment.ErrWorkerDied)
	}
	got, stats, err := runPoints(points,
		Options{
			Workers: []Worker{dying},
			Cell: experiment.CellOptions{Retry: experiment.RetryPolicy{
				Attempts: 3, BaseDelay: time.Millisecond}},
			Log: t.Logf,
		})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	compareResults(t, got, want)
	if !stats.Degraded || stats.WorkersRetired != 1 || stats.Local != len(points) {
		t.Errorf("stats = %+v, want 1 retired worker and %d local cells", stats, len(points))
	}
}

func TestCorruptReplyIsCellFailureNeverMerged(t *testing.T) {
	points := testPoints(2)
	liar := &stubWorker{name: "liar"}
	liar.run = func(ctx context.Context, tk Task, onBeat func()) (Result, error) {
		return Result{}, fmt.Errorf("%w: checksum mismatch", experiment.ErrResultCorrupt)
	}
	journal := filepath.Join(t.TempDir(), "coord.journal")
	got, stats, err := runPoints(points,
		Options{
			Workers:     []Worker{liar},
			JournalPath: journal,
			// MaxWorkerFailures above the cell count so the corrupt
			// replies burn the cells' budgets, not the worker's.
			MaxWorkerFailures: 10,
			Log:               t.Logf,
		})
	if err == nil {
		t.Fatal("sweep with only corrupt replies reported success")
	}
	for _, r := range got {
		if r.ErrKind != experiment.KindCorrupt {
			t.Errorf("cell %q ErrKind = %q, want %q", r.Label, r.ErrKind, experiment.KindCorrupt)
		}
	}
	if stats.Computed != 0 || stats.Failed != len(points) {
		t.Errorf("stats = %+v, want zero merges", stats)
	}
	fp := experiment.SweepFingerprint(points, testBench, testBaseline, testCandidate, 0)
	entries, jerr := checkpoint.ReadJournal(journal, fp)
	if jerr != nil {
		t.Fatalf("read journal: %v", jerr)
	}
	for key := range entries {
		if !strings.HasPrefix(key, experiment.FailKeyPrefix) {
			t.Errorf("corrupt run journaled non-failure entry %q", key)
		}
	}
}

func TestResumeSkipsDispatch(t *testing.T) {
	points := testPoints(3)
	journal := filepath.Join(t.TempDir(), "coord.journal")
	opts := Options{Workers: []Worker{faithfulStub("w0")}, JournalPath: journal, Log: t.Logf}
	first, _, err := runPoints(points, opts)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}

	mustNotRun := &stubWorker{name: "idle"}
	mustNotRun.run = func(context.Context, Task, func()) (Result, error) {
		panic("fully journaled sweep must not dispatch")
	}
	opts.Workers = []Worker{mustNotRun}
	second, stats, err := runPoints(points, opts)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if stats.Resumed != len(points) || stats.Dispatches != 0 {
		t.Errorf("stats = %+v, want everything resumed with zero dispatches", stats)
	}
	for i := range second {
		if !second[i].Resumed {
			t.Errorf("cell %q not resumed", second[i].Label)
		}
		if second[i].ImprovementPct != first[i].ImprovementPct {
			t.Errorf("cell %q changed across resume", second[i].Label)
		}
	}
}

func TestDeliverDedupsDoubleDelivery(t *testing.T) {
	c := &coordinator{
		out:       make([]experiment.SweepResult, 1),
		merged:    map[string]bool{},
		done:      make(chan struct{}),
		remaining: 1,
		stats:     &Stats{ErrKinds: map[string]int{}, Attempts: map[string]int{}},
		logf:      func(string, ...interface{}) {},
	}
	st := &cellState{idx: 0, key: "cell/0/x", attempts: 2}
	rec := experiment.CellRecord{ImprovementPct: 1.5, BaselineCycles: 10, DynamicCycles: 9}
	c.deliver(st, rec, deliverComputed)
	c.deliver(st, rec, deliverRecovered) // the re-dispatched copy arriving late
	if c.stats.Computed != 1 || c.stats.Recovered != 0 || c.stats.Duplicates != 1 {
		t.Fatalf("stats = %+v, want exactly one merge and one dropped duplicate", *c.stats)
	}
	if c.remaining != 0 {
		t.Fatalf("remaining = %d after terminal delivery", c.remaining)
	}
	select {
	case <-c.done:
	default:
		t.Fatal("done not closed after the last cell delivered")
	}
}
