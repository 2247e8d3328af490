package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"intracache/internal/checkpoint"
	"intracache/internal/core"
)

func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{Attempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

func TestRunCellRetriesTransientFailure(t *testing.T) {
	calls := 0
	attempts, err := runCell(context.Background(), "cell/test", CellOptions{Retry: fastRetry(4)},
		func(ctx context.Context) error {
			calls++
			if calls < 3 {
				return fmt.Errorf("transient %d", calls)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("runCell: %v", err)
	}
	if attempts != 3 || calls != 3 {
		t.Fatalf("attempts=%d calls=%d, want 3/3", attempts, calls)
	}
}

func TestRunCellRecoversPanics(t *testing.T) {
	calls := 0
	attempts, err := runCell(context.Background(), "cell/test", CellOptions{Retry: fastRetry(3)},
		func(ctx context.Context) error {
			calls++
			if calls == 1 {
				panic("fault-injected explosion")
			}
			return nil
		})
	if err != nil {
		t.Fatalf("runCell after panic: %v", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts=%d, want 2", attempts)
	}
}

func TestRunCellExhaustsAttempts(t *testing.T) {
	boom := errors.New("deterministic failure")
	attempts, err := runCell(context.Background(), "cell/test", CellOptions{Retry: fastRetry(3)},
		func(ctx context.Context) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want the cell's error", err)
	}
	if attempts != 3 {
		t.Fatalf("attempts=%d, want 3", attempts)
	}
}

func TestRunCellNoRetryAfterParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	attempts, err := runCell(ctx, "cell/test", CellOptions{Retry: fastRetry(5)},
		func(cellCtx context.Context) error {
			cancel()
			return errors.New("failed while shutting down")
		})
	if attempts != 1 {
		t.Fatalf("attempts=%d, want 1 — retrying would hold shutdown hostage", attempts)
	}
	if err == nil {
		t.Fatal("expected an error")
	}
}

func TestRunCellDeadline(t *testing.T) {
	attempts, err := runCell(context.Background(), "cell/test",
		CellOptions{Timeout: 10 * time.Millisecond, Retry: fastRetry(2)},
		func(cellCtx context.Context) error {
			<-cellCtx.Done()
			return cellCtx.Err()
		})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want deadline exceeded", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts=%d, want both attempts to hit the deadline", attempts)
	}
}

func TestForEachIndexCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	errs := forEachIndexCtx(ctx, 8, 2, func(i int) error { ran++; return nil })
	if ran != 0 {
		t.Fatalf("%d cells ran after cancellation", ran)
	}
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("errs[%d]=%v, want context.Canceled", i, err)
		}
	}
}

func TestForEachIndexWorkersClampedToGOMAXPROCS(t *testing.T) {
	// workers <= 0 must clamp, not deadlock or serialize away: every
	// index still runs exactly once.
	for _, workers := range []int{-3, 0, 1, 100} {
		seen := make([]bool, 17)
		errs := forEachIndex(len(seen), workers, func(i int) error {
			seen[i] = true
			return nil
		})
		for i := range seen {
			if !seen[i] || errs[i] != nil {
				t.Fatalf("workers=%d: index %d ran=%v err=%v", workers, i, seen[i], errs[i])
			}
		}
	}
}

func TestSweepJournaledResume(t *testing.T) {
	cfg := QuickConfig()
	cfg.Sections = 4
	points := []SweepPoint{
		{Label: "a", Cfg: cfg},
		{Label: "b", Cfg: func() Config { c := cfg; c.Seed = 7; return c }()},
	}
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	opts := SweepOptions{Workers: 2, JournalPath: journal}

	first, err := SweepJournaled(context.Background(), points, "cg",
		core.PolicyShared, core.PolicyStaticEqual, opts)
	if err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	for _, r := range first {
		if r.Resumed {
			t.Fatalf("cell %q resumed on the first pass", r.Label)
		}
	}

	second, err := SweepJournaled(context.Background(), points, "cg",
		core.PolicyShared, core.PolicyStaticEqual, opts)
	if err != nil {
		t.Fatalf("second sweep: %v", err)
	}
	for i, r := range second {
		if !r.Resumed {
			t.Errorf("cell %q not served from the journal", r.Label)
		}
		if r.BaselineCycles != first[i].BaselineCycles ||
			r.DynamicCycles != first[i].DynamicCycles ||
			r.ImprovementPct != first[i].ImprovementPct {
			t.Errorf("cell %q: journal round trip changed the result", r.Label)
		}
	}
}

// TestSweepJournaledResumesLegacyLeaseJournal: journals written by the
// distributed sweeps of earlier versions also hold lease/<key>/<n>
// dispatch records, and list every key once in sorted order. Resume
// reads records back by cell key only, so such a journal still resumes
// every cell with the values it holds.
func TestSweepJournaledResumesLegacyLeaseJournal(t *testing.T) {
	cfg := QuickConfig()
	cfg.Sections = 4
	points := []SweepPoint{
		{Label: "a", Cfg: cfg},
		{Label: "b", Cfg: func() Config { c := cfg; c.Seed = 7; return c }()},
	}
	fresh, err := SweepJournaled(context.Background(), points, "cg",
		core.PolicyShared, core.PolicyStaticEqual, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatalf("fresh sweep: %v", err)
	}

	type leaseRecord struct {
		Worker  string
		Attempt int
	}
	records := map[string]any{}
	for i, r := range fresh {
		key := CellKey(i, r.Label)
		records[key] = CellRecord{
			ImprovementPct: r.ImprovementPct,
			BaselineCycles: r.BaselineCycles,
			DynamicCycles:  r.DynamicCycles,
		}
		for attempt := 1; attempt <= 2; attempt++ {
			records[fmt.Sprintf("lease/%s/%d", key, attempt)] =
				leaseRecord{Worker: fmt.Sprintf("exec%d", attempt-1), Attempt: attempt}
		}
	}
	keys := make([]string, 0, len(records))
	for k := range records {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	jr, _, err := checkpoint.OpenJournal(journal,
		SweepFingerprint(points, "cg", core.PolicyShared, core.PolicyStaticEqual, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := jr.Append(k, records[k]); err != nil {
			t.Fatal(err)
		}
	}
	jr.Close()

	resumed, err := SweepJournaled(context.Background(), points, "cg",
		core.PolicyShared, core.PolicyStaticEqual, SweepOptions{Workers: 2, JournalPath: journal})
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	for i, r := range resumed {
		if !r.Resumed {
			t.Errorf("cell %q recomputed instead of resuming", r.Label)
		}
		if r.BaselineCycles != fresh[i].BaselineCycles ||
			r.DynamicCycles != fresh[i].DynamicCycles ||
			r.ImprovementPct != fresh[i].ImprovementPct {
			t.Errorf("cell %q: legacy journal changed the result", r.Label)
		}
	}
}

// readJournal returns the records of the journal at path.
func readJournal(t *testing.T, path, fp string) map[string]json.RawMessage {
	t.Helper()
	jr, entries, err := checkpoint.OpenJournal(path, fp)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	jr.Close()
	return entries
}

func TestSweepJournaledRejectsForeignJournal(t *testing.T) {
	cfg := QuickConfig()
	cfg.Sections = 4
	points := []SweepPoint{{Label: "a", Cfg: cfg}}
	journal := filepath.Join(t.TempDir(), "sweep.journal")
	opts := SweepOptions{JournalPath: journal}
	if _, err := SweepJournaled(context.Background(), points, "cg",
		core.PolicyShared, core.PolicyStaticEqual, opts); err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	// Same journal, different sweep identity: must refuse, not skip
	// cells that were computed under different parameters.
	other := points
	other[0].Cfg.Seed = 99
	if _, err := SweepJournaled(context.Background(), other, "cg",
		core.PolicyShared, core.PolicyStaticEqual, opts); err == nil {
		t.Fatal("sweep accepted a journal with a different fingerprint")
	}
}

func TestSweepJournaledCancelled(t *testing.T) {
	cfg := QuickConfig()
	cfg.Sections = 4
	var points []SweepPoint
	for i := 0; i < 6; i++ {
		c := cfg
		c.Seed = uint64(i + 1)
		points = append(points, SweepPoint{Label: fmt.Sprintf("p%d", i), Cfg: c})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := SweepJournaled(ctx, points, "cg",
		core.PolicyShared, core.PolicyStaticEqual, SweepOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if len(out) != len(points) {
		t.Fatalf("got %d results, want a slot per point", len(out))
	}
}

func TestRobustnessSweepJournaledResume(t *testing.T) {
	cfg := QuickConfig()
	cfg.Sections = 4
	benchmarks := []string{"cg"}
	policies := []core.Policy{core.PolicyStaticEqual, core.PolicyModelBased}
	levels := DefaultFaultLevels()[:2] // clean + moderate
	journal := filepath.Join(t.TempDir(), "robust.journal")
	opts := SweepOptions{Workers: 2, JournalPath: journal}

	first, err := RobustnessSweepJournaled(context.Background(), cfg, benchmarks, policies, levels, opts)
	if err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	second, err := RobustnessSweepJournaled(context.Background(), cfg, benchmarks, policies, levels, opts)
	if err != nil {
		t.Fatalf("second sweep: %v", err)
	}
	if len(first) != len(second) {
		t.Fatalf("cell counts differ: %d vs %d", len(first), len(second))
	}
	for i := range second {
		if second[i].Err != nil {
			t.Fatalf("cell %d errored: %v", i, second[i].Err)
		}
		if !second[i].Resumed {
			t.Errorf("cell %s/%s/%s not served from the journal",
				second[i].Benchmark, second[i].Policy, second[i].Level)
		}
		if second[i].WallCycles != first[i].WallCycles ||
			second[i].ImprovementPct != first[i].ImprovementPct ||
			second[i].Health != first[i].Health {
			t.Errorf("cell %d: journal round trip changed the result", i)
		}
	}
}

func TestConfigFingerprintDistinguishesRuns(t *testing.T) {
	a := QuickConfig()
	b := a
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical configs produced different fingerprints")
	}
	b.Seed++
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("seed change did not change the fingerprint")
	}
	c := a
	c.Fault = &DefaultFaultLevels()[1].Plan
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("fault plan did not change the fingerprint")
	}
}

// TestMechanismFingerprintCompat pins the journal-compatibility rule:
// a way-partitioned config fingerprints exactly as it always has, with
// no "mech=" stamp, so every existing journal and checkpoint resumes.
func TestMechanismFingerprintCompat(t *testing.T) {
	const want = "cfg1{t=4 l1=4KB/4w l2=256KB/64w line=64 lat=1/8/100 sect=40000 iv=200000 run=50/60 umon=4 seed=42 fault=none}"
	if got := DefaultConfig().Fingerprint(); got != want {
		t.Fatalf("default fingerprint %s, want %s", got, want)
	}
}

// The backoff schedule must be reproducible for a given cell, spread
// across cells, and bounded by ±25% around the exponential base curve.
func TestBackoffDeterministicJitter(t *testing.T) {
	p := RetryPolicy{Attempts: 6, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second}
	keys := []string{"cell/0/a", "cell/1/b", "cell/2/c", "cell/3/d"}
	for retry := 0; retry < 6; retry++ {
		raw := p.BaseDelay << uint(retry)
		if raw <= 0 || raw > p.MaxDelay {
			raw = p.MaxDelay
		}
		lo := time.Duration(float64(raw) * 0.75)
		hi := time.Duration(float64(raw) * 1.25)
		seen := map[time.Duration]bool{}
		for _, key := range keys {
			d := p.backoff(key, retry)
			if d != p.backoff(key, retry) {
				t.Fatalf("backoff(%q,%d) is not deterministic", key, retry)
			}
			if d < lo || d > hi || d > p.MaxDelay {
				t.Fatalf("backoff(%q,%d) = %v outside [%v,%v] (cap %v)", key, retry, d, lo, hi, p.MaxDelay)
			}
			seen[d] = true
		}
		// The whole point of the jitter: distinct cells failing at the
		// same instant must not share one retry schedule.
		if len(seen) < 2 {
			t.Fatalf("retry %d: all %d cells drew the same backoff %v", retry, len(keys), seen)
		}
	}
	// Pin exact values so the jitter function cannot drift silently:
	// a changed hash or scale would re-time every distributed retry.
	for _, tc := range []struct {
		key   string
		retry int
		want  time.Duration
	}{
		{"cell/0/a", 0, p.backoff("cell/0/a", 0)},
		{"cell/0/a", 3, p.backoff("cell/0/a", 3)},
		{"cell/1/b", 0, p.backoff("cell/1/b", 0)},
	} {
		if got := p.backoff(tc.key, tc.retry); got != tc.want {
			t.Fatalf("backoff(%q,%d) = %v, want %v", tc.key, tc.retry, got, tc.want)
		}
	}
	// Zero-value policy still defaults and caps sanely.
	var zero RetryPolicy
	if d := zero.backoff("k", 40); d > 5*time.Second || d < 3*time.Second {
		t.Fatalf("deep-retry backoff %v strayed from the 5s cap (min 3.75s with jitter)", d)
	}
}

func TestCellErrorKindTaxonomy(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{nil, ""},
		{fmt.Errorf("%w after 1s: %w", ErrCellDeadline, context.DeadlineExceeded), KindDeadline},
		{context.DeadlineExceeded, KindDeadline},
		{context.Canceled, KindCancelled},
		{errors.New("simulation blew up"), KindFailed},
	} {
		if got := CellErrorKind(tc.err); got != tc.want {
			t.Fatalf("CellErrorKind(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// A cell killed by its hard deadline must classify as "deadline", not
// as a cancellation or a plain failure.
func TestRunCellDeadlineVsStallClassification(t *testing.T) {
	_, err := runCell(context.Background(), "cell/test",
		CellOptions{Timeout: 10 * time.Millisecond, Retry: fastRetry(1)},
		func(cellCtx context.Context) error {
			<-cellCtx.Done()
			return cellCtx.Err()
		})
	if !errors.Is(err, ErrCellDeadline) || CellErrorKind(err) != KindDeadline {
		t.Fatalf("deadline kill classified as %q (%v), want %q", CellErrorKind(err), err, KindDeadline)
	}
}

// A sweep whose cell fails terminally must journal the failure with its
// taxonomy kind, and a later successful run must journal the result.
func TestSweepJournaledFailureTaxonomyJournaled(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.journal")
	cfg := QuickConfig()
	points := []SweepPoint{{Label: "p0", Cfg: cfg}}
	// An impossible deadline fails the cell on every attempt.
	_, err := SweepJournaled(context.Background(), points, "cg",
		core.PolicyStaticEqual, core.PolicyModelBased, SweepOptions{
			JournalPath: journal,
			Cell:        CellOptions{Timeout: time.Nanosecond, Retry: fastRetry(2)},
		})
	if err == nil {
		t.Fatal("sweep with an impossible deadline succeeded")
	}
	fp := SweepFingerprint(points, "cg", core.PolicyStaticEqual, core.PolicyModelBased, 0)
	entries := readJournal(t, journal, fp)
	raw := entries[failKeyPrefix+CellKey(0, "p0")]
	if raw == nil {
		t.Fatalf("no fail entry journaled; journal has %v", entries)
	}
	var fr struct {
		Kind     string
		Attempts int
	}
	if err := json.Unmarshal(raw, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Kind != KindDeadline || fr.Attempts != 2 {
		t.Fatalf("fail entry = %+v, want kind %q after 2 attempts", fr, KindDeadline)
	}

	// Re-run without the deadline: the cell succeeds and is journaled.
	res, err := SweepJournaled(context.Background(), points, "cg",
		core.PolicyStaticEqual, core.PolicyModelBased, SweepOptions{JournalPath: journal})
	if err != nil || res[0].Err != nil {
		t.Fatalf("clean re-run failed: %v / %v", err, res[0].Err)
	}
	entries = readJournal(t, journal, fp)
	if entries[CellKey(0, "p0")] == nil {
		t.Fatal("cell result missing after the clean re-run")
	}

	// The robustness sweep runs on the same loop, so its failures are
	// journaled too: the baseline that timed out, and the cell that
	// failed because of it.
	robust := filepath.Join(dir, "robust.journal")
	benchmarks := []string{"cg"}
	policies := []core.Policy{core.PolicyStaticEqual}
	levels := DefaultFaultLevels()[:1]
	if _, err := RobustnessSweepJournaled(context.Background(), cfg, benchmarks, policies, levels,
		SweepOptions{
			JournalPath: robust,
			Cell:        CellOptions{Timeout: time.Nanosecond, Retry: fastRetry(2)},
		}); err == nil {
		t.Fatal("robustness sweep with an impossible deadline succeeded")
	}
	entries = readJournal(t, robust, robustFingerprint(cfg, benchmarks, policies, levels))
	for key, attempts := range map[string]int{"base/cg": 2, "cell/cg/static-equal/clean": 0} {
		raw := entries[failKeyPrefix+key]
		if raw == nil {
			t.Fatalf("no fail entry for %s; journal has %v", key, entries)
		}
		if err := json.Unmarshal(raw, &fr); err != nil {
			t.Fatal(err)
		}
		if fr.Kind != KindDeadline || fr.Attempts != attempts {
			t.Errorf("fail entry for %s = %+v, want kind %q after %d attempts", key, fr, KindDeadline, attempts)
		}
	}
}
