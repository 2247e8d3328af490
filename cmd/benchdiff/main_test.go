package main

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: intracache
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig19VsPrivate-4   	       1	2694531000 ns/op	        54.72 missRed%	   128 B/op	       3 allocs/op
BenchmarkFig20VsShared-4    	       1	2326118000 ns/op	        19.50 missRed%	    64 B/op	       2 allocs/op
BenchmarkFig02Config        	 5000000	       231.5 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	intracache	5.1s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]benchResult{
		"BenchmarkFig19VsPrivate": {NsPerOp: 2694531000, AllocsPerOp: 3, Procs: 4},
		"BenchmarkFig20VsShared":  {NsPerOp: 2326118000, AllocsPerOp: 2, Procs: 4},
		"BenchmarkFig02Config":    {NsPerOp: 231.5, AllocsPerOp: 0},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d results, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
}

func TestParseBenchKeepsFastestDuplicate(t *testing.T) {
	in := "BenchmarkX-4 1 200 ns/op\nBenchmarkX-4 1 100 ns/op\nBenchmarkX-4 1 150 ns/op\n"
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkX"].NsPerOp != 100 {
		t.Errorf("kept %v ns/op, want fastest (100)", got["BenchmarkX"].NsPerOp)
	}
}

// runs turns one result per benchmark into a single-run sample set.
func runs(m map[string]benchResult) map[string][]benchResult {
	out := make(map[string][]benchResult, len(m))
	for k, v := range m {
		out[k] = []benchResult{v}
	}
	return out
}

// TestGateFailsOnInjectedSlowdown is the gate's own regression test: a
// uniform 2x slowdown must trip a 10% threshold, and the unchanged run
// must pass it.
func TestGateFailsOnInjectedSlowdown(t *testing.T) {
	base := map[string]benchResult{
		"BenchmarkA": {NsPerOp: 1000},
		"BenchmarkB": {NsPerOp: 2000},
		"BenchmarkC": {NsPerOp: 500},
	}
	slow := make(map[string]benchResult, len(base))
	for k, v := range base {
		slow[k] = benchResult{NsPerOp: 2 * v.NsPerOp}
	}
	rep, err := compare(runs(base), runs(slow), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed {
		t.Errorf("2x slowdown passed the 10%% gate (geomean %.3f)", rep.Geomean)
	}
	if math.Abs(rep.Geomean-2) > 1e-9 {
		t.Errorf("geomean = %v, want 2", rep.Geomean)
	}
	if !strings.Contains(rep.String(), "FAIL") {
		t.Errorf("report does not say FAIL:\n%s", rep.String())
	}

	rep, err = compare(runs(base), runs(base), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed || rep.Geomean != 1 {
		t.Errorf("identical run failed the gate: geomean %v failed=%v", rep.Geomean, rep.Failed)
	}
}

// TestGateToleratesNoiseBelowThreshold: one benchmark 15% slower and
// one 10% faster nets out under a 10% geomean threshold, so ordinary
// single-benchmark jitter does not flap the gate.
func TestGateToleratesNoiseBelowThreshold(t *testing.T) {
	base := map[string]benchResult{
		"BenchmarkA": {NsPerOp: 1000},
		"BenchmarkB": {NsPerOp: 1000},
	}
	cur := map[string]benchResult{
		"BenchmarkA": {NsPerOp: 1150},
		"BenchmarkB": {NsPerOp: 900},
	}
	rep, err := compare(runs(base), runs(cur), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Errorf("mixed ±jitter tripped the gate: geomean %.3f", rep.Geomean)
	}
}

func TestCompareReportsMissingBenchmarks(t *testing.T) {
	base := map[string]benchResult{"BenchmarkA": {NsPerOp: 1}, "BenchmarkGone": {NsPerOp: 1}}
	cur := map[string]benchResult{"BenchmarkA": {NsPerOp: 1}, "BenchmarkNew": {NsPerOp: 1}}
	rep, err := compare(runs(base), runs(cur), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.OnlyBase) != 1 || rep.OnlyBase[0] != "BenchmarkGone" {
		t.Errorf("OnlyBase = %v", rep.OnlyBase)
	}
	if len(rep.OnlyCur) != 1 || rep.OnlyCur[0] != "BenchmarkNew" {
		t.Errorf("OnlyCur = %v", rep.OnlyCur)
	}
	if _, err := compare(runs(base), runs(map[string]benchResult{"BenchmarkZ": {NsPerOp: 1}}), 0.1); err == nil {
		t.Error("disjoint benchmark sets did not error")
	}
}

// TestGateFailsOnMissingBenchmark pins the hard-fail: a benchmark in
// the baseline but absent from the run fails the gate even when every
// common benchmark is at parity, and the report says FAIL, not warning.
func TestGateFailsOnMissingBenchmark(t *testing.T) {
	base := map[string]benchResult{"BenchmarkA": {NsPerOp: 1}, "BenchmarkGone": {NsPerOp: 1}}
	cur := map[string]benchResult{"BenchmarkA": {NsPerOp: 1}}
	rep, err := compare(runs(base), runs(cur), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed {
		t.Error("gate passed with a baseline benchmark missing from the run")
	}
	out := rep.String()
	if !strings.Contains(out, "FAIL: BenchmarkGone is in the baseline but was not run") {
		t.Errorf("report does not flag the missing benchmark as a failure:\n%s", out)
	}
	if strings.Contains(out, "warning: BenchmarkGone") {
		t.Errorf("missing benchmark still reported as a mere warning:\n%s", out)
	}

	// The complete run still passes at parity.
	rep, err = compare(runs(base), runs(map[string]benchResult{
		"BenchmarkA": {NsPerOp: 1}, "BenchmarkGone": {NsPerOp: 1},
	}), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Error("gate failed with all baseline benchmarks present at parity")
	}
}

// TestCompareNotesProcsMismatch: a baseline recorded on a different
// core count is flagged (parallel benchmarks scale with GOMAXPROCS),
// but the note alone never fails the gate.
func TestCompareNotesProcsMismatch(t *testing.T) {
	base := map[string]benchResult{
		"BenchmarkA": {NsPerOp: 1000, Procs: 8},
		"BenchmarkB": {NsPerOp: 1000, Procs: 8},
	}
	cur := map[string]benchResult{
		"BenchmarkA": {NsPerOp: 1000, Procs: 4},
		"BenchmarkB": {NsPerOp: 1000, Procs: 8},
	}
	rep, err := compare(runs(base), runs(cur), 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed {
		t.Errorf("procs mismatch alone failed the gate: %+v", rep)
	}
	out := rep.String()
	if !strings.Contains(out, "BenchmarkA: baseline recorded at GOMAXPROCS=8 but this run used 4") {
		t.Errorf("report does not note the procs mismatch:\n%s", out)
	}
	if strings.Contains(out, "BenchmarkB: baseline recorded") {
		t.Errorf("matching procs wrongly flagged:\n%s", out)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	results, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeBaseline(path, results); err != nil {
		t.Fatal(err)
	}
	b, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Results) != len(results) {
		t.Fatalf("round trip lost results: %d vs %d", len(b.Results), len(results))
	}
	for k, v := range results {
		if want := (benchResult{AllocsPerOp: v.AllocsPerOp}); b.Results[k] != want {
			t.Errorf("%s = %+v, want %+v (allocation counts only)", k, b.Results[k], want)
		}
	}
}

// TestComparePairsCancelHostDrift: the host slows down threefold over
// five interleaved pairs. Against the parent's first run the change
// looks 2-3x slower, but each pair shares the host's speed, so the
// median pair ratio is exact: an unchanged benchmark passes and a 20%
// slowdown fails.
func TestComparePairsCancelHostDrift(t *testing.T) {
	drift := []float64{1, 1.5, 2, 2.5, 3}
	series := func(ns, factor float64) []benchResult {
		out := make([]benchResult, len(drift))
		for i, d := range drift {
			out[i] = benchResult{NsPerOp: ns * d * factor}
		}
		return out
	}
	parent := map[string][]benchResult{"BenchmarkA": series(1000, 1), "BenchmarkB": series(50, 1)}
	same := map[string][]benchResult{"BenchmarkA": series(1000, 1), "BenchmarkB": series(50, 1)}
	rep, err := compare(parent, same, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed || math.Abs(rep.Geomean-1) > 1e-12 {
		t.Errorf("unchanged code under drift: geomean %v failed=%v", rep.Geomean, rep.Failed)
	}
	slower := map[string][]benchResult{"BenchmarkA": series(1000, 1.2), "BenchmarkB": series(50, 1.2)}
	rep, err = compare(parent, slower, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed || math.Abs(rep.Geomean-1.2) > 1e-12 {
		t.Errorf("20%% slowdown under drift: geomean %v failed=%v", rep.Geomean, rep.Failed)
	}
	if rep.Rows[0].Pairs != len(drift) {
		t.Errorf("compared %d pairs, want %d", rep.Rows[0].Pairs, len(drift))
	}
}

// TestComparePairMedianDampsOutlier: one pair hit by a noisy neighbour
// does not move the verdict.
func TestComparePairMedianDampsOutlier(t *testing.T) {
	parent := map[string][]benchResult{"BenchmarkA": {{NsPerOp: 100}, {NsPerOp: 100}, {NsPerOp: 100}}}
	change := map[string][]benchResult{"BenchmarkA": {{NsPerOp: 100}, {NsPerOp: 300}, {NsPerOp: 101}}}
	rep, err := compare(parent, change, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed || rep.Rows[0].Ratio != 1.01 {
		t.Errorf("median ratio %v failed=%v, want 1.01 and a pass", rep.Rows[0].Ratio, rep.Failed)
	}
}

// TestAllocGate: the fewest allocations over the change's runs are held
// to the committed baseline within the run-to-run slack; an excess, or
// a baseline benchmark the change did not run, fails the report, and a
// benchmark without a baseline entry is only noted.
func TestAllocGate(t *testing.T) {
	base := map[string]benchResult{"BenchmarkA": {AllocsPerOp: 1000}, "BenchmarkB": {AllocsPerOp: 10}}
	cur := map[string][]benchResult{
		"BenchmarkA": {{NsPerOp: 1, AllocsPerOp: 1300}, {NsPerOp: 1, AllocsPerOp: 1020}, {NsPerOp: 1, AllocsPerOp: 1100}},
		"BenchmarkB": {{NsPerOp: 1, AllocsPerOp: 12}},
		"BenchmarkC": {{NsPerOp: 1, AllocsPerOp: 5}},
	}
	rep := &report{}
	rep.checkAllocs(base, cur)
	if rep.Failed {
		t.Errorf("allocations within the slack failed: %+v", rep.AllocFails)
	}
	if len(rep.NoAllocBase) != 1 || rep.NoAllocBase[0] != "BenchmarkC" {
		t.Errorf("NoAllocBase = %v", rep.NoAllocBase)
	}

	cur["BenchmarkA"] = []benchResult{{NsPerOp: 1, AllocsPerOp: 1200}, {NsPerOp: 1, AllocsPerOp: 1300}}
	rep = &report{}
	rep.checkAllocs(base, cur)
	if !rep.Failed || len(rep.AllocFails) != 1 || rep.AllocFails[0].Name != "BenchmarkA" {
		t.Errorf("20%% more allocations passed: %+v", rep.AllocFails)
	}
	if !strings.Contains(rep.String(), "FAIL: BenchmarkA allocates 1200/op, baseline 1000") {
		t.Errorf("report does not name the allocation excess:\n%s", rep.String())
	}

	delete(cur, "BenchmarkB")
	cur["BenchmarkA"] = []benchResult{{NsPerOp: 1, AllocsPerOp: 1000}}
	rep = &report{}
	rep.checkAllocs(base, cur)
	if !rep.Failed || len(rep.AllocMissing) != 1 || rep.AllocMissing[0] != "BenchmarkB" {
		t.Errorf("baseline benchmark missing from the run passed: %+v", rep.AllocMissing)
	}
}
