package core

import (
	"math"
	"testing"
	"testing/quick"

	"intracache/internal/sim"
	"intracache/internal/spline"
	"intracache/internal/xrand"
)

// fakeMon is a stub sim.Monitors.
type fakeMon struct {
	ways    int
	threads int
	curves  [][]uint64
}

func (f fakeMon) MissCurve(t int) []uint64 {
	if f.curves == nil {
		return nil
	}
	return f.curves[t]
}
func (f fakeMon) Ways() int       { return f.ways }
func (f fakeMon) NumThreads() int { return f.threads }

// ivWith builds an IntervalStats with the given per-thread CPIs run
// under the given way assignment.
func ivWith(index int, cpis []float64, ways []int) sim.IntervalStats {
	iv := sim.IntervalStats{Index: index, Threads: make([]sim.ThreadIntervalStats, len(cpis))}
	for t := range cpis {
		iv.Threads[t] = sim.ThreadIntervalStats{
			Instructions: 1000,
			ActiveCycles: uint64(cpis[t] * 1000),
			WaysAssigned: ways[t],
		}
	}
	return iv
}

func TestPolicyStringParseRoundTrip(t *testing.T) {
	for _, p := range AllPolicies() {
		got, err := ParsePolicy(p.String())
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if got != p {
			t.Errorf("round trip %v -> %v", p, got)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy parsed")
	}
	if Policy(99).String() != "Policy(99)" {
		t.Error("unknown policy string wrong")
	}
}

func TestPolicyClassification(t *testing.T) {
	dynamic := map[Policy]bool{
		PolicyShared: false, PolicyPrivate: false, PolicyStaticEqual: false, PolicyTADIP: false,
		PolicyCPIProportional: true, PolicyModelBased: true, PolicyThroughputUCP: true,
	}
	for p, want := range dynamic {
		if p.IsDynamic() != want {
			t.Errorf("%v.IsDynamic() = %v, want %v", p, p.IsDynamic(), want)
		}
	}
	for _, p := range AllPolicies() {
		if p.NeedsUMON() != (p == PolicyThroughputUCP) {
			t.Errorf("%v.NeedsUMON() wrong", p)
		}
	}
}

func TestL2OrgFor(t *testing.T) {
	if L2OrgFor(PolicyShared) != sim.L2Shared {
		t.Error("shared org wrong")
	}
	if L2OrgFor(PolicyTADIP) != sim.L2TADIP {
		t.Error("tadip org wrong")
	}
	if L2OrgFor(PolicyPrivate) != sim.L2PrivatePerCore {
		t.Error("private org wrong")
	}
	for _, p := range []Policy{PolicyStaticEqual, PolicyCPIProportional, PolicyModelBased, PolicyThroughputUCP} {
		if L2OrgFor(p) != sim.L2Partitioned {
			t.Errorf("%v org wrong", p)
		}
	}
}

func TestProportionalShares(t *testing.T) {
	got := proportionalShares([]float64{8, 2, 2, 4}, 16, 1)
	sum := 0
	for _, w := range got {
		sum += w
	}
	if sum != 16 {
		t.Fatalf("shares %v sum to %d", got, sum)
	}
	if got[0] <= got[1] || got[0] <= got[2] {
		t.Errorf("highest weight did not get most ways: %v", got)
	}
	for i, w := range got {
		if w < 1 {
			t.Errorf("thread %d below the 1-way floor: %v", i, got)
		}
	}
}

func TestProportionalSharesZeroWeights(t *testing.T) {
	got := proportionalShares([]float64{0, 0, 0, 0}, 16, 1)
	for i, w := range got {
		if w != 4 {
			t.Errorf("zero weights share[%d] = %d, want 4", i, w)
		}
	}
}

func TestProportionalSharesMinWaysClamped(t *testing.T) {
	// minWays 10 with 4 threads and 16 ways is infeasible; must clamp.
	got := proportionalShares([]float64{1, 1, 1, 1}, 16, 10)
	sum := 0
	for _, w := range got {
		sum += w
	}
	if sum != 16 {
		t.Errorf("clamped shares %v sum to %d", got, sum)
	}
}

func TestProportionalSharesNegativeWeightTreatedZero(t *testing.T) {
	got := proportionalShares([]float64{-5, 5, 5, 5}, 16, 1)
	sum := 0
	for _, w := range got {
		sum += w
	}
	if sum != 16 {
		t.Errorf("shares %v sum to %d", got, sum)
	}
	if got[0] != 1 {
		t.Errorf("negative-weight thread got %d ways, want the 1-way floor", got[0])
	}
}

func TestCPIProportionalEngine(t *testing.T) {
	e := NewCPIProportionalEngine()
	if e.Name() != "cpi-proportional" {
		t.Error("name wrong")
	}
	mon := fakeMon{ways: 64, threads: 4}
	iv := ivWith(0, []float64{2, 2, 8, 4}, []int{16, 16, 16, 16})
	got := e.Decide(iv, mon, []int{16, 16, 16, 16})
	if err := validAssignment(got, 64, 4); err != nil {
		t.Fatal(err)
	}
	if got[2] <= got[0] || got[2] <= got[1] || got[2] <= got[3] {
		t.Errorf("critical thread 2 not favoured: %v", got)
	}
	// Proportionality: thread 2 has half the total CPI mass (8/16).
	if got[2] < 24 || got[2] > 40 {
		t.Errorf("thread 2 share %d not ~proportional to its CPI", got[2])
	}
}

func TestEqualEngineNeverChanges(t *testing.T) {
	e := EqualEngine{}
	if e.Name() != "static-equal" {
		t.Error("name wrong")
	}
	mon := fakeMon{ways: 64, threads: 4}
	if got := e.Decide(ivWith(0, []float64{1, 9, 1, 1}, []int{16, 16, 16, 16}), mon, nil); got != nil {
		t.Errorf("EqualEngine returned %v, want nil", got)
	}
}

func TestCPIModelObserveAndPoints(t *testing.T) {
	m := NewCPIModel()
	m.Observe(16, 5, 0)
	m.Observe(8, 9, 0)
	m.Observe(32, 3, 0)
	m.Observe(-1, 7, 0) // ignored
	m.Observe(4, 0, 0)  // ignored (non-positive CPI)
	if m.Len() != 3 {
		t.Fatalf("len = %d, want 3", m.Len())
	}
	ways, cpis := m.Points()
	wantW := []int{8, 16, 32}
	wantC := []float64{9, 5, 3}
	for i := range wantW {
		if ways[i] != wantW[i] || cpis[i] != wantC[i] {
			t.Errorf("points = %v/%v, want %v/%v", ways, cpis, wantW, wantC)
		}
	}
}

func TestCPIModelBlend(t *testing.T) {
	m := NewCPIModel()
	m.Observe(16, 4, 0)
	m.Observe(16, 8, 0)
	_, cpis := m.Points()
	// The revisit weighs the newest observation by modelBlend = 0.6.
	if want := 0.6*8 + 0.4*4; math.Abs(cpis[0]-want) > 1e-12 {
		t.Errorf("blended CPI = %v, want %v", cpis[0], want)
	}
	if m.Len() != 1 {
		t.Errorf("revisit added a point: len %d", m.Len())
	}
}

func TestCPIModelFit(t *testing.T) {
	m := NewCPIModel()
	if m.Fit(spline.NaturalCubic) != nil {
		t.Error("fit of empty model not nil")
	}
	m.Observe(8, 9, 0)
	m.Observe(16, 5, 0)
	m.Observe(32, 3, 0)
	in := m.Fit(spline.NaturalCubic)
	if in == nil {
		t.Fatal("fit nil")
	}
	if got := in.Eval(16); got != 5 {
		t.Errorf("fit(16) = %v, want 5", got)
	}
}

func TestModelEngineBootstrapThenModels(t *testing.T) {
	e := NewModelEngine()
	if e.Name() != "model-based" {
		t.Error("name wrong")
	}
	if e.Models() != nil {
		t.Error("models non-nil before first decide")
	}
	mon := fakeMon{ways: 64, threads: 4}
	cur := []int{16, 16, 16, 16}
	// Interval 0: bootstrap (CPI proportional).
	got := e.Decide(ivWith(0, []float64{2, 2, 8, 4}, cur), mon, cur)
	if err := validAssignment(got, 64, 4); err != nil {
		t.Fatal(err)
	}
	if got[2] <= got[0] {
		t.Errorf("bootstrap did not favour critical thread: %v", got)
	}
	// The cold first interval is not recorded as a model point.
	if len(e.Models()) != 4 || e.Models()[2].Len() != 0 {
		t.Error("cold-interval observation leaked into the models")
	}
	// Interval 1: still bootstrap; its observation is recorded.
	cur = got
	got = e.Decide(ivWith(1, []float64{2.2, 2.1, 7, 4.2}, cur), mon, cur)
	if err := validAssignment(got, 64, 4); err != nil {
		t.Fatal(err)
	}
	if e.Models()[2].Len() != 1 {
		t.Error("warm-interval observation not recorded")
	}
	// Interval 2+: model-driven; with a consistently-critical thread 2
	// whose model says more ways help, it must keep or grow its share.
	cur = got
	before := cur[2]
	got = e.Decide(ivWith(2, []float64{2.2, 2.1, 6.5, 4.1}, cur), mon, cur)
	if err := validAssignment(got, 64, 4); err != nil {
		t.Fatal(err)
	}
	if got[2] < before {
		t.Errorf("model engine shrank the critical thread: %d -> %d", before, got[2])
	}
}

func TestModelEngineRespectsMinWays(t *testing.T) {
	e := NewModelEngine()
	mon := fakeMon{ways: 16, threads: 4}
	cur := []int{4, 4, 4, 4}
	var got []int
	cpis := [][]float64{
		{1, 1, 9, 1}, {1, 1, 8.5, 1}, {1, 1, 8, 1}, {1, 1, 7.5, 1}, {1, 1, 7, 1},
	}
	atFloor := false
	for i, c := range cpis {
		got = e.Decide(ivWith(i, c, cur), mon, cur)
		if got != nil {
			cur = got
		}
		for th, w := range cur {
			if w < minWays {
				t.Fatalf("interval %d: thread %d below the %d-way floor: %v", i, th, minWays, cur)
			}
			atFloor = atFloor || w == minWays
		}
	}
	if !atFloor {
		t.Errorf("no thread ever reached the floor, so it was never tested: %v", cur)
	}
}

func TestModelEngineTerminatesOnFlatModels(t *testing.T) {
	// All threads identical CPI: nothing should move (or at most the
	// engine returns a valid assignment); must not loop forever.
	e := NewModelEngine()
	mon := fakeMon{ways: 64, threads: 4}
	cur := []int{16, 16, 16, 16}
	for i := 0; i < 6; i++ {
		got := e.Decide(ivWith(i, []float64{3, 3, 3, 3}, cur), mon, cur)
		if got != nil {
			if err := validAssignment(got, 64, 4); err != nil {
				t.Fatal(err)
			}
			cur = got
		}
	}
}

// Property: ModelEngine always returns a valid assignment for random
// CPI sequences.
func TestQuickModelEngineValidAssignments(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		e := NewModelEngine()
		mon := fakeMon{ways: 32, threads: 4}
		cur := []int{8, 8, 8, 8}
		for i := 0; i < 12; i++ {
			cpis := make([]float64, 4)
			for t := range cpis {
				cpis[t] = 1 + r.Float64()*10
			}
			got := e.Decide(ivWith(i, cpis, cur), mon, cur)
			if got == nil {
				continue
			}
			if err := validAssignment(got, 32, 4); err != nil {
				return false
			}
			cur = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestUCPEngineFollowsMarginalGains(t *testing.T) {
	e := NewUCPEngine()
	if e.Name() != "throughput-ucp" {
		t.Error("name wrong")
	}
	// Thread 0's curve drops steeply (high utility); others are flat.
	steep := make([]uint64, 17)
	flat := make([]uint64, 17)
	for w := 0; w <= 16; w++ {
		steep[w] = uint64(1600 - 100*w)
		flat[w] = 500
	}
	mon := fakeMon{ways: 16, threads: 4, curves: [][]uint64{steep, flat, flat, flat}}
	got := e.Decide(ivWith(0, []float64{2, 2, 2, 2}, []int{4, 4, 4, 4}), mon, nil)
	if err := validAssignment(got, 16, 4); err != nil {
		t.Fatal(err)
	}
	if got[0] != 13 { // 16 - 3 floors
		t.Errorf("high-utility thread got %d ways, want 13: %v", got[0], got)
	}
	for th := 1; th < 4; th++ {
		if got[th] != 1 {
			t.Errorf("flat thread %d got %d ways, want floor 1: %v", th, got[th], got)
		}
	}
}

func TestUCPEngineNoMonitorFallsBack(t *testing.T) {
	e := NewUCPEngine()
	mon := fakeMon{ways: 16, threads: 4}
	got := e.Decide(ivWith(0, []float64{2, 2, 2, 2}, []int{4, 4, 4, 4}), mon, nil)
	for i, w := range got {
		if w != 4 {
			t.Errorf("fallback share[%d] = %d, want 4", i, w)
		}
	}
}

func TestUCPEngineIgnoresCriticalPath(t *testing.T) {
	// The defining failure mode: thread 2 is critical (CPI 9) but has a
	// weak utility curve; UCP must still starve it. This is the
	// behaviour the paper's scheme corrects.
	steep := make([]uint64, 17)
	weak := make([]uint64, 17)
	for w := 0; w <= 16; w++ {
		steep[w] = uint64(3200 - 200*w)
		weak[w] = uint64(400 - 10*w)
	}
	mon := fakeMon{ways: 16, threads: 4, curves: [][]uint64{steep, steep, weak, steep}}
	e := NewUCPEngine()
	got := e.Decide(ivWith(0, []float64{2, 2, 9, 2}, []int{4, 4, 4, 4}), mon, nil)
	if got[2] > 2 {
		t.Errorf("UCP gave the critical-but-low-utility thread %d ways: %v", got[2], got)
	}
}

func TestNewEngine(t *testing.T) {
	for _, p := range []Policy{PolicyStaticEqual, PolicyCPIProportional, PolicyModelBased, PolicyThroughputUCP} {
		if _, err := NewEngine(p); err != nil {
			t.Errorf("NewEngine(%v): %v", p, err)
		}
	}
	for _, p := range []Policy{PolicyShared, PolicyPrivate, PolicyTADIP} {
		if _, err := NewEngine(p); err == nil {
			t.Errorf("NewEngine(%v) succeeded", p)
		}
	}
}

func TestRuntimeSystemNilEngine(t *testing.T) {
	if _, err := NewRuntimeSystem(nil); err == nil {
		t.Error("nil engine accepted")
	}
	rts, err := NewRuntimeSystem(NewCPIProportionalEngine())
	if err != nil {
		t.Fatal(err)
	}
	if rts.Engine().Name() != "cpi-proportional" {
		t.Error("engine accessor wrong")
	}
}

// badEngine returns an invalid assignment.
type badEngine struct{}

func (badEngine) Decide(sim.IntervalStats, sim.Monitors, []int) []int { return []int{1, 1} }
func (badEngine) Name() string                                        { return "bad" }

func TestRuntimeSystemRecoversInvalidAssignment(t *testing.T) {
	rts, err := NewRuntimeSystem(badEngine{})
	if err != nil {
		t.Fatal(err)
	}
	got := rts.OnInterval(ivWith(0, []float64{1, 1, 1, 1}, []int{4, 4, 4, 4}), fakeMon{ways: 16, threads: 4})
	// The broken assignment is replaced with the safe equal split
	// instead of crashing the run.
	want := []int{4, 4, 4, 4}
	if len(got) != len(want) {
		t.Fatalf("targets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("targets = %v, want %v", got, want)
		}
	}
	if rts.InvalidAssignments() != 1 {
		t.Errorf("InvalidAssignments = %d, want 1", rts.InvalidAssignments())
	}
}

func TestControllerFor(t *testing.T) {
	for _, p := range []Policy{PolicyShared, PolicyPrivate, PolicyStaticEqual, PolicyTADIP} {
		ctl, rts, err := ControllerFor(p)
		if err != nil || ctl != nil || rts != nil {
			t.Errorf("%v: ctl=%v rts=%v err=%v, want all nil", p, ctl, rts, err)
		}
	}
	for _, p := range []Policy{PolicyCPIProportional, PolicyModelBased, PolicyThroughputUCP} {
		ctl, rts, err := ControllerFor(p)
		if err != nil || ctl == nil || rts == nil {
			t.Errorf("%v: ctl=%v rts=%v err=%v", p, ctl, rts, err)
		}
	}
}

func TestValidAssignment(t *testing.T) {
	if err := validAssignment([]int{4, 4, 4, 4}, 16, 4); err != nil {
		t.Errorf("valid rejected: %v", err)
	}
	if err := validAssignment([]int{4, 4}, 16, 4); err == nil {
		t.Error("short accepted")
	}
	if err := validAssignment([]int{20, -4, 0, 0}, 16, 4); err == nil {
		t.Error("negative accepted")
	}
	if err := validAssignment([]int{4, 4, 4, 5}, 16, 4); err == nil {
		t.Error("bad sum accepted")
	}
}

func BenchmarkModelEngineDecide(b *testing.B) {
	e := NewModelEngine()
	mon := fakeMon{ways: 64, threads: 8}
	cur := []int{8, 8, 8, 8, 8, 8, 8, 8}
	r := xrand.New(1)
	// Warm the models.
	for i := 0; i < 6; i++ {
		cpis := make([]float64, 8)
		for t := range cpis {
			cpis[t] = 1 + r.Float64()*8
		}
		if got := e.Decide(ivWith(i, cpis, cur), mon, cur); got != nil {
			cur = got
		}
	}
	cpis := []float64{2, 3, 9, 4, 2.5, 3.5, 5, 2.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Decide(ivWith(i, cpis, cur), mon, cur)
	}
}
