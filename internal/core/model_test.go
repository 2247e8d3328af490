package core

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"intracache/internal/cache"
	"intracache/internal/spline"
	"intracache/internal/xrand"
)

func TestCPIModelPrune(t *testing.T) {
	m := NewCPIModel()
	m.Observe(4, 10, 1)
	m.Observe(8, 6, 2)
	m.Observe(16, 4, 3)
	m.Observe(32, 3, 10)
	// Prune everything older than interval 5: points from intervals 1-3
	// are stale, but the freshest two must survive.
	m.Prune(5)
	ways, _ := m.Points()
	if len(ways) != 2 {
		t.Fatalf("points after prune: %v", ways)
	}
	if ways[0] != 16 || ways[1] != 32 {
		t.Errorf("kept %v, want the freshest two [16 32]", ways)
	}
	// Pruning a two-point model is a no-op.
	m.Prune(100)
	if m.Len() != 2 {
		t.Errorf("prune below two points: %d", m.Len())
	}
}

func TestCPIModelPruneKeepsFreshTies(t *testing.T) {
	m := NewCPIModel()
	m.Observe(4, 10, 5)
	m.Observe(8, 6, 5)
	m.Observe(16, 4, 5)
	m.Prune(6) // all stale; freshest two by (stamp, ways) kept
	if m.Len() != 2 {
		t.Fatalf("len = %d", m.Len())
	}
	ways, _ := m.Points()
	if ways[0] != 4 || ways[1] != 8 {
		t.Errorf("tie-break kept %v, want deterministic [4 8]", ways)
	}
}

func TestPredictorLinearExtrapolation(t *testing.T) {
	m := NewCPIModel()
	m.Observe(8, 10, 0)
	m.Observe(16, 6, 0)
	p := newPredictor(m, spline.NaturalCubic, 0, new(fitScratch))
	// Inside the range: spline (here linear through two points).
	if got := p.eval(12); got != 8 {
		t.Errorf("eval(12) = %v, want 8", got)
	}
	// Above the range: continue the edge slope (-0.5/way).
	if got := p.eval(20); got != 4 {
		t.Errorf("eval(20) = %v, want 4", got)
	}
	// Below the range: continue the low-edge slope upward.
	if got := p.eval(4); got != 12 {
		t.Errorf("eval(4) = %v, want 12", got)
	}
}

func TestPredictorExtrapolationFloor(t *testing.T) {
	m := NewCPIModel()
	m.Observe(8, 2, 0)
	m.Observe(16, 1, 0)
	p := newPredictor(m, spline.NaturalCubic, 0, new(fitScratch))
	// Slope -0.125/way would go negative far out; must floor at 0.5.
	if got := p.eval(64); got != 0.5 {
		t.Errorf("eval(64) = %v, want floor 0.5", got)
	}
}

func TestPredictorSinglePointAndEmpty(t *testing.T) {
	m := NewCPIModel()
	p := newPredictor(m, spline.NaturalCubic, 7.5, new(fitScratch))
	if got := p.eval(10); got != 7.5 {
		t.Errorf("empty model eval = %v, want fallback 7.5", got)
	}
	m.Observe(16, 3, 0)
	p = newPredictor(m, spline.NaturalCubic, 7.5, new(fitScratch))
	for _, w := range []int{1, 16, 64} {
		if got := p.eval(w); got != 3 {
			t.Errorf("single-point eval(%d) = %v, want 3", w, got)
		}
	}
}

// An unknown spline kind cannot fit three points; the predictor then
// interpolates linearly, as every kind does through two, rather than
// evaluating a nil fit.
func TestPredictorUnknownKindInterpolatesLinearly(t *testing.T) {
	m := NewCPIModel()
	m.Observe(4, 9, 0)
	m.Observe(8, 5, 0)
	m.Observe(16, 4, 0)
	p := newPredictor(m, spline.Kind(9), 0, new(fitScratch))
	q := newPredictor(m, spline.Linear, 0, new(fitScratch))
	for w := 0; w <= 20; w++ {
		if got, want := p.eval(w), q.eval(w); got != want {
			t.Errorf("eval(%d) = %v, linear gives %v", w, got, want)
		}
	}
}

func TestRelSpread(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{2, 2, 2}, 0},
		{[]float64{2, 4}, 1},
		{[]float64{0, 5}, 0},   // one positive entry
		{[]float64{-1, -2}, 0}, // none positive
		{nil, 0},
		{[]float64{5, 0, 10}, 1},
	}
	for _, c := range cases {
		if got := relSpread(c.in); got != c.want {
			t.Errorf("relSpread(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestLexLess(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{3, 2, 1}, []float64{3, 2, 1}, false},
		{[]float64{2, 2, 1}, []float64{3, 2, 1}, true},
		{[]float64{3, 2, 0}, []float64{3, 2, 1}, true},
		{[]float64{4, 0, 0}, []float64{3, 9, 9}, false},
		{[]float64{3, 2, 1 + 1e-12}, []float64{3, 2, 1}, false}, // within eps
	}
	for _, c := range cases {
		if got := lexLess(c.a, c.b); got != c.want {
			t.Errorf("lexLess(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSortedDesc(t *testing.T) {
	in := []float64{1, 3, 2}
	dst := make([]float64, 0, 8)
	got := sortedDesc(dst, in)
	if got[0] != 3 || got[1] != 2 || got[2] != 1 {
		t.Errorf("sortedDesc = %v", got)
	}
	if in[0] != 1 {
		t.Error("sortedDesc mutated input")
	}
	if &got[0] != &dst[:1][0] {
		t.Error("sortedDesc did not reuse dst's storage")
	}
}

// sortedDesc must order exactly as sort.Reverse(sort.Float64Slice)
// does, NaNs (last) and signed zeros included.
func TestSortedDescMatchesSortReverse(t *testing.T) {
	r := xrand.New(16)
	pool := []float64{math.NaN(), 0, math.Copysign(0, -1), 1, 1, 2.5, math.Inf(1), math.Inf(-1), -3}
	var dst []float64
	for trial := 0; trial < 2000; trial++ {
		xs := make([]float64, 1+r.Intn(12))
		for i := range xs {
			if r.Intn(3) == 0 {
				xs[i] = pool[r.Intn(len(pool))]
			} else {
				xs[i] = r.Float64() * 10
			}
		}
		want := append([]float64(nil), xs...)
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		dst = sortedDesc(dst, xs)
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("sortedDesc(%v) = %v, sort.Reverse gives %v", xs, dst, want)
			}
		}
	}
}

func TestArgMinDonorPrefersCheapPostDonationCost(t *testing.T) {
	// Thread 0 has the lowest current CPI but a steep cliff one way
	// down (stale low-allocation point); thread 1 has a flat model.
	// The donor choice must pick thread 1.
	m0 := NewCPIModel()
	m0.Observe(1, 18, 0)
	m0.Observe(5, 5.0, 10)
	m1 := NewCPIModel()
	m1.Observe(15, 5.6, 9)
	m1.Observe(16, 5.5, 10)
	preds := []predictor{
		newPredictor(m0, spline.NaturalCubic, 5, new(fitScratch)),
		newPredictor(m1, spline.NaturalCubic, 5.5, new(fitScratch)),
	}
	ways := []int{5, 16}
	donated := []int{0, 0}
	got := argMinDonor(preds, ways, donated, 2, 1, -1)
	if got != 1 {
		t.Errorf("donor = %d, want 1 (cheap post-donation cost)", got)
	}
}

func TestArgMinDonorRespectsCapAndFloor(t *testing.T) {
	m := NewCPIModel()
	m.Observe(4, 5, 0)
	m.Observe(8, 4, 0)
	preds := []predictor{
		newPredictor(m, spline.NaturalCubic, 5, new(fitScratch)),
		newPredictor(m, spline.NaturalCubic, 5, new(fitScratch)),
		newPredictor(m, spline.NaturalCubic, 5, new(fitScratch)),
	}
	// Thread 0 at the floor, thread 1 already donated its cap.
	ways := []int{1, 8, 8}
	donated := []int{0, 2, 0}
	if got := argMinDonor(preds, ways, donated, 2, 1, -1); got != 2 {
		t.Errorf("donor = %d, want 2", got)
	}
	// Skip excluded.
	if got := argMinDonor(preds, ways, donated, 2, 1, 2); got != -1 {
		t.Errorf("donor = %d, want -1 when only candidate is skipped", got)
	}
}

func TestModelEngineExplorationUnfreezesFlatModel(t *testing.T) {
	// A thread whose model has only ever seen one allocation (flat
	// prediction) but is clearly the critical thread must still receive
	// a way through the exploration step.
	e := NewModelEngine()
	mon := fakeMon{ways: 32, threads: 4}
	cur := []int{8, 8, 8, 8}
	// The bootstrap intervals see equal CPIs, which keep the
	// proportional rule at an even split.
	for i := 0; i < bootstrapIntervals; i++ {
		if got := e.Decide(ivWith(i, []float64{5, 5, 5, 5}, cur), mon, cur); got != nil {
			cur = got
		}
	}
	if cur[2] != 8 {
		t.Fatalf("bootstrap moved ways: %v", cur)
	}
	// From now on thread 2 is persistently critical with a CPI that
	// never varies (so its model stays flat at a single allocation).
	for i := bootstrapIntervals; i < 8; i++ {
		got := e.Decide(ivWith(i, []float64{4, 4, 9, 4}, cur), mon, cur)
		if got != nil {
			cur = got
		}
	}
	if cur[2] <= 8 {
		t.Errorf("exploration never grew the flat critical thread: %v", cur)
	}
}

func TestModelEngineHysteresisHoldsBalanced(t *testing.T) {
	e := NewModelEngine()
	mon := fakeMon{ways: 32, threads: 4}
	cur := []int{8, 8, 8, 8}
	var changed bool
	for i := 0; i < 10; i++ {
		// CPIs within 3% of each other: inside the hysteresis band.
		cpis := []float64{5.0, 5.05, 5.1, 4.95}
		got := e.Decide(ivWith(i, cpis, cur), mon, cur)
		if i >= 2 && got != nil {
			for j := range got {
				if got[j] != cur[j] {
					changed = true
				}
			}
			cur = got
		} else if got != nil {
			cur = got
		}
	}
	if changed {
		t.Errorf("balanced threads were repartitioned: %v", cur)
	}
}

func TestModelEnginePerDonorCapBoundsSingleDecision(t *testing.T) {
	e := NewModelEngine()
	mon := fakeMon{ways: 64, threads: 4}
	cur := []int{16, 16, 16, 16}
	// The bootstrap intervals seed the models; every later decision is
	// a model-phase step whose donors are capped.
	cpis := [][]float64{
		{2, 2, 12, 2}, {2.5, 2.4, 11, 2.6}, {2.6, 2.5, 10.5, 2.4}, {2.4, 2.6, 10, 2.5},
	}
	checked := 0
	for i, c := range cpis {
		got := e.Decide(ivWith(i, c, cur), mon, cur)
		if got == nil {
			continue
		}
		if i >= bootstrapIntervals {
			checked++
			for j := range got {
				if j != 2 && cur[j]-got[j] > perDonorCap {
					t.Errorf("interval %d: thread %d donated %d ways in one decision (cap %d): %v -> %v",
						i, j, cur[j]-got[j], perDonorCap, cur, got)
				}
			}
		}
		cur = got
	}
	if checked == 0 {
		t.Fatal("no model-phase decision moved ways, so the cap was never tested")
	}
}

// Property: regardless of CPI sequences, the engine's assignments are
// always valid, never starve a thread below minWays, and never move
// more than perDonorCap*(n-1) = 6 ways at 4 threads per decision.
func TestQuickModelEngineBoundedMovement(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		e := NewModelEngine()
		mon := fakeMon{ways: 32, threads: 4}
		cur := []int{8, 8, 8, 8}
		for i := 0; i < 15; i++ {
			cpis := make([]float64, 4)
			for t := range cpis {
				cpis[t] = 1 + r.Float64()*12
			}
			got := e.Decide(ivWith(i, cpis, cur), mon, cur)
			if got == nil {
				continue
			}
			if err := validAssignment(got, 32, 4); err != nil {
				return false
			}
			moved := 0
			for j := range got {
				if got[j] > cur[j] {
					moved += got[j] - cur[j]
				}
				if got[j] < minWays {
					return false
				}
			}
			// Bootstrap intervals may jump arbitrarily; model phase is
			// capped.
			if i >= bootstrapIntervals && moved > perDonorCap*(4-1) {
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

// Engines on different goroutines share the scratch pool; each must
// decide exactly as it does alone.
func TestModelEnginesShareScratchAcrossGoroutines(t *testing.T) {
	run := func(seed uint64) [][]int {
		r := xrand.New(seed)
		e := NewModelEngine()
		mon := fakeMon{ways: 32, threads: 4 + int(seed%5)}
		cur := cache.EqualSplit(mon.ways, mon.threads)
		var out [][]int
		for i := 0; i < 40; i++ {
			cpis := make([]float64, mon.threads)
			for t := range cpis {
				cpis[t] = 1 + r.Float64()*8
			}
			got := e.Decide(ivWith(i, cpis, cur), mon, cur)
			out = append(out, got)
			if got != nil {
				cur = got
			}
		}
		return out
	}
	const engines = 8
	want := make([][][]int, engines)
	for i := range want {
		want[i] = run(uint64(i))
	}
	got := make([][][]int, engines)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run(uint64(i))
		}(i)
	}
	wg.Wait()
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("engine %d decided differently on its own goroutine", i)
		}
	}
}
