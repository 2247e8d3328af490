package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSumKahan(t *testing.T) {
	// 1.0 followed by many tiny values that naive summation would drop.
	xs := make([]float64, 1_000_001)
	xs[0] = 1
	for i := 1; i < len(xs); i++ {
		xs[i] = 1e-16
	}
	got := Sum(xs)
	want := 1 + 1e-16*1e6
	if !almostEq(got, want, 1e-12) {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance singleton = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	mn, err := Min(xs)
	if err != nil || mn != -1 {
		t.Errorf("Min = %v err %v", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 7 {
		t.Errorf("Max = %v err %v", mx, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Error("Min(nil) should be ErrEmpty")
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Error("Max(nil) should be ErrEmpty")
	}
}

func TestArgMinArgMax(t *testing.T) {
	xs := []float64{2, 1, 1, 5, 5}
	if i, _ := ArgMin(xs); i != 1 {
		t.Errorf("ArgMin = %d, want 1 (first tie)", i)
	}
	if i, _ := ArgMax(xs); i != 3 {
		t.Errorf("ArgMax = %d, want 3 (first tie)", i)
	}
	if _, err := ArgMin(nil); err != ErrEmpty {
		t.Error("ArgMin(nil) should fail")
	}
	if _, err := ArgMax(nil); err != ErrEmpty {
		t.Error("ArgMax(nil) should fail")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almostEq(r, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", r)
	}
}

func TestPearsonConstantSeries(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Errorf("constant series correlation = %v, want 0", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("single sample accepted")
	}
}

func TestNormalizeToMax(t *testing.T) {
	got := NormalizeToMax([]float64{1, 2, 4})
	want := []float64{0.25, 0.5, 1}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-12) {
			t.Errorf("NormalizeToMax[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	zeros := NormalizeToMax([]float64{0, 0})
	if zeros[0] != 0 || zeros[1] != 0 {
		t.Errorf("NormalizeToMax zeros = %v", zeros)
	}
	if out := NormalizeToMax(nil); len(out) != 0 {
		t.Errorf("NormalizeToMax(nil) = %v", out)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35}, {25, 20},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Error("empty percentile should fail")
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("p=-1 accepted")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("p=101 accepted")
	}
	one, err := Percentile([]float64{7}, 30)
	if err != nil || one != 7 {
		t.Errorf("singleton percentile = %v err %v", one, err)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestImprovementSpeedup(t *testing.T) {
	if got := Improvement(100, 90); !almostEq(got, 0.10, 1e-12) {
		t.Errorf("Improvement = %v, want 0.10", got)
	}
	if got := Improvement(100, 110); !almostEq(got, -0.10, 1e-12) {
		t.Errorf("Improvement = %v, want -0.10", got)
	}
	if got := Improvement(0, 50); got != 0 {
		t.Errorf("Improvement with zero baseline = %v", got)
	}
}

// Property: Pearson is symmetric and within [-1, 1].
func TestQuickPearsonBoundsSymmetry(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		ys := make([]float64, 0, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = float64(i)
			}
			// Bound magnitudes to avoid float overflow in products.
			v = math.Mod(v, 1e6)
			xs = append(xs, v)
			ys = append(ys, v*0.5+float64(i%7))
		}
		if len(xs) < 2 {
			return true
		}
		a, err1 := Pearson(xs, ys)
		b, err2 := Pearson(ys, xs)
		if err1 != nil || err2 != nil {
			return false
		}
		return a >= -1-1e-9 && a <= 1+1e-9 && almostEq(a, b, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: NormalizeToMax output max is 1 for any non-degenerate input.
func TestQuickNormalizeToMax(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				v = float64(i + 1)
			}
			xs[i] = math.Mod(v, 1e9) + 1
		}
		if len(xs) == 0 {
			return true
		}
		out := NormalizeToMax(xs)
		m, err := Max(out)
		return err == nil && almostEq(m, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Improvement agrees in sign with the speedup ratio: b/c > 1
// iff improvement > 0 (for positive times).
func TestQuickImprovementSpeedupConsistency(t *testing.T) {
	f := func(b, c float64) bool {
		b = math.Abs(math.Mod(b, 1e6)) + 1
		c = math.Abs(math.Mod(c, 1e6)) + 1
		imp := Improvement(b, c)
		sp := b / c
		return (imp > 0) == (sp > 1) || imp == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
