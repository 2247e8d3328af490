package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d for identical seeds", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 collided on %d/100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			t.Fatalf("sibling splits produced equal values at draw %d", i)
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(9).Split()
	b := New(9).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("split streams diverged at draw %d", i)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 40} {
		for i := 0; i < 1000; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) returned %d", n, v)
			}
		}
	}
}

func TestUint64nOne(t *testing.T) {
	r := New(5)
	for i := 0; i < 100; i++ {
		if v := r.Uint64n(1); v != 0 {
			t.Fatalf("Uint64n(1) = %d, want 0", v)
		}
	}
}

func TestUint64nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(-1) did not panic")
		}
	}()
	New(1).Intn(-1)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared-ish sanity check on 16 buckets.
	r := New(11)
	const buckets, draws = 16, 160000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.05 {
			t.Errorf("bucket %d: count %d deviates >5%% from %0.f", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(13)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(17)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if r.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !r.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(19)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / draws; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) hit rate %v", p)
	}
}

func TestZipfBounds(t *testing.T) {
	r := New(29)
	z := NewZipf(r, 50, 1.0)
	if z.N() != 50 {
		t.Fatalf("N() = %d, want 50", z.N())
	}
	for i := 0; i < 10000; i++ {
		if v := z.Next(); v < 0 || v >= 50 {
			t.Fatalf("Zipf rank %d out of [0,50)", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(31)
	z := NewZipf(r, 100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[90] {
		t.Errorf("Zipf counts not decreasing: c0=%d c10=%d c90=%d",
			counts[0], counts[10], counts[90])
	}
}

func TestZipfAlphaZeroUniform(t *testing.T) {
	r := New(37)
	z := NewZipf(r, 10, 0)
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	want := float64(draws) / 10
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.06 {
			t.Errorf("alpha=0 bucket %d: count %d not ~uniform", b, c)
		}
	}
}

func TestZipfInvalidPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"n=0":     func() { NewZipf(New(1), 0, 1) },
		"alpha<0": func() { NewZipf(New(1), 10, -1) },
		"n<0":     func() { NewZipf(New(1), -5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: Uint64n(n) < n for all n > 0 and any seed.
func TestQuickUint64nInRange(t *testing.T) {
	f := func(seed uint64, n uint64) bool {
		if n == 0 {
			n = 1
		}
		r := New(seed)
		for i := 0; i < 16; i++ {
			if r.Uint64n(n) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: generators with equal seeds produce equal streams even after
// interleaved Float64/Uint64 draws.
func TestQuickStreamEquality(t *testing.T) {
	f := func(seed uint64, ops []bool) bool {
		a, b := New(seed), New(seed)
		for _, op := range ops {
			if op {
				if a.Uint64() != b.Uint64() {
					return false
				}
			} else if a.Float64() != b.Float64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkZipfNext(b *testing.B) {
	r := New(1)
	z := NewZipf(r, 1024, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}
