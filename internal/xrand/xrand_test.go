package xrand

import (
	"math"
	"math/bits"
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

// TestZipfNextMatchesLinearSearch holds the guide-table lookup to its
// definition: every draw maps to the smallest i with cdfInt[i] >= b.
// Random draws cover the typical case; the draws at, just below and
// just above every cdf step and every guide cut cover the boundaries
// where an off-by-one in the guide would show.
func TestZipfNextMatchesLinearSearch(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 500, 512, 1024} {
		for _, alpha := range []float64{0, 0.55, 1, 1.6} {
			r := New(uint64(n)*31 + uint64(alpha*100))
			z := NewZipf(r, n, alpha)
			linear := func(b uint64) int {
				for i, c := range z.cdfInt {
					if c >= b {
						return i
					}
				}
				t.Fatalf("n=%d alpha=%v: draw %d above cdfInt[n-1]", n, alpha, b)
				return -1
			}
			check := func(b uint64) {
				if b >= 1<<53 {
					return
				}
				if got, want := z.rank(b), linear(b); got != want {
					t.Fatalf("n=%d alpha=%v draw %d: rank %d, linear search %d", n, alpha, b, got, want)
				}
			}
			for _, c := range z.cdfInt {
				check(c - 1)
				check(c)
				check(c + 1)
			}
			g := uint64(len(z.guide))
			for k := uint64(0); k < g; k++ {
				hi, lo := bits.Mul64(k, 1<<53)
				cut, _ := bits.Div64(hi, lo, g)
				check(cut - 1)
				check(cut)
				check(cut + 1)
			}
			check(0)
			check(1<<53 - 1)
			for i := 0; i < 20_000; i++ {
				shadow := *r
				b := shadow.Uint64() >> 11
				if got, want := z.Next(), linear(b); got != want {
					t.Fatalf("n=%d alpha=%v draw %d: Next %d, linear search %d", n, alpha, b, got, want)
				}
				if r.State() != shadow.State() {
					t.Fatalf("n=%d alpha=%v: Next consumed other than one draw", n, alpha)
				}
			}
		}
	}
}

// TestBelowRunMatchesUint64Loop pins BelowRun to the loop it replaces:
// the same miss count, hit flag and final generator state as calling
// Uint64 until a draw's top 53 bits fall below thresh or max draws are
// spent, including the degenerate max 0, thresh 0 and thresh 2^53.
func TestBelowRunMatchesUint64Loop(t *testing.T) {
	loop := func(r *Rand, thresh, max uint64) (uint64, bool) {
		for n := uint64(0); n < max; n++ {
			if r.Uint64()>>11 < thresh {
				return n, true
			}
		}
		return max, false
	}
	threshes := []uint64{0, 1, 1 << 40, 1 << 50, 1 << 52, 3 << 51, 1<<53 - 1, 1 << 53}
	maxes := []uint64{0, 1, 2, 3, 17, 100, 4096}
	r := New(2024)
	for _, thresh := range threshes {
		for _, max := range maxes {
			for rep := 0; rep < 50; rep++ {
				want := *r
				wn, whit := loop(&want, thresh, max)
				gn, ghit := r.BelowRun(thresh, max)
				if gn != wn || ghit != whit {
					t.Fatalf("thresh %d max %d: BelowRun = (%d, %v), loop = (%d, %v)", thresh, max, gn, ghit, wn, whit)
				}
				if r.State() != want.State() {
					t.Fatalf("thresh %d max %d: state diverged from the Uint64 loop", thresh, max)
				}
				r.Uint64() // vary the start state between repetitions
			}
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkBelowRun(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.BelowRun(1<<50, 64)
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
