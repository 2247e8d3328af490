package spline

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"intracache/internal/xrand"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFitErrors(t *testing.T) {
	if _, err := Fit(NaturalCubic, nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Fit(NaturalCubic, []float64{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := Fit(Kind(99), []float64{1, 2, 3}, []float64{1, 2, 3}); err == nil {
		t.Error("unknown kind accepted")
	}
}

// An unknown kind is an error however many points come with it; it
// used to be accepted with one or two distinct points.
func TestFitUnknownKindAnyLength(t *testing.T) {
	inputs := []struct {
		name   string
		xs, ys []float64
	}{
		{"1 point", []float64{4}, []float64{2}},
		{"2 points", []float64{4, 8}, []float64{2, 1}},
		{"2 distinct of 3", []float64{4, 4, 8}, []float64{2, 3, 1}},
		{"3 points", []float64{4, 8, 12}, []float64{2, 1, 0.5}},
	}
	for _, kind := range []Kind{Kind(-1), Linear + 1, Kind(99)} {
		for _, in := range inputs {
			if _, err := Fit(kind, in.xs, in.ys); err == nil {
				t.Errorf("%v with %s accepted", kind, in.name)
			}
			if _, err := new(Fitter).Fit(kind, in.xs, in.ys); err == nil {
				t.Errorf("Fitter: %v with %s accepted", kind, in.name)
			}
		}
	}
}

// dedupSortedOracle is the sort-and-average step as it was before the
// Fitter: sort.Slice over a fresh slice.
func dedupSortedOracle(xs, ys []float64) ([]float64, []float64) {
	type pt struct{ x, y float64 }
	pts := make([]pt, len(xs))
	for i := range xs {
		pts[i] = pt{xs[i], ys[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })
	var outX, outY []float64
	for i := 0; i < len(pts); {
		j := i
		var sum float64
		for j < len(pts) && pts[j].x == pts[i].x {
			sum += pts[j].y
			j++
		}
		outX = append(outX, pts[i].x)
		outY = append(outY, sum/float64(j-i))
		i = j
	}
	return outX, outY
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// randomPoints draws n points on a coarse x grid (so duplicates are
// common), with signed zeros among the ys.
func randomPoints(r *xrand.Rand, n int) (xs, ys []float64) {
	for i := 0; i < n; i++ {
		xs = append(xs, float64(r.Intn(12)))
		switch r.Intn(8) {
		case 0:
			ys = append(ys, math.Copysign(0, -1))
		case 1:
			ys = append(ys, 0)
		default:
			ys = append(ys, r.Float64()*20-5)
		}
	}
	return xs, ys
}

// One Fitter reused across fits of every size and kind must give the
// bits a fresh fit gives, and its knots must be what the old
// sort-and-average produced. Strictly ascending input, which skips the
// sort, must fit exactly as the same points do through it.
func TestFitterMatchesFreshFitBitForBit(t *testing.T) {
	r := xrand.New(16)
	var reused Fitter
	for trial := 0; trial < 3000; trial++ {
		xs, ys := randomPoints(r, 1+r.Intn(10))
		kind := Kind(r.Intn(2))
		wantX, wantY := dedupSortedOracle(xs, ys)

		got, err := reused.Fit(kind, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if len(wantX) > 1 && !sameBits(got.Knots(), wantX) {
			t.Fatalf("knots %v, want %v", got.Knots(), wantX)
		}
		fresh, err := new(Fitter).Fit(kind, wantX, wantY) // ascending: no sort
		if err != nil {
			t.Fatal(err)
		}
		for x := -1.0; x <= 12; x += 0.25 {
			if a, b := got.Eval(x), fresh.Eval(x); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%v over %v/%v: Eval(%v) = %v reused, %v fresh ascending", kind, xs, ys, x, a, b)
			}
		}

		// Ascending input with raw ys (signed zeros included) against
		// the same points averaged by the old sort path.
		_, rawY := randomPoints(r, len(wantX))
		fast, err := reused.Fit(kind, wantX, rawY)
		if err != nil {
			t.Fatal(err)
		}
		ox, oy := dedupSortedOracle(wantX, rawY)
		slow, err := new(Fitter).Fit(kind, ox, oy)
		if err != nil {
			t.Fatal(err)
		}
		for x := -1.0; x <= 12; x += 0.25 {
			if a, b := fast.Eval(x), slow.Eval(x); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%v over %v/%v: Eval(%v) = %v ascending, %v averaged", kind, wantX, rawY, x, a, b)
			}
		}
	}
}

// A warm Fitter refits same-sized input without allocating.
func TestFitterReusesStorage(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16, 32}
	ys := []float64{9, 7.5, 6, 4.2, 3.9, 3.85}
	shuffled := []float64{8, 1, 32, 4, 16, 2}
	for _, kind := range []Kind{NaturalCubic, Linear} {
		var f Fitter
		if _, err := f.Fit(kind, shuffled, ys); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := f.Fit(kind, xs, ys); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Fit(kind, shuffled, ys); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: warm Fitter allocated %v times per two fits", kind, allocs)
		}
	}
}

func TestFitRejectsNonFinite(t *testing.T) {
	kinds := []Kind{NaturalCubic, Linear}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, k := range kinds {
		for _, v := range bad {
			if _, err := Fit(k, []float64{1, v, 3}, []float64{1, 2, 3}); err == nil {
				t.Errorf("%v: non-finite x %v accepted", k, v)
			}
			if _, err := Fit(k, []float64{1, 2, 3}, []float64{1, v, 3}); err == nil {
				t.Errorf("%v: non-finite y %v accepted", k, v)
			}
		}
	}
}

// Every accepted fit must evaluate to a finite value everywhere —
// inside the knot range, at the knots, and in the clamped extrapolation
// region — for every degenerate-but-valid input shape.
func TestFitNeverReturnsNaN(t *testing.T) {
	cases := []struct {
		name   string
		xs, ys []float64
	}{
		{"single point", []float64{4}, []float64{2.5}},
		{"all duplicate x", []float64{4, 4, 4}, []float64{1, 2, 3}},
		{"two points after dedup", []float64{1, 1, 8}, []float64{3, 5, 2}},
		{"two distinct points", []float64{1, 8}, []float64{3, 2}},
		{"identical ys", []float64{1, 2, 3, 4}, []float64{7, 7, 7, 7}},
		{"tiny x spacing", []float64{1, 1 + 1e-12, 2}, []float64{1, 100, 2}},
		{"huge values", []float64{1, 2, 3}, []float64{1e300, 2e300, 1.5e300}},
	}
	for _, k := range []Kind{NaturalCubic, Linear} {
		for _, tc := range cases {
			in, err := Fit(k, tc.xs, tc.ys)
			if err != nil {
				continue // rejection is always acceptable
			}
			for x := -2.0; x <= 12; x += 0.25 {
				if y := in.Eval(x); math.IsNaN(y) || math.IsInf(y, 0) {
					t.Errorf("%v/%s: Eval(%g) = %v", k, tc.name, x, y)
					break
				}
			}
		}
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		NaturalCubic: "natural-cubic",
		Linear:       "linear",
		Kind(42):     "Kind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestConstantSinglePoint(t *testing.T) {
	for _, kind := range []Kind{NaturalCubic, Linear} {
		in, err := Fit(kind, []float64{4}, []float64{7})
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []float64{-10, 0, 4, 100} {
			if got := in.Eval(x); got != 7 {
				t.Errorf("%v single point Eval(%v) = %v, want 7", kind, x, got)
			}
		}
	}
}

func TestTwoPointsLinear(t *testing.T) {
	for _, kind := range []Kind{NaturalCubic, Linear} {
		in, err := Fit(kind, []float64{0, 10}, []float64{0, 100})
		if err != nil {
			t.Fatal(err)
		}
		if got := in.Eval(5); !almostEq(got, 50, 1e-9) {
			t.Errorf("%v two points Eval(5) = %v, want 50", kind, got)
		}
	}
}

func TestInterpolatesKnots(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16, 32}
	ys := []float64{9, 7.5, 6, 4.2, 3.9, 3.85}
	for _, kind := range []Kind{NaturalCubic, Linear} {
		in, err := Fit(kind, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if got := in.Eval(xs[i]); !almostEq(got, ys[i], 1e-9) {
				t.Errorf("%v Eval(knot %v) = %v, want %v", kind, xs[i], got, ys[i])
			}
		}
	}
}

func TestClampedExtrapolation(t *testing.T) {
	xs := []float64{2, 4, 8, 16}
	ys := []float64{10, 6, 4, 3}
	for _, kind := range []Kind{NaturalCubic, Linear} {
		in, err := Fit(kind, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if got := in.Eval(0); got != 10 {
			t.Errorf("%v Eval below range = %v, want 10", kind, got)
		}
		if got := in.Eval(64); got != 3 {
			t.Errorf("%v Eval above range = %v, want 3", kind, got)
		}
	}
}

func TestUnsortedInput(t *testing.T) {
	in, err := Fit(Linear, []float64{8, 2, 4}, []float64{1, 7, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Eval(3); !almostEq(got, 5, 1e-9) {
		t.Errorf("Eval(3) = %v, want 5 (midpoint of (2,7)-(4,3))", got)
	}
	knots := in.Knots()
	for i := 1; i < len(knots); i++ {
		if knots[i] <= knots[i-1] {
			t.Errorf("knots not ascending: %v", knots)
		}
	}
}

func TestDuplicateXAveraged(t *testing.T) {
	in, err := Fit(Linear, []float64{2, 2, 6}, []float64{4, 8, 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Eval(2); !almostEq(got, 6, 1e-9) {
		t.Errorf("duplicate x averaged Eval(2) = %v, want 6", got)
	}
	if got := len(in.Knots()); got != 2 {
		t.Errorf("knot count = %d, want 2", got)
	}
}

func TestNaturalCubicRecoversLine(t *testing.T) {
	// A natural cubic through collinear points is exactly that line.
	xs := []float64{0, 1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x + 1
	}
	in, err := Fit(NaturalCubic, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.0; x <= 5; x += 0.1 {
		if got := in.Eval(x); !almostEq(got, 3*x+1, 1e-9) {
			t.Fatalf("Eval(%v) = %v, want %v", x, got, 3*x+1)
		}
	}
}

func TestNaturalCubicSmoothCurve(t *testing.T) {
	// Fit sin over a dense grid; interpolation error should be small.
	var xs, ys []float64
	for i := 0; i <= 16; i++ {
		x := float64(i) * math.Pi / 16
		xs = append(xs, x)
		ys = append(ys, math.Sin(x))
	}
	in, err := Fit(NaturalCubic, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.05; x < math.Pi; x += 0.05 {
		if got := in.Eval(x); !almostEq(got, math.Sin(x), 1e-3) {
			t.Fatalf("Eval(%v) = %v, want ~%v", x, got, math.Sin(x))
		}
	}
}

func TestLinearExactBetweenKnots(t *testing.T) {
	in, err := Fit(Linear, []float64{0, 2, 6}, []float64{0, 4, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Eval(1); !almostEq(got, 2, 1e-12) {
		t.Errorf("Eval(1) = %v, want 2", got)
	}
	if got := in.Eval(4); !almostEq(got, 2, 1e-12) {
		t.Errorf("Eval(4) = %v, want 2", got)
	}
}

// Property: all interpolants pass through every (deduped) knot and stay
// clamped outside the x-range, for random monotone-x data.
func TestQuickKnotInterpolation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%12) + 1
		r := xrand.New(seed)
		xs := make([]float64, n)
		ys := make([]float64, n)
		x := 0.0
		for i := 0; i < n; i++ {
			x += 0.5 + r.Float64()*4
			xs[i] = x
			ys[i] = r.Float64()*20 - 10
		}
		for _, kind := range []Kind{NaturalCubic, Linear} {
			in, err := Fit(kind, xs, ys)
			if err != nil {
				return false
			}
			for i := range xs {
				if !almostEq(in.Eval(xs[i]), ys[i], 1e-6) {
					return false
				}
			}
			if !almostEq(in.Eval(xs[0]-100), ys[0], 1e-12) {
				return false
			}
			if !almostEq(in.Eval(xs[n-1]+100), ys[n-1], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkFitNaturalCubic(b *testing.B) {
	xs := []float64{1, 2, 4, 8, 12, 16, 24, 32, 48, 64}
	ys := []float64{12, 9, 6.5, 5, 4.7, 4.4, 4.2, 4.1, 4.07, 4.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(NaturalCubic, xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalNaturalCubic(b *testing.B) {
	xs := []float64{1, 2, 4, 8, 12, 16, 24, 32, 48, 64}
	ys := []float64{12, 9, 6.5, 5, 4.7, 4.4, 4.2, 4.1, 4.07, 4.05}
	in, err := Fit(NaturalCubic, xs, ys)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = in.Eval(float64(i%64) + 0.5)
	}
}
