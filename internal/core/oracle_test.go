package core

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"intracache/internal/spline"
)

// oracleModel is CPIModel as it was kept before the engine stopped
// allocating: two maps, sorted afresh on every read. It stays here as
// the reference the slice-backed model must match bit for bit.
type oracleModel struct {
	points map[int]float64
	stamp  map[int]int
}

func newOracleModel() *oracleModel {
	return &oracleModel{points: make(map[int]float64), stamp: make(map[int]int)}
}

func (m *oracleModel) Observe(ways int, cpi float64, interval int) {
	if cpi <= 0 || ways < 0 || math.IsNaN(cpi) || math.IsInf(cpi, 0) {
		return
	}
	if old, ok := m.points[ways]; ok {
		m.points[ways] = modelBlend*cpi + (1-modelBlend)*old
	} else {
		m.points[ways] = cpi
	}
	m.stamp[ways] = interval
}

func (m *oracleModel) Prune(oldest int) {
	if len(m.points) <= 2 {
		return
	}
	type entry struct {
		ways  int
		stamp int
	}
	entries := make([]entry, 0, len(m.points))
	for w, s := range m.stamp {
		entries = append(entries, entry{w, s})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].stamp != entries[j].stamp {
			return entries[i].stamp > entries[j].stamp
		}
		return entries[i].ways < entries[j].ways
	})
	for i, e := range entries {
		if i < 2 {
			continue
		}
		if e.stamp < oldest {
			delete(m.points, e.ways)
			delete(m.stamp, e.ways)
		}
	}
}

func (m *oracleModel) Points() (ways []int, cpis []float64) {
	ways = make([]int, 0, len(m.points))
	for w := range m.points {
		ways = append(ways, w)
	}
	sort.Ints(ways)
	cpis = make([]float64, len(ways))
	for i, w := range ways {
		cpis[i] = m.points[w]
	}
	return ways, cpis
}

func (m *oracleModel) Fit(kind spline.Kind) spline.Interpolator {
	if len(m.points) == 0 {
		return nil
	}
	ways, cpis := m.Points()
	xs := make([]float64, len(ways))
	for i, w := range ways {
		xs[i] = float64(w)
	}
	in, err := spline.Fit(kind, xs, cpis)
	if err != nil {
		return nil
	}
	return in
}

func (m *oracleModel) state() CPIModelState {
	st := CPIModelState{Points: make(map[int]float64), Stamps: make(map[int]int)}
	for w, c := range m.points {
		st.Points[w] = c
	}
	for w, s := range m.stamp {
		st.Stamps[w] = s
	}
	return st
}

func oraclePredictor(m *oracleModel, kind spline.Kind, fallback float64) predictor {
	ways, cpis := m.Points()
	if len(ways) == 0 {
		return predictor{fallback: fallback, singlePoint: true}
	}
	p := predictor{fit: m.Fit(kind)}
	p.loX, p.hiX = float64(ways[0]), float64(ways[len(ways)-1])
	p.loY, p.hiY = cpis[0], cpis[len(cpis)-1]
	if len(ways) == 1 {
		p.singlePoint = true
		p.fallback = cpis[0]
		return p
	}
	p.loSlope = (cpis[1] - cpis[0]) / (float64(ways[1]) - float64(ways[0]))
	n := len(ways)
	p.hiSlope = (cpis[n-1] - cpis[n-2]) / (float64(ways[n-1]) - float64(ways[n-2]))
	return p
}

func oracleSuspectFit(m *oracleModel, kind spline.Kind) bool {
	fit := m.Fit(kind)
	if fit == nil {
		return false
	}
	ways, _ := m.Points()
	lo, hi := ways[0], ways[len(ways)-1]
	y := fit.Eval(float64(lo))
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return true
	}
	ymin, ymax := y, y
	runMin, rise := y, 0.0
	for w := lo + 1; w <= hi; w++ {
		y = fit.Eval(float64(w))
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return true
		}
		if y < ymin {
			ymin = y
		}
		if y > ymax {
			ymax = y
		}
		if y < runMin {
			runMin = y
		}
		if r := y - runMin; r > rise {
			rise = r
		}
	}
	span := ymax - ymin
	if span <= 1e-9 || ymax < ymin*1.05 {
		return false
	}
	return rise > 0.6*span
}

// oracleWays is the way range the fuzzer observes and evaluates over.
const oracleWays = 24

// fuzzCPI maps a byte to an observation: mostly positive CPIs on a
// coarse grid (so revisits blend), sometimes a value Observe must drop.
func fuzzCPI(b byte) float64 {
	if b%29 == 0 {
		return [...]float64{0, -1.5, math.NaN(), math.Inf(1), math.Inf(-1)}[b%5]
	}
	return 0.3 + float64(b)*0.137
}

// checkAgainstOracle asserts that m and o hold bit-identical points
// and state, and that predictors and fit audits built from them — m's
// into the long-lived sc, o's freshly allocated — agree bit for bit at
// every way count, for every spline kind.
func checkAgainstOracle(t *testing.T, m *CPIModel, o *oracleModel, sc *fitScratch) {
	t.Helper()
	gw, gc := m.Points()
	ww, wc := o.Points()
	if len(gw) != len(ww) || m.Len() != len(ww) {
		t.Fatalf("points %v/%v, oracle %v/%v", gw, gc, ww, wc)
	}
	for i := range gw {
		if gw[i] != ww[i] || math.Float64bits(gc[i]) != math.Float64bits(wc[i]) {
			t.Fatalf("points %v/%v, oracle %v/%v", gw, gc, ww, wc)
		}
	}
	if got, want := m.ModelState(), o.state(); !reflect.DeepEqual(got, want) {
		t.Fatalf("state %+v, oracle %+v", got, want)
	}
	for _, kind := range []spline.Kind{spline.NaturalCubic, spline.Linear} {
		p := newPredictor(m, kind, 7.25, sc)
		q := oraclePredictor(o, kind, 7.25)
		for w := 0; w <= oracleWays; w++ {
			if got, want := p.eval(w), q.eval(w); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v: eval(%d) = %v, oracle %v (points %v/%v)", kind, w, got, want, gw, gc)
			}
		}
		if got, want := suspectFit(m, kind, sc), oracleSuspectFit(o, kind); got != want {
			t.Fatalf("%v: suspectFit = %v, oracle %v (points %v/%v)", kind, got, want, gw, gc)
		}
	}
}

// FuzzCPIModelOracle drives the slice-backed CPIModel and the map-based
// oracle through the same Observe (with revisits), Prune and
// checkpoint round-trip sequence. Each step is three bytes: an op and
// two operands.
func FuzzCPIModelOracle(f *testing.F) {
	f.Add([]byte{0, 8, 40, 0, 16, 30, 0, 12, 50, 4, 5, 0, 0, 8, 41, 5, 0, 0, 4, 3, 0})
	f.Add([]byte{0, 1, 9, 0, 2, 9, 0, 3, 9, 0, 4, 9, 0, 5, 9, 4, 0, 0, 6, 7, 0, 4, 0, 0})
	f.Add([]byte{0, 20, 100, 0, 20, 101, 0, 8, 60, 5, 0, 0, 0, 21, 7, 4, 1, 0, 0, 3, 200})
	f.Add([]byte{0, 0, 29, 0, 1, 58, 0, 2, 87, 0, 24, 10, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, o := NewCPIModel(), newOracleModel()
		var sc fitScratch // reused across steps: stale storage must not leak
		interval := 0
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i], data[i+1], data[i+2]
			ways := int(a%(oracleWays+2)) - 1 // -1 must be dropped
			switch op % 7 {
			case 0, 1, 2:
				interval++
				m.Observe(ways, fuzzCPI(b), interval)
				o.Observe(ways, fuzzCPI(b), interval)
			case 3: // a second observation in the same interval
				m.Observe(ways, fuzzCPI(b), interval)
				o.Observe(ways, fuzzCPI(b), interval)
			case 4:
				m.Prune(interval - int(a%16))
				o.Prune(interval - int(a%16))
			case 5:
				m2 := NewCPIModel()
				if err := m2.RestoreModelState(m.ModelState()); err != nil {
					t.Fatalf("round trip of %+v: %v", m.ModelState(), err)
				}
				m = m2
			default:
				interval += int(a % 8)
			}
			checkAgainstOracle(t, m, o, &sc)
		}
	})
}
