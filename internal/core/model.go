package core

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"intracache/internal/cache"
	"intracache/internal/sim"
	"intracache/internal/spline"
)

// CPIModel is one thread's learned CPI-vs-ways model: the observed
// (ways, CPI) data points, blended with an exponential moving average
// when a way count is revisited, and a fitted interpolant over them.
// The paper maintains exactly this per-thread structure ("runtime
// thread performance modeling", Sec. VI-B, Fig. 15). Each point is
// stamped with the interval that produced it so stale points — taken
// before a program phase change — can be pruned.
type CPIModel struct {
	pts []modelPoint // ascending by ways, one point per way count
}

// modelPoint is one observed way count with its (blended) CPI and the
// interval that last observed it.
type modelPoint struct {
	ways  int
	cpi   float64
	stamp int
}

// The model engine's tuning. Every figure and every test runs with
// these values; a leave-one-out ablation of any of them is a one-line
// edit here.
const (
	// modelBlend is the weight of the newest observation when a way
	// count is revisited. The paper's models simply use the latest
	// data, which corresponds to 1; a little smoothing makes the fits
	// robust to interval noise without changing steady-state behaviour.
	modelBlend = 0.6
	// minWays is the smallest allocation any thread may hold, under
	// every dynamic engine.
	minWays = 1
	// maxPointAge prunes model points older than this many intervals.
	maxPointAge = 12
	// bootstrapIntervals is how many leading intervals use the
	// CPI-proportional rule to harvest diverse data points (the paper's
	// Fig. 13 uses two).
	bootstrapIntervals = 2
	// minSpread is the hysteresis guard: when the predicted CPIs at the
	// current assignment, and the observed ones, are within a relative
	// band of (1 + minSpread), the threads are considered balanced and
	// the assignment is left alone. Without it, interval noise on
	// balanced (cache-resident) applications drives pointless
	// repartitioning that can thrash the cache.
	minSpread = 0.08
	// perDonorCap bounds how many ways one decision may take from a
	// single donor.
	perDonorCap = 2
)

// NewCPIModel returns an empty model. Repeated observations at the same
// way count are blended with weight modelBlend.
func NewCPIModel() *CPIModel { return &CPIModel{} }

// validPoint reports whether (ways, cpi) can inform a model.
func validPoint(ways int, cpi float64) bool {
	return cpi > 0 && ways >= 0 && !math.IsNaN(cpi) && !math.IsInf(cpi, 0)
}

// Observe records that running with `ways` ways during `interval`
// produced `cpi`. Non-positive and non-finite observations are ignored
// (a thread that retired nothing in an interval has no meaningful CPI,
// and a NaN/Inf reading would poison every fit built from the model).
func (m *CPIModel) Observe(ways int, cpi float64, interval int) {
	if !validPoint(ways, cpi) {
		return
	}
	i, found := slices.BinarySearchFunc(m.pts, ways, func(p modelPoint, w int) int { return cmp.Compare(p.ways, w) })
	if found {
		m.pts[i].cpi = modelBlend*cpi + (1-modelBlend)*m.pts[i].cpi
		m.pts[i].stamp = interval
		return
	}
	m.pts = slices.Insert(m.pts, i, modelPoint{ways: ways, cpi: cpi, stamp: interval})
}

// Prune drops points last observed before `oldest`, but never below
// two points (the freshest two are always kept, ties going to the
// smaller way count), so a fit remains possible. Pruning implements
// the paper's "models are updated after each execution interval" under
// phase changes: measurements from a previous phase stop informing the
// current one.
func (m *CPIModel) Prune(oldest int) {
	if len(m.pts) <= 2 {
		return
	}
	// The points ascend by ways, so a strictly newer stamp is the only
	// way a later point can be fresher than an earlier one.
	first, second := 0, 1
	if m.pts[1].stamp > m.pts[0].stamp {
		first, second = 1, 0
	}
	for i := 2; i < len(m.pts); i++ {
		switch s := m.pts[i].stamp; {
		case s > m.pts[first].stamp:
			first, second = i, first
		case s > m.pts[second].stamp:
			second = i
		}
	}
	keep1, keep2 := m.pts[first].ways, m.pts[second].ways
	m.pts = slices.DeleteFunc(m.pts, func(p modelPoint) bool {
		return p.stamp < oldest && p.ways != keep1 && p.ways != keep2
	})
}

// Len returns the number of distinct way counts observed.
func (m *CPIModel) Len() int { return len(m.pts) }

// Points returns fresh copies of the data points, sorted by way count.
func (m *CPIModel) Points() (ways []int, cpis []float64) {
	ways = make([]int, len(m.pts))
	cpis = make([]float64, len(m.pts))
	for i, p := range m.pts {
		ways[i], cpis[i] = p.ways, p.cpi
	}
	return ways, cpis
}

// Fit returns an interpolator over the model's points using the given
// spline kind, or nil if the model is empty or the kind unknown. The
// interpolator owns its storage.
func (m *CPIModel) Fit(kind spline.Kind) spline.Interpolator {
	in, err := new(fitScratch).fit(m, kind)
	if err != nil {
		return nil
	}
	return in
}

// fitScratch is the reusable storage one model is fitted in: the
// points as spline coordinates, and the Fitter that owns the result.
type fitScratch struct {
	fitter spline.Fitter
	xs, ys []float64
}

// fit fits m into sc. The interpolator aliases sc and is valid until
// sc's next fit.
func (sc *fitScratch) fit(m *CPIModel, kind spline.Kind) (spline.Interpolator, error) {
	sc.xs, sc.ys = sc.xs[:0], sc.ys[:0]
	for _, p := range m.pts {
		sc.xs = append(sc.xs, float64(p.ways))
		sc.ys = append(sc.ys, p.cpi)
	}
	return sc.fitter.Fit(kind, sc.xs, sc.ys)
}

// predictor evaluates a fitted model with *linear* extrapolation beyond
// the observed way range (the spline itself clamps). Without this the
// engine could never predict a benefit from allocations it has not yet
// tried, and the search would freeze at the edge of its data.
// Extrapolated CPIs are floored at a small positive value.
type predictor struct {
	fit         spline.Interpolator
	loX, hiX    float64
	loY, hiY    float64
	loSlope     float64
	hiSlope     float64
	fallback    float64
	singlePoint bool
}

// newPredictor builds a predictor from a model, fitting it into sc; the
// predictor is valid until sc's next fit. fallback is used when the
// model is empty.
func newPredictor(m *CPIModel, kind spline.Kind, fallback float64, sc *fitScratch) predictor {
	n := len(m.pts)
	if n == 0 {
		return predictor{fallback: fallback, singlePoint: true}
	}
	lo, hi := m.pts[0], m.pts[n-1]
	p := predictor{loX: float64(lo.ways), hiX: float64(hi.ways), loY: lo.cpi, hiY: hi.cpi}
	if n == 1 {
		p.singlePoint = true
		p.fallback = lo.cpi
		return p
	}
	fit, err := sc.fit(m, kind)
	if err != nil {
		// The points are valid by construction, so only an unknown kind
		// fails; interpolate linearly, as every kind does through two
		// points.
		fit, _ = sc.fitter.Fit(spline.Linear, sc.xs, sc.ys)
	}
	p.fit = fit
	next, prev := m.pts[1], m.pts[n-2]
	p.loSlope = (next.cpi - lo.cpi) / (float64(next.ways) - float64(lo.ways))
	p.hiSlope = (hi.cpi - prev.cpi) / (float64(hi.ways) - float64(prev.ways))
	return p
}

// eval predicts CPI at w ways.
func (p predictor) eval(w int) float64 {
	if p.singlePoint {
		return p.fallback
	}
	x := float64(w)
	var y float64
	switch {
	case x < p.loX:
		y = p.loY + p.loSlope*(x-p.loX)
	case x > p.hiX:
		y = p.hiY + p.hiSlope*(x-p.hiX)
	default:
		return p.fit.Eval(x)
	}
	const minCPI = 0.5
	if y < minCPI {
		y = minCPI
	}
	return y
}

// ModelEngine implements the paper's Sec. VI-B dynamic model-based
// partitioning (Fig. 13):
//
//   - the first interval runs with equal partitions (installed by the
//     simulator before the engine is ever consulted);
//   - at the end of the first two intervals the CPI-proportional rule
//     is applied, harvesting two differently-shaped data points per
//     thread;
//   - from then on, each thread's (ways, CPI) history is fitted with a
//     natural cubic spline, and the engine iteratively moves one way
//     from the lowest-predicted-CPI thread to the highest-predicted-CPI
//     thread, re-predicting both CPIs from the models after each move,
//     until the identity of the critical (highest-CPI) thread changes —
//     then it backs off one step and installs the result (Fig. 13
//     Step 2).
//
// Its tuning is the package constants above. The zero value is ready
// to use.
type ModelEngine struct {
	models   []*CPIModel
	interval int
}

// NewModelEngine returns a ModelEngine.
func NewModelEngine() *ModelEngine { return &ModelEngine{} }

// Name implements Engine.
func (e *ModelEngine) Name() string { return "model-based" }

// Models returns the per-thread CPI models accumulated so far (nil
// before the first Decide call). Used by the Fig. 15 reproduction.
func (e *ModelEngine) Models() []*CPIModel { return e.models }

// ensure sizes the models for n threads. A thread count other than the
// models' (only a hand-built snapshot can cause one) starts every
// model afresh.
func (e *ModelEngine) ensure(n int) {
	if len(e.models) == n {
		return
	}
	e.models = make([]*CPIModel, n)
	for i := range e.models {
		e.models[i] = NewCPIModel()
	}
}

// Decide implements Engine.
func (e *ModelEngine) Decide(iv sim.IntervalStats, mon sim.Monitors, current []int) []int {
	e.ensure(mon.NumThreads())
	// Record this interval's data points: (ways the thread ran with,
	// CPI it achieved), then age out pre-phase-change points. The very
	// first interval is skipped: it runs on cold caches and its inflated
	// CPIs would teach every model a spurious slope.
	if e.interval > 0 {
		for t, ts := range iv.Threads {
			e.models[t].Observe(ts.WaysAssigned, ts.CPI(), e.interval)
			e.models[t].Prune(e.interval - maxPointAge)
		}
	}
	e.interval++
	// Bootstrap: the paper applies the CPI-based rule at the end of the
	// first two intervals to collect diverse data points.
	if e.interval <= bootstrapIntervals {
		return cpiProportional(iv, mon)
	}
	return e.partition(iv, mon, current)
}

// partition runs the Fig. 13 iterative reassignment over the fitted
// models. The whole search operates in model space: every thread's CPI
// is the model's prediction at its tentative allocation, so a stale
// model point at the current allocation cannot masquerade as ground
// truth next to fresh observations (the current observation was just
// blended into the model by Decide).
func (e *ModelEngine) partition(iv sim.IntervalStats, mon sim.Monitors, current []int) []int {
	n := mon.NumThreads()
	totalWays := mon.Ways()
	floor := minWays
	if floor*n > totalWays {
		floor = totalWays / n
	}

	sc := getScratch(n)
	defer scratchPool.Put(sc)
	preds := sc.preds
	for t := 0; t < n; t++ {
		preds[t] = newPredictor(e.models[t], spline.NaturalCubic, iv.Threads[t].CPI(), &sc.fits[t])
	}

	// Working assignment starts from what is currently installed.
	ways := sc.ways
	if len(current) == n {
		copy(ways, current)
	} else {
		copy(ways, cache.EqualSplit(totalWays, n))
	}

	cpi := sc.cpi
	for t := 0; t < n; t++ {
		cpi[t] = preds[t].eval(ways[t])
	}

	// Hysteresis: balanced threads stay balanced. Use both the model's
	// view and this interval's observed CPIs, so a thread whose reality
	// has diverged from a stale model still triggers repartitioning.
	obs := sc.obs
	for t, ts := range iv.Threads {
		obs[t] = ts.CPI()
	}
	if relSpread(cpi) <= minSpread && relSpread(obs) <= minSpread {
		return nil
	}

	// Iterate: move one way from the fastest thread to the critical
	// (highest-predicted-CPI) thread; re-predict; keep going while the
	// descending-sorted CPI vector strictly improves lexicographically,
	// and revert the last step when it stops improving (Fig. 13 Step 2).
	// Two deliberate strengthenings of the paper's literal pseudocode:
	//
	//   - The paper exits when the *identity* of the critical thread
	//     changes. With two or more threads near-tied as critical (a
	//     state the search itself can create), that rule freezes even
	//     though all tied threads should receive ways from the genuinely
	//     fast thread. Lexicographic descent on the sorted CPI vector
	//     subsumes the paper's rule — a move that worsens the overall
	//     maximum still reverts — but makes progress through ties.
	//
	//   - Predictions are clamped to be monotone-rational: gaining a
	//     way never predicts a higher CPI, losing a way never predicts
	//     a lower one. Otherwise a warmup- or noise-inverted model
	//     ("this thread got faster when its allocation shrank") offers
	//     the search a free lunch and it drains that thread dry.
	//
	// donated[d] counts ways taken from thread d this decision; capping
	// it at perDonorCap bounds how wrong a single mispredicted donor can
	// go before the next interval's observation corrects its model.
	// Models fitted from a handful of noisy interval samples extrapolate
	// poorly far from their data; the cap turns a potentially
	// catastrophic mispredicted jump into a bounded step. Every accepted
	// move spends one donation, so the loop ends, and at least one
	// thread gains, so a decision moves at most perDonorCap*(n-1) ways.
	donated := sc.donated
	moved := 0
	sc.prev = sortedDesc(sc.prev, cpi)
	for {
		maxT := argMaxF(cpi)
		// Donor choice: the paper takes from the lowest-CPI thread, but
		// the cheapest-*looking* thread is not always the cheapest
		// donor — its model may predict a steep cliff one way down
		// (e.g. a stale low-allocation data point). Choosing the donor
		// with the lowest *predicted post-donation* CPI uses the models
		// the way the paper intends ("whether the repartitioning has
		// actually helped or not is taken into account") and cannot
		// freeze on a single scarred model while a surplus-rich thread
		// sits next to it.
		minT := argMinDonor(preds, ways, donated, perDonorCap, floor, maxT)
		if minT < 0 || minT == maxT {
			break
		}
		oldMaxCPI, oldMinCPI := cpi[maxT], cpi[minT]
		ways[maxT]++
		ways[minT]--
		gain := preds[maxT].eval(ways[maxT])
		if gain > oldMaxCPI {
			gain = oldMaxCPI // receiving a way never hurts
		}
		cost := preds[minT].eval(ways[minT])
		if cost < oldMinCPI {
			cost = oldMinCPI // losing a way never helps
		}
		cpi[maxT], cpi[minT] = gain, cost
		sc.next = sortedDesc(sc.next, cpi)
		if !lexLess(sc.next, sc.prev) {
			// No predicted improvement of the critical path (flat or
			// adverse models, or the donor becomes the bottleneck):
			// revert this step and stop.
			ways[maxT]--
			ways[minT]++
			cpi[maxT], cpi[minT] = oldMaxCPI, oldMinCPI
			break
		}
		donated[minT]++
		sc.prev, sc.next = sc.next, sc.prev
		moved++
	}
	// Exploration: when no move was accepted but the threads are
	// clearly imbalanced, the critical thread's model is usually flat —
	// not because more ways would not help, but because the thread has
	// only ever been observed near one allocation (a thread that
	// bootstrapped small never gets data showing its curve). Grant it
	// one way from the cheapest donor anyway, guarded so the donor is
	// not predicted to become a worse bottleneck than the thread being
	// helped; next interval's observation then extends the model and
	// ordinary descent takes over.
	if moved == 0 {
		// The threshold is double the descent hysteresis: exploration
		// perturbs a converged state, so it needs stronger evidence of
		// imbalance than ordinary model-driven moves do.
		if relSpread(obs) > 2*minSpread {
			maxT := argMaxF(cpi)
			minT := argMinDonor(preds, ways, donated, perDonorCap, floor, maxT)
			if minT >= 0 && minT != maxT && preds[minT].eval(ways[minT]-1) < cpi[maxT] {
				ways[maxT]++
				ways[minT]--
			}
		}
	}
	if err := validAssignment(ways, totalWays, n); err != nil {
		// Defensive: never hand the simulator a broken assignment.
		return cache.EqualSplit(totalWays, n)
	}
	return append([]int(nil), ways...)
}

// sortedDesc returns xs copied into dst's storage and sorted
// descending, NaNs last.
func sortedDesc(dst, xs []float64) []float64 {
	dst = append(dst[:0], xs...)
	slices.SortFunc(dst, func(a, b float64) int { return cmp.Compare(b, a) })
	return dst
}

// engineScratch is the working storage of one partition:
// a fit per thread and the search's per-thread vectors. It comes from
// scratchPool and goes back when the call returns, so no session or
// engine holds decision-path memory between decisions.
type engineScratch struct {
	fits          []fitScratch
	preds         []predictor
	ways, donated []int
	cpi, obs      []float64
	prev, next    []float64
}

var scratchPool = sync.Pool{New: func() any { return new(engineScratch) }}

// getScratch takes a scratch from the pool sized for n threads, with
// donated zeroed.
func getScratch(n int) *engineScratch {
	sc := scratchPool.Get().(*engineScratch)
	if cap(sc.fits) < n {
		sc.fits = make([]fitScratch, n)
		sc.preds = make([]predictor, n)
		sc.ways, sc.donated = make([]int, n), make([]int, n)
		sc.cpi, sc.obs = make([]float64, n), make([]float64, n)
	}
	sc.fits, sc.preds = sc.fits[:n], sc.preds[:n]
	sc.ways, sc.donated = sc.ways[:n], sc.donated[:n]
	sc.cpi, sc.obs = sc.cpi[:n], sc.obs[:n]
	clear(sc.donated)
	return sc
}

// lexLess reports whether a < b lexicographically with a small absolute
// tolerance (entries within eps are equal).
func lexLess(a, b []float64) bool {
	const eps = 1e-9
	for i := range a {
		switch {
		case a[i] < b[i]-eps:
			return true
		case a[i] > b[i]+eps:
			return false
		}
	}
	return false
}

// relSpread returns max/min - 1 over the positive entries of xs (0 when
// fewer than two are positive).
func relSpread(xs []float64) float64 {
	lo, hi := 0.0, 0.0
	count := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		if count == 0 || x < lo {
			lo = x
		}
		if count == 0 || x > hi {
			hi = x
		}
		count++
	}
	if count < 2 || lo == 0 {
		return 0
	}
	return hi/lo - 1
}

// argMaxF returns the index of the largest element (first on ties).
func argMaxF(xs []float64) int {
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}

// argMinDonor returns the eligible thread whose predicted CPI *after*
// donating one way is lowest, excluding `skip`, threads at the way
// floor, and threads that already donated `cap` ways this decision;
// -1 if none qualifies.
func argMinDonor(preds []predictor, ways, donated []int, cap, floor, skip int) int {
	best := -1
	var bestCost float64
	for i := range preds {
		if i == skip || ways[i] <= floor || donated[i] >= cap {
			continue
		}
		cost := preds[i].eval(ways[i] - 1)
		if best == -1 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best
}
