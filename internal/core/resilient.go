package core

import (
	"math"

	"intracache/internal/cache"
	"intracache/internal/sim"
	"intracache/internal/spline"
)

// Health is the runtime system's degradation level: which rung of the
// policy fallback chain is currently steering the partition.
type Health int

const (
	// HealthModel is the healthy state: the spline-model-based engine
	// decides every interval (the paper's headline scheme).
	HealthModel Health = iota
	// HealthProportional is the first fallback: measurements are too
	// unreliable to fit models, but raw CPIs are still usable, so the
	// simpler CPI-proportional rule decides (no model, no memory).
	HealthProportional
	// HealthStatic is the terminal fallback: telemetry is garbage, so
	// the partition is pinned to the static equal split — the safest
	// configuration that requires no measurements at all.
	HealthStatic
)

// String returns the health state's short name.
func (h Health) String() string {
	switch h {
	case HealthModel:
		return "model"
	case HealthProportional:
		return "proportional"
	case HealthStatic:
		return "static"
	default:
		return "unknown"
	}
}

// The resilient engine's hysteresis and validation thresholds.
const (
	// window is the quality-history length, in intervals.
	window = 6
	// demoteBad demotes one rung when at least this many of the last
	// window intervals were bad.
	demoteBad = 3
	// promoteBad promotes one rung when at most this many of the last
	// window intervals were bad, over a full window.
	promoteBad = 0
	// dwell is the minimum number of intervals between consecutive
	// level changes; with demoteBad and promoteBad it forms the
	// hysteresis band.
	dwell = 4
	// jumpFactor flags a thread sample whose CPI moved by more than
	// this factor relative to its last trusted sample.
	jumpFactor = 4
)

// ResilientEngine hardens the model-based partitioner against degraded
// telemetry. It wraps the stock ModelEngine and the CPI-proportional
// rule in a three-rung fallback chain (model → CPI-proportional → static
// equal) driven by per-interval measurement quality:
//
//   - every interval's samples are validated before any engine sees
//     them: zero-instruction or non-finite CPIs, exact stuck-counter
//     repeats, and implausible CPI jumps mark the interval tainted, and
//     a tainted interval holds the current partition — repartitioning
//     on corrupt measurements is strictly worse than standing still,
//     and the models never observe a poisoned sample;
//   - a sliding window of interval quality plus a dwell time implements
//     hysteresis: sustained bad intervals demote one rung at a time,
//     and promotion back up requires a fully clean window, so the
//     controller neither flaps between rungs nor trusts a single good
//     reading after a storm;
//   - at the model rung, the fitted splines themselves are audited:
//     non-finite or wildly non-monotone fits (CPI rising steeply with
//     more ways) count as bad intervals, catching the case where inputs
//     looked plausible but the learned model is nonsense.
//
// Under clean telemetry no sample is ever flagged and the engine is a
// transparent pass-through to the stock ModelEngine, so healthy-path
// behaviour (and every paper figure) is unchanged.
type ResilientEngine struct {
	// Model decides at HealthModel; the CPI-proportional rule decides
	// at HealthProportional.
	Model *ModelEngine

	health       Health
	ring         []bool
	pos, filled  int
	sinceChange  int
	lastReported []sim.ThreadIntervalStats // previous raw samples (stuck detection)
	haveReported bool
	lastGood     []sim.ThreadIntervalStats // previous trusted samples (jump detection)
	haveGood     []bool
	resetSplit   bool
	demotions    int
	promotions   int
	rejected     uint64
}

// NewResilientEngine returns the hardened model-based engine.
func NewResilientEngine() *ResilientEngine {
	return &ResilientEngine{Model: NewModelEngine()}
}

// Name implements Engine. The resilient engine *is* the model-based
// runtime (the fallback chain is its degraded mode), so it reports the
// policy's name.
func (e *ResilientEngine) Name() string { return "model-based" }

// Health returns the current degradation level.
func (e *ResilientEngine) Health() Health { return e.health }

// Demotions returns how many rung-down transitions have occurred.
func (e *ResilientEngine) Demotions() int { return e.demotions }

// Promotions returns how many rung-up transitions have occurred.
func (e *ResilientEngine) Promotions() int { return e.promotions }

// RejectedSamples returns how many per-thread samples validation has
// discarded.
func (e *ResilientEngine) RejectedSamples() uint64 { return e.rejected }

// ensure sizes the engine's state for n threads. A thread count other
// than the per-thread state's (only a hand-built snapshot can cause
// one) starts that state afresh, so a sample is never checked against
// another thread's history.
func (e *ResilientEngine) ensure(n int) {
	if e.ring == nil {
		e.ring = make([]bool, window)
	}
	if len(e.lastReported) != n {
		e.lastReported = make([]sim.ThreadIntervalStats, n)
		e.lastGood = make([]sim.ThreadIntervalStats, n)
		e.haveGood = make([]bool, n)
		e.haveReported = false
	}
	if e.Model == nil {
		e.Model = NewModelEngine()
	}
}

// Decide implements Engine: validate, update health, dispatch to the
// current rung's engine.
func (e *ResilientEngine) Decide(iv sim.IntervalStats, mon sim.Monitors, current []int) []int {
	e.ensure(len(iv.Threads))

	suspect, bad := e.assess(iv)
	if !bad && e.health == HealthModel && e.suspectFits() {
		bad = true
	}
	e.record(bad)
	e.maybeTransition()

	// Remember this interval's samples: raw for stuck detection, and —
	// only when trusted — as the jump-detection baseline, so one noise
	// spike does not also condemn the next honest reading.
	for t := range iv.Threads {
		e.lastReported[t] = iv.Threads[t]
		if !suspect[t] {
			e.lastGood[t] = iv.Threads[t]
			e.haveGood[t] = true
		}
	}
	e.haveReported = true

	// A demotion means the partition in force was steered by telemetry
	// now judged unreliable; fall back to the equal split immediately
	// rather than let a possibly poisoned assignment persist through the
	// held intervals that follow.
	if e.resetSplit {
		e.resetSplit = false
		return cache.EqualSplit(mon.Ways(), mon.NumThreads())
	}
	switch e.health {
	case HealthStatic:
		return nil
	case HealthProportional:
		if bad {
			return nil // tainted interval: hold the current partition
		}
		return cpiProportional(iv, mon)
	default:
		if bad {
			return nil
		}
		return e.Model.Decide(iv, mon, current)
	}
}

// assess validates one interval's samples. A sample is suspect when it
// is empty or non-finite, exactly repeats the previous reading (a stuck
// counter — real counters essentially never latch twice identically),
// or jumps implausibly far from the thread's last trusted CPI.
func (e *ResilientEngine) assess(iv sim.IntervalStats) (suspect []bool, bad bool) {
	suspect = make([]bool, len(iv.Threads))
	for t, ts := range iv.Threads {
		cpi := ts.CPI()
		switch {
		case ts.Instructions == 0 || cpi <= 0 || math.IsNaN(cpi) || math.IsInf(cpi, 0):
			suspect[t] = true
		case e.haveReported && sameCounters(ts, e.lastReported[t]):
			suspect[t] = true
		case e.haveGood[t]:
			if prev := e.lastGood[t].CPI(); prev > 0 && (cpi > prev*jumpFactor || cpi < prev/jumpFactor) {
				suspect[t] = true
			}
		}
		if suspect[t] {
			bad = true
			e.rejected++
		}
	}
	return suspect, bad
}

// sameCounters reports whether two samples carry identical counter
// values (the way assignment is runtime-side state, not a counter).
func sameCounters(a, b sim.ThreadIntervalStats) bool {
	return a.Instructions == b.Instructions &&
		a.ActiveCycles == b.ActiveCycles &&
		a.StallCycles == b.StallCycles &&
		a.L1Misses == b.L1Misses &&
		a.L2Accesses == b.L2Accesses &&
		a.L2Hits == b.L2Hits &&
		a.L2Misses == b.L2Misses &&
		a.Instructions > 0
}

// record pushes one interval's quality verdict into the sliding window.
func (e *ResilientEngine) record(bad bool) {
	e.ring[e.pos] = bad
	e.pos = (e.pos + 1) % len(e.ring)
	if e.filled < len(e.ring) {
		e.filled++
	}
	e.sinceChange++
}

func (e *ResilientEngine) badCount() int {
	n := 0
	for i := 0; i < e.filled; i++ {
		if e.ring[i] {
			n++
		}
	}
	return n
}

// maybeTransition moves one rung at a time, respecting the dwell time.
func (e *ResilientEngine) maybeTransition() {
	if e.sinceChange < dwell {
		return
	}
	bad := e.badCount()
	switch {
	case bad >= demoteBad && e.health < HealthStatic:
		e.health++
		e.demotions++
		e.sinceChange = 0
		e.resetSplit = true
	case bad <= promoteBad && e.filled == len(e.ring) && e.health > HealthModel:
		e.health--
		e.promotions++
		e.sinceChange = 0
	}
}

// suspectFits audits the fitted models: a rung-down signal fires when
// at least half of the fitted threads have an unreliable model
// (non-finite output, or a rising run covering most of the curve's
// range — CPI must not grow substantially with more cache).
func (e *ResilientEngine) suspectFits() bool {
	models := e.Model.Models()
	if models == nil {
		return false
	}
	sc := getScratch(1)
	defer scratchPool.Put(sc)
	assessed, suspects := 0, 0
	for _, m := range models {
		if m.Len() < 3 {
			continue
		}
		assessed++
		if suspectFit(m, spline.NaturalCubic, &sc.fits[0]) {
			suspects++
		}
	}
	return assessed > 0 && suspects*2 >= assessed
}

// suspectFit evaluates one model's interpolant, fitted into sc, at
// every integer way in its observed range and reports whether the fit
// is unusable.
func suspectFit(m *CPIModel, kind spline.Kind, sc *fitScratch) bool {
	fit, err := sc.fit(m, kind)
	if err != nil {
		return false
	}
	lo, hi := m.pts[0].ways, m.pts[len(m.pts)-1].ways
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
	// A flat or near-flat curve cannot be "wildly" anything.
	if span <= 1e-9 || ymax < ymin*1.05 {
		return false
	}
	return rise > 0.6*span
}
