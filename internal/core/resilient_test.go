package core

import (
	"math"
	"reflect"
	"testing"

	"intracache/internal/cache"
	"intracache/internal/sim"
)

// cleanStream feeds n intervals of well-behaved, slowly varying CPIs to
// an engine and collects its decisions.
func cleanStream(e Engine, n int, mon fakeMon) [][]int {
	current := cache.EqualSplit(mon.Ways(), mon.NumThreads())
	var out [][]int
	// Every thread's CPI drifts each interval: real counters essentially
	// never latch the exact same values twice, and an exact repeat is the
	// stuck-counter signature.
	for i := 0; i < n; i++ {
		d := e.Decide(ivWith(i, cleanCPIs(i), current), mon, current)
		out = append(out, d)
		if d != nil {
			current = d
		}
	}
	return out
}

// On clean telemetry the resilient engine must be a transparent
// pass-through: identical decisions to a bare ModelEngine, health
// pinned at the model rung, zero rejected samples.
func TestResilientTransparentWhenClean(t *testing.T) {
	mon := fakeMon{ways: 16, threads: 4}
	re := NewResilientEngine()
	got := cleanStream(re, 20, mon)
	want := cleanStream(NewModelEngine(), 20, mon)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decisions diverge on clean telemetry:\n got %v\nwant %v", got, want)
	}
	if re.Health() != HealthModel {
		t.Errorf("health = %v, want model", re.Health())
	}
	if re.RejectedSamples() != 0 {
		t.Errorf("rejected %d clean samples", re.RejectedSamples())
	}
	if re.Demotions() != 0 {
		t.Errorf("demoted %d times on clean telemetry", re.Demotions())
	}
}

// garbageInterval builds an interval whose samples are all invalid.
func garbageInterval(i int, ways []int) sim.IntervalStats {
	iv := sim.IntervalStats{Index: i, Threads: make([]sim.ThreadIntervalStats, len(ways))}
	for t := range ways {
		iv.Threads[t] = sim.ThreadIntervalStats{WaysAssigned: ways[t]} // zero instructions
	}
	return iv
}

func TestResilientDemotesToStaticUnderGarbage(t *testing.T) {
	mon := fakeMon{ways: 16, threads: 4}
	re := NewResilientEngine()
	current := []int{10, 2, 2, 2}
	staticInstalls := 0
	for i := 0; i < 20; i++ {
		d := re.Decide(garbageInterval(i, current), mon, current)
		if d != nil {
			if !reflect.DeepEqual(d, cache.EqualSplit(16, 4)) {
				t.Fatalf("interval %d: unexpected decision %v from garbage", i, d)
			}
			staticInstalls++
			current = d
		}
	}
	if re.Health() != HealthStatic {
		t.Fatalf("health = %v after 20 garbage intervals, want static", re.Health())
	}
	if re.Demotions() != 2 {
		t.Errorf("demotions = %d, want 2 (model->prop->static)", re.Demotions())
	}
	// Each demotion resets to the equal split (model->prop, prop->static).
	if staticInstalls != 2 {
		t.Errorf("equal split installed %d times, want one per demotion (2)", staticInstalls)
	}
}

func TestResilientPromotesOnRecovery(t *testing.T) {
	mon := fakeMon{ways: 16, threads: 4}
	re := NewResilientEngine()
	current := cache.EqualSplit(16, 4)
	for i := 0; i < 20; i++ {
		if d := re.Decide(garbageInterval(i, current), mon, current); d != nil {
			current = d
		}
	}
	if re.Health() != HealthStatic {
		t.Fatalf("setup failed: health = %v", re.Health())
	}
	// Telemetry comes back: a long clean run must climb all the way home.
	for i := 20; i < 60 && re.Health() != HealthModel; i++ {
		cpis := []float64{2 + 0.01*float64(i), 4 - 0.01*float64(i),
			1.5 + 0.02*float64(i), 3 + 0.03*float64(i)}
		if d := re.Decide(ivWith(i, cpis, current), mon, current); d != nil {
			current = d
		}
	}
	if re.Health() != HealthModel {
		t.Errorf("health = %v after sustained recovery, want model", re.Health())
	}
	if re.Promotions() < 2 {
		t.Errorf("promotions = %d, want >= 2", re.Promotions())
	}
}

func TestResilientSuspectDetection(t *testing.T) {
	mon := fakeMon{ways: 16, threads: 2}
	t.Run("zero instructions and non-finite CPI", func(t *testing.T) {
		re := NewResilientEngine()
		re.ensure(2)
		iv := sim.IntervalStats{Threads: []sim.ThreadIntervalStats{
			{Instructions: 0, ActiveCycles: 100, WaysAssigned: 8},
			{Instructions: 1000, ActiveCycles: 2000, WaysAssigned: 8},
		}}
		suspect, bad := re.assess(iv)
		if !suspect[0] || suspect[1] || !bad {
			t.Errorf("suspect = %v bad = %v", suspect, bad)
		}
	})
	t.Run("stuck counters", func(t *testing.T) {
		re := NewResilientEngine()
		current := []int{8, 8}
		iv := ivWith(0, []float64{2, 3}, current)
		re.Decide(iv, mon, current)
		repeat := ivWith(1, []float64{2, 3}, current)
		repeat.Threads[1].ActiveCycles++ // thread 1 moved, thread 0 stuck
		suspect, _ := re.assess(repeat)
		if !suspect[0] || suspect[1] {
			t.Errorf("suspect = %v, want exact repeat flagged only", suspect)
		}
	})
	t.Run("implausible jump", func(t *testing.T) {
		re := NewResilientEngine()
		current := []int{8, 8}
		re.Decide(ivWith(0, []float64{2, 3}, current), mon, current)
		jump := ivWith(1, []float64{2 * 10, 3.1}, current) // 10x the trusted CPI
		suspect, _ := re.assess(jump)
		if !suspect[0] || suspect[1] {
			t.Errorf("suspect = %v, want only the jumping thread", suspect)
		}
	})
}

func TestResilientKeepsPartitionWhenAllSamplesBad(t *testing.T) {
	mon := fakeMon{ways: 16, threads: 4}
	re := NewResilientEngine()
	current := []int{10, 2, 2, 2}
	// Two garbage intervals within the dwell window: no engine should run
	// and the partition must not move.
	for i := 0; i < 2; i++ {
		if d := re.Decide(garbageInterval(i, current), mon, current); d != nil {
			t.Errorf("interval %d: moved partition to %v on pure garbage", i, d)
		}
	}
	if re.Health() != HealthModel {
		t.Errorf("demoted before dwell elapsed: %v", re.Health())
	}
}

func TestCPIModelObserveRejectsNonFinite(t *testing.T) {
	m := NewCPIModel()
	m.Observe(4, math.NaN(), 0)
	m.Observe(5, math.Inf(1), 0)
	m.Observe(6, math.Inf(-1), 0)
	m.Observe(7, -2, 0)
	m.Observe(8, 0, 0)
	if m.Len() != 0 {
		t.Fatalf("model accepted %d invalid observations", m.Len())
	}
	m.Observe(4, 2.5, 0)
	if m.Len() != 1 {
		t.Fatalf("model rejected a valid observation")
	}
}

func TestHealthString(t *testing.T) {
	cases := map[Health]string{
		HealthModel:        "model",
		HealthProportional: "proportional",
		HealthStatic:       "static",
		Health(42):         "unknown",
	}
	for h, want := range cases {
		if got := h.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", h, got, want)
		}
	}
}

// A checkpoint can carry model points Observe would never have
// accepted. Restoring one used to succeed and leave a fit that failed
// on the next Decide, which then dereferenced the nil interpolant;
// the restore itself must refuse it.
func TestRestoreRefusesInvalidModelPoints(t *testing.T) {
	stamps := map[int]int{4: 2, 8: 3, 12: 4}
	valid := CPIModelState{Points: map[int]float64{4: 3, 8: 2.5, 12: 2}, Stamps: stamps}
	cases := []struct {
		name string
		st   CPIModelState
	}{
		{"NaN CPI", CPIModelState{Points: map[int]float64{4: 2, 8: math.NaN(), 12: 1.5}, Stamps: stamps}},
		{"+Inf CPI", CPIModelState{Points: map[int]float64{4: 2, 8: math.Inf(1), 12: 1.5}, Stamps: stamps}},
		{"zero CPI", CPIModelState{Points: map[int]float64{4: 2, 8: 0, 12: 1.5}, Stamps: stamps}},
		{"negative CPI", CPIModelState{Points: map[int]float64{4: 2, 8: -1, 12: 1.5}, Stamps: stamps}},
		{"negative ways", CPIModelState{Points: map[int]float64{-4: 2, 8: 1.5}, Stamps: map[int]int{-4: 1, 8: 2}}},
		{"point without stamp", CPIModelState{Points: map[int]float64{4: 2, 8: 1.5}, Stamps: map[int]int{4: 1}}},
		{"stamp without point", CPIModelState{Points: map[int]float64{4: 2}, Stamps: map[int]int{4: 1, 8: 2}}},
		{"different key sets", CPIModelState{Points: map[int]float64{4: 2, 8: 1.5}, Stamps: map[int]int{4: 1, 12: 2}}},
	}
	for _, tc := range cases {
		st := ResilientEngineState{Model: ModelEngineState{Interval: 5, Models: []CPIModelState{tc.st, valid}}}
		if err := NewResilientEngine().RestoreEngineState(st); err == nil {
			t.Errorf("%s: restore accepted %+v", tc.name, tc.st)
		}
	}

	// The same shape with valid points restores and decides.
	e := NewResilientEngine()
	st := ResilientEngineState{Model: ModelEngineState{Interval: 5, Models: []CPIModelState{valid, valid}}}
	if err := e.RestoreEngineState(st); err != nil {
		t.Fatal(err)
	}
	got := e.Decide(ivWith(5, []float64{3, 1}, []int{8, 8}), fakeMon{ways: 16, threads: 2}, []int{8, 8})
	if err := validAssignment(got, 16, 2); got != nil && err != nil {
		t.Fatal(err)
	}
	if ms := e.Model.Models()[0].ModelState(); len(ms.Points) != 3 || len(ms.Stamps) != 3 {
		t.Errorf("restored model state %+v", ms)
	}
}

// resilientAfter runs a fresh ResilientEngine through n clean 4-thread,
// 32-way intervals and returns it with the assignment in force.
func resilientAfter(n int) (*ResilientEngine, []int) {
	e := NewResilientEngine()
	mon := fakeMon{ways: 32, threads: 4}
	cur := cache.EqualSplit(32, 4)
	for i := 0; i < n; i++ {
		if got := e.Decide(ivWith(i, cleanCPIs(i), cur), mon, cur); got != nil {
			cur = got
		}
	}
	return e, cur
}

// cleanCPIs is the 4-thread CPI vector of clean interval i: every
// thread's CPI drifts, so no sample repeats the one before it.
func cleanCPIs(i int) []float64 {
	return []float64{
		2 + 0.01*float64(i),
		4 - 0.01*float64(i),
		1.5 + 0.02*float64(i),
		3 + 0.01*float64(i%7) + 0.001*float64(i),
	}
}

// decideValid runs k more clean 4-thread intervals through e, starting
// at interval from, and fails on any invalid assignment.
func decideValid(t *testing.T, e *ResilientEngine, cur []int, from, k int) {
	t.Helper()
	mon := fakeMon{ways: 32, threads: 4}
	for i := from; i < from+k; i++ {
		got := e.Decide(ivWith(i, cleanCPIs(i), cur), mon, cur)
		if got == nil {
			continue
		}
		if err := validAssignment(got, 32, 4); err != nil {
			t.Fatalf("interval %d: %v", i, err)
		}
		cur = got
	}
}

// A snapshot the engine could never have produced, one that would index
// out of range on the next Decide, is refused at restore.
func TestResilientRestoreRefusesInconsistentState(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(st *ResilientEngineState)
	}{
		{"window position past the end", func(st *ResilientEngineState) { st.Pos = window }},
		{"negative window position", func(st *ResilientEngineState) { st.Pos = -1 }},
		{"window overfilled", func(st *ResilientEngineState) { st.Filled = window + 1 }},
		{"negative fill", func(st *ResilientEngineState) { st.Filled = -1 }},
		{"short window", func(st *ResilientEngineState) { st.Ring = st.Ring[:window-1] }},
		{"health out of range", func(st *ResilientEngineState) { st.Health = HealthStatic + 1 }},
		{"models cut", func(st *ResilientEngineState) { st.Model.Models = st.Model.Models[:2] }},
		{"trusted samples cut", func(st *ResilientEngineState) { st.LastGood = st.LastGood[:2] }},
		{"trusted flags cut", func(st *ResilientEngineState) { st.HaveGood = st.HaveGood[:2] }},
		{"reported samples cut", func(st *ResilientEngineState) { st.LastReported = st.LastReported[:2] }},
	}
	for _, tc := range cases {
		e, _ := resilientAfter(10)
		st := e.EngineState()
		tc.mutate(&st)
		if err := NewResilientEngine().RestoreEngineState(st); err == nil {
			t.Errorf("%s: restore accepted the state", tc.name)
		}
	}
}

// The per-thread state a restore accepts never breaks a later Decide:
// a model that never ran has no points to restore, and a consistent
// snapshot for fewer threads starts its per-thread state afresh when a
// wider interval arrives.
func TestResilientRestoreAcceptsConsistentState(t *testing.T) {
	e, cur := resilientAfter(10)
	st := e.EngineState()
	st.Model.Models = nil
	r := NewResilientEngine()
	if err := r.RestoreEngineState(st); err != nil {
		t.Fatalf("restore without models: %v", err)
	}
	decideValid(t, r, cur, 10, 5)

	st = e.EngineState()
	st.LastReported, st.LastGood, st.HaveGood = st.LastReported[:2], st.LastGood[:2], st.HaveGood[:2]
	st.Model.Models = st.Model.Models[:2]
	r = NewResilientEngine()
	if err := r.RestoreEngineState(st); err != nil {
		t.Fatalf("restore of a 2-thread snapshot: %v", err)
	}
	decideValid(t, r, cur, 10, 5)
	if got := len(r.Model.Models()); got != 4 {
		t.Errorf("engine models %d threads after 4-thread intervals", got)
	}
}

// FuzzRestoreResilientEngine restores a state captured after ten
// decisions with its window position, fill, dwell counter and health
// set from the input and each per-thread slice truncated or extended.
// Either the restore refuses the state, or the next five 4-thread
// decisions neither panic nor return an invalid assignment.
func FuzzRestoreResilientEngine(f *testing.F) {
	// 10 decisions leave position 4, a full window, 10 intervals since
	// the last change, the model rung and 4 threads everywhere.
	f.Add([]byte{4, 6, 10, 0, 4, 4, 4, 4})
	f.Add([]byte{6, 6, 10, 0, 4, 4, 4, 4})
	f.Add([]byte{0, 0, 0, 2, 2, 2, 2, 2})
	f.Add([]byte{1, 3, 0, 1, 4, 4, 4, 0})
	f.Add([]byte{0, 9, 200, 0, 4, 2, 4, 4})
	f.Add([]byte{5, 5, 3, 0, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(int8(b))
		}
		e, cur := resilientAfter(10)
		st := e.EngineState()
		st.Pos, st.Filled, st.SinceChange, st.Health = next(), next(), next(), Health(next())
		st.LastReported = resize(st.LastReported, next())
		st.LastGood = resize(st.LastGood, next())
		st.HaveGood = resize(st.HaveGood, next())
		st.Model.Models = resize(st.Model.Models, next())
		r := NewResilientEngine()
		if err := r.RestoreEngineState(st); err != nil {
			return
		}
		decideValid(t, r, cur, 10, 5)
	})
}

// resize truncates s to n&7 elements or extends it with zero values.
func resize[T any](s []T, n int) []T {
	n &= 7
	if n <= len(s) {
		return s[:n]
	}
	return append(s, make([]T, n-len(s))...)
}
