package experiment

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"intracache/internal/core"
	"intracache/internal/sim"
	"intracache/internal/trace"
	"intracache/internal/workload"
)

// The figure drivers fan their independent runs out over GOMAXPROCS
// workers. The tests below pin each driver against a serial reference
// loop written out here, so any scheduling dependence shows up as a
// difference.

// serialCompareAll is the reference for CompareAll: Compare on each
// benchmark in turn.
func serialCompareAll(t *testing.T, cfg Config, baseline, candidate core.Policy) []Comparison {
	t.Helper()
	var out []Comparison
	for _, prof := range workload.Profiles() {
		c, err := Compare(cfg, prof, baseline, candidate)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c)
	}
	return out
}

func TestCompareAllMatchesSerialReference(t *testing.T) {
	cfg := QuickConfig()
	cfg.Sections = 6
	for _, pair := range [][2]core.Policy{
		{core.PolicyShared, core.PolicyStaticEqual},
		{core.PolicyThroughputUCP, core.PolicyModelBased},
	} {
		got, err := CompareAll(cfg, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if want := serialCompareAll(t, cfg, pair[0], pair[1]); !reflect.DeepEqual(got, want) {
			t.Errorf("%v vs %v:\n got %+v\nwant %+v", pair[0], pair[1], got, want)
		}
	}
}

func TestFig22EightCoreMatchesSerialReference(t *testing.T) {
	cfg := QuickConfig()
	cfg.Sections = 3
	got, err := Fig22EightCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c8 := cfg.WithThreads(8)
	c8.L2KB *= 2
	want := EightCoreResult{
		VsPrivate: serialCompareAll(t, c8, core.PolicyPrivate, core.PolicyModelBased),
		VsShared:  serialCompareAll(t, c8, core.PolicyShared, core.PolicyModelBased),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Fig22EightCore differs from two serial loops:\n got %+v\nwant %+v", got, want)
	}
}

func TestCharacteriseMatchesSerialReference(t *testing.T) {
	cfg := QuickConfig()
	cfg.Intervals = 4
	got, err := characterise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	profiles := workload.Profiles()
	if len(got) != len(profiles) {
		t.Fatalf("runs = %d, want %d", len(got), len(profiles))
	}
	for i, prof := range profiles {
		want, err := RunOne(cfg, prof, core.PolicyShared, ByIntervals)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("run %d (%s) differs from the serial reference", i, prof.Name)
		}
	}
}

func TestFig10WaySensitivityMatchesSerialReference(t *testing.T) {
	cfg := QuickConfig()
	cfg.Intervals = 4
	got, err := Fig10WaySensitivity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	// The static assignments of the default 4-thread, 64-way L2: the
	// equal-16 baseline, then each thread doubled to 32 ways with the
	// other 32 spread over its siblings.
	assignments := [][]int{
		{16, 16, 16, 16},
		{32, 11, 11, 10},
		{11, 32, 11, 10},
		{11, 11, 32, 10},
		{11, 11, 10, 32},
	}
	cpis := make([][]float64, len(assignments))
	for i, targets := range assignments {
		gens, err := prof.Generators(cfg.NumThreads, cfg.LineBytes, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(cfg.simParams(core.PolicyStaticEqual), trace.Sources(gens),
			&fixedTargets{targets: targets}, prof.PhaseFunc(cfg.NumThreads))
		if err != nil {
			t.Fatal(err)
		}
		res := s.RunIntervals(cfg.Intervals)
		for th := range targets {
			active := float64(res.ThreadCycles[th] - res.ThreadStall[th])
			cpis[i] = append(cpis[i], active/float64(res.ThreadInstr[th]))
		}
	}
	if len(got) != cfg.NumThreads {
		t.Fatalf("threads = %d", len(got))
	}
	for th, ws := range got {
		want := WaySensitivity{Thread: th, CPI16Ways: cpis[0][th], CPI32Ways: cpis[1+th][th]}
		want.DropPct = 100 * (want.CPI16Ways - want.CPI32Ways) / want.CPI16Ways
		if ws != want {
			t.Errorf("thread %d: got %+v, want %+v", th, ws, want)
		}
	}
}

// TestCompareAllInvalidConfigNamesFirstBenchmark: a config every run
// rejects fails each fanned-out driver with an error (not a recovered
// panic) that names the first benchmark in profile order.
func TestCompareAllInvalidConfigNamesFirstBenchmark(t *testing.T) {
	bad := QuickConfig()
	bad.Sections = 2
	bad.L2KB = 7 // invalid geometry
	first := workload.Names()[0]
	_, errAll := CompareAll(bad, core.PolicyShared, core.PolicyModelBased)
	_, err22 := Fig22EightCore(bad)
	_, errChar := characterise(bad)
	for _, c := range []struct {
		name, prefix string
		err          error
	}{
		{"CompareAll", "experiment: " + first + ": ", errAll},
		{"Fig22EightCore", "experiment: " + first + ": ", err22},
		{"characterise", "characterise " + first + ": ", errChar},
	} {
		if c.err == nil {
			t.Errorf("%s accepted an invalid config", c.name)
			continue
		}
		if !strings.HasPrefix(c.err.Error(), c.prefix) || strings.Contains(c.err.Error(), "panicked") {
			t.Errorf("%s error = %q, want prefix %q and no panic", c.name, c.err, c.prefix)
		}
	}
}

func TestSweep(t *testing.T) {
	base := QuickConfig()
	base.Sections = 5
	var points []SweepPoint
	for _, l2 := range []int{128, 256} {
		cfg := base
		cfg.L2KB = l2
		points = append(points, SweepPoint{Label: "l2-" + itoaTest(l2), Cfg: cfg})
	}
	out, err := Sweep(points, "cg", core.PolicyShared, core.PolicyModelBased, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("results = %d", len(out))
	}
	for i, r := range out {
		if r.Label != points[i].Label {
			t.Errorf("result %d label %q, want %q", i, r.Label, points[i].Label)
		}
		if r.BaselineCycles == 0 || r.DynamicCycles == 0 {
			t.Errorf("result %d has zero cycles: %+v", i, r)
		}
	}
}

func TestSweepUnknownBenchmark(t *testing.T) {
	if _, err := Sweep(nil, "nope", core.PolicyShared, core.PolicyModelBased, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	bad := QuickConfig()
	bad.L2KB = 7 // invalid geometry
	_, err := Sweep([]SweepPoint{{Label: "bad", Cfg: bad}}, "cg",
		core.PolicyShared, core.PolicyModelBased, 1)
	if err == nil {
		t.Error("invalid sweep config accepted")
	}
}

func TestForEachIndexCoversAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var mask [37]int32
		forEachIndex(len(mask), workers, func(i int) error {
			atomic.AddInt32(&mask[i], 1)
			return nil
		})
		for i, v := range mask {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
	// n = 0 is a no-op.
	forEachIndex(0, 4, func(int) error { t.Fatal("called for n=0"); return nil })
}

func TestForEachIndexRecoversPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		errs := forEachIndex(5, workers, func(i int) error {
			if i == 2 || i == 4 {
				panic("boom " + itoaTest(i))
			}
			return nil
		})
		for i, err := range errs {
			if i == 2 || i == 4 {
				if err == nil || !strings.Contains(err.Error(), "panicked") {
					t.Errorf("workers=%d: index %d error = %v, want panic error", workers, i, err)
				}
			} else if err != nil {
				t.Errorf("workers=%d: index %d unexpected error %v", workers, i, err)
			}
		}
	}
}

// panicEngine is a partition-engine stub whose Decide panics, modelling
// a buggy policy inside a parallel sweep.
type panicEngine struct{}

func (panicEngine) Decide(sim.IntervalStats, sim.Monitors, []int) []int { panic("policy stub panic") }
func (panicEngine) Name() string                                        { return "panic-stub" }

func TestParallelSweepSurvivesPanickingPolicy(t *testing.T) {
	cfg := QuickConfig()
	cfg.Sections = 3
	profiles := workload.Profiles()[:3]
	errs := forEachIndex(len(profiles), 2, func(i int) error {
		if i == 1 {
			_, err := RunWithEngine(cfg, profiles[i], panicEngine{}, BySections)
			return err
		}
		_, err := RunOne(cfg, profiles[i], core.PolicyStaticEqual, BySections)
		return err
	})
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "panicked") {
		t.Errorf("panicking policy error = %v, want recovered panic", errs[1])
	}
	if errs[0] != nil || errs[2] != nil {
		t.Errorf("healthy cells errored: %v / %v", errs[0], errs[2])
	}
}

func TestSweepReturnsPartialResults(t *testing.T) {
	good := QuickConfig()
	good.Sections = 4
	bad := good
	bad.L2KB = 7 // invalid geometry
	points := []SweepPoint{
		{Label: "bad", Cfg: bad},
		{Label: "good", Cfg: good},
	}
	out, err := Sweep(points, "cg", core.PolicyShared, core.PolicyStaticEqual, 2)
	if err != nil {
		t.Fatalf("mixed sweep returned top-level error: %v", err)
	}
	if out[0].Err == nil {
		t.Error("bad cell has no error")
	}
	if out[1].Err != nil || out[1].BaselineCycles == 0 {
		t.Errorf("good cell broken: %+v", out[1])
	}
}

func itoaTest(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
