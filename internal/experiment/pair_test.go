package experiment

// Differentials for lockstep pairs (runPair, sim.RunPair): each run of
// a pair ends exactly where it ends alone. TestPipelineRunMatchesSynchronous
// and TestSweepPipelinedMatchesSynchronous keep their names as stable
// test IDs from the shared segment cache the pairs replaced.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"intracache/internal/core"
	"intracache/internal/sim"
	"intracache/internal/workload"
)

// pairDiff runs prof under policies a and b once as a lockstep pair and
// once alone each, requiring equal Results and equal final simulator
// states (L1s, L2, monitors and sources included). It returns the
// solo Results.
func pairDiff(t *testing.T, cfg Config, prof workload.Profile, a, b core.Policy) [2]Run {
	t.Helper()
	ctx := context.Background()
	var solo [2]Run
	var soloRuns, pairRuns [2]simRun
	for i, pol := range []core.Policy{a, b} {
		r, rts, err := cfg.policyRun(BySections, prof, pol)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.run(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		solo[i], soloRuns[i] = r.output(prof.Name, pol, res, rts), r
		if pairRuns[i], _, err = cfg.policyRun(BySections, prof, pol); err != nil {
			t.Fatal(err)
		}
	}
	resA, resB, err := sim.RunPair(ctx, pairRuns[0].Simulator, pairRuns[1].Simulator, pairRuns[0].n)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range []sim.Result{resA, resB} {
		if !reflect.DeepEqual(solo[i].Result, res) {
			t.Errorf("%s/%v: paired Result diverged from the solo run", prof.Name, solo[i].Policy)
		}
		want, err := soloRuns[i].State()
		if err != nil {
			t.Fatal(err)
		}
		got, err := pairRuns[i].State()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s/%v: paired final state diverged from the solo run", prof.Name, solo[i].Policy)
		}
	}
	return solo
}

// TestPipelineRunMatchesSynchronous: the two Runs of runPair are the
// Runs RunOne returns for each policy, and Compare reports the cycles
// of the two solo runs.
func TestPipelineRunMatchesSynchronous(t *testing.T) {
	cfg := QuickConfig()
	cfg.Sections = 6
	prof, err := workload.ByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	base, cand, err := runPair(context.Background(), cfg, prof, core.PolicyShared, core.PolicyModelBased)
	if err != nil {
		t.Fatal(err)
	}
	for _, paired := range []Run{base, cand} {
		solo, err := RunOne(cfg, prof, paired.Policy, BySections)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(solo.Result, paired.Result) || solo.Benchmark != paired.Benchmark {
			t.Errorf("%v: paired Run diverged from RunOne", paired.Policy)
		}
	}
	c, err := Compare(cfg, prof, core.PolicyShared, core.PolicyModelBased)
	if err != nil {
		t.Fatal(err)
	}
	if want := newComparison("cg", base.Result.WallCycles, cand.Result.WallCycles); c != want {
		t.Errorf("Compare = %+v, want %+v", c, want)
	}
}

// TestSweepPipelinedMatchesSynchronous: a sweep over L2 geometries,
// whose cells each run as a pair on parallel workers, returns the rows
// a serial loop of solo runs computes.
func TestSweepPipelinedMatchesSynchronous(t *testing.T) {
	base := QuickConfig()
	base.Sections = 5
	var points []SweepPoint
	for _, l2 := range []int{128, 256} {
		cfg := base
		cfg.L2KB = l2
		points = append(points, SweepPoint{Label: fmt.Sprintf("l2-%d", l2), Cfg: cfg})
	}
	got, err := SweepJournaled(context.Background(), points, "cg",
		core.PolicyShared, core.PolicyModelBased, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := workload.ByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		b, err := RunOne(p.Cfg, prof, core.PolicyShared, BySections)
		if err != nil {
			t.Fatal(err)
		}
		c, err := RunOne(p.Cfg, prof, core.PolicyModelBased, BySections)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Err != nil || got[i].BaselineCycles != b.Result.WallCycles ||
			got[i].DynamicCycles != c.Result.WallCycles {
			t.Errorf("%s: sweep row %+v, solo runs %d/%d cycles", p.Label, got[i],
				b.Result.WallCycles, c.Result.WallCycles)
		}
	}
}

// TestPairMatchesSoloFiguresScale runs the pairs Figs. 19–22 run, for
// all nine benchmarks at the figures' reduced scale: 4 threads against
// each 4-thread baseline and 8 threads against the private cache. Every
// sine-phase thread's phase changes at interval 1, in the first
// section, so those threads are unlinked before the pair starts.
func TestPairMatchesSoloFiguresScale(t *testing.T) {
	c4 := goldenConfig()
	c8 := c4.WithThreads(8)
	c8.L2KB *= 2
	for _, prof := range workload.Profiles() {
		for _, pol := range []core.Policy{core.PolicyPrivate, core.PolicyShared, core.PolicyThroughputUCP} {
			pairDiff(t, c4, prof, pol, core.PolicyModelBased)
		}
		pairDiff(t, c8, prof, core.PolicyPrivate, core.PolicyModelBased)
	}
}

// TestComparePairCancelled: a cancelled comparison returns ctx's error,
// whether the context is cancelled before it starts or while its pair
// runs.
func TestComparePairCancelled(t *testing.T) {
	prof, err := workload.ByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	cfg := QuickConfig()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompareCtx(ctx, cfg, prof, core.PolicyShared, core.PolicyModelBased); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled comparison returned %v, want context.Canceled", err)
	}

	cfg.Sections = 1 << 20
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := CompareCtx(ctx, cfg, prof, core.PolicyShared, core.PolicyModelBased)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled comparison returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled comparison did not return")
	}
}
