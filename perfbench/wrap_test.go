package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"intracache/internal/core"
	"intracache/internal/experiment"
	"intracache/internal/workload"
)

// smallConfig is a figures-shaped configuration small enough for a
// unit test.
func smallConfig() experiment.Config {
	cfg := figuresConfig(7)
	cfg.SectionInstructions = 8_000
	cfg.IntervalInstructions = 16_000
	cfg.Sections = 3
	return cfg
}

// TestWrappedRunMatchesUnwrapped pins that the timing wrappers leave
// every simulated statistic unchanged, for each policy family the
// workloads run (no controller, model-based with health, UCP with
// UMON), and that the traced run also matches experiment.RunOne.
func TestWrappedRunMatchesUnwrapped(t *testing.T) {
	cfg := smallConfig()
	prof, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []core.Policy{core.PolicyShared, core.PolicyPrivate,
		core.PolicyModelBased, core.PolicyThroughputUCP} {
		s, err := newRun(cfg, prof, pol, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		bare := s.RunSections(cfg.Sections)
		st, err := tracedRun(cfg, prof, pol)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare, st.res) {
			t.Errorf("%v: wrapped result differs from unwrapped", pol)
		}
		ref, err := experiment.RunOne(cfg, prof, pol, experiment.BySections)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref.Result, st.res) {
			t.Errorf("%v: assembled run differs from experiment.RunOne", pol)
		}
		if st.instructions != st.res.TotalInstr {
			t.Errorf("%v: trace wrapper counted %d instructions, simulator retired %d",
				pol, st.instructions, st.res.TotalInstr)
		}
		if st.genCalls == 0 {
			t.Errorf("%v: NextRun never called: the wrapper lost the batched fast path", pol)
		}
		if pol.IsDynamic() && len(st.decide) == 0 {
			t.Errorf("%v: controller wrapper saw no intervals", pol)
		}
	}
}

// TestTracedSuiteMatchesFigureFunctions pins that the assembled figure
// list reproduces experiment.Fig20VsShared exactly.
func TestTracedSuiteMatchesFigureFunctions(t *testing.T) {
	cfg := smallConfig()
	want, err := experiment.Fig20VsShared(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := figureList(cfg)[1]
	for i, prof := range workload.Profiles() {
		base, err := tracedRun(f.cfg, prof, f.baseline)
		if err != nil {
			t.Fatal(err)
		}
		cand, err := tracedRun(f.cfg, prof, f.candidate)
		if err != nil {
			t.Fatal(err)
		}
		if got := comparison(prof.Name, base, cand); got != want[i] {
			t.Errorf("%s: traced comparison %+v, experiment %+v", prof.Name, got, want[i])
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps BENCHMARK.json and the
// metric tables the program prints in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
}
