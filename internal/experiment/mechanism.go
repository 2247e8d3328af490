package experiment

import (
	"fmt"

	"intracache/internal/cache"
	"intracache/internal/core"
	"intracache/internal/workload"
)

// This file is the mechanism-comparison harness: it sweeps partitioning
// geometries (ways / sets / cluster) × policies × benchmarks to answer
// the question the paper's Section V fixes by fiat — does the
// eviction-control way mechanism actually beat the cheaper-to-build
// alternatives (set-index ranges, clustered way masks) once the same
// allocation policies run on top of all three?

// WithMechanism returns a copy of the config running the given
// partitioning geometry.
func (c Config) WithMechanism(m cache.Mechanism) Config {
	c.Mechanism = m
	return c
}

// MechanismCell is one (mechanism, policy, benchmark) outcome of a
// mechanism sweep: the candidate policy's improvement over the shared
// baseline on fixed work, under the given partitioning geometry.
type MechanismCell struct {
	Mechanism      cache.Mechanism
	Policy         core.Policy
	Benchmark      string
	ImprovementPct float64
	BaselineCycles uint64
	DynamicCycles  uint64
	// Attempts counts how many tries the cell took (0 when the result
	// was read back from a journal); Resumed marks journal read-back.
	Attempts int
	Resumed  bool
	Err      error
}

// MechanismSweepSpec configures a mechanism sweep. Nil slice fields get
// the canonical defaults: all nine benchmarks, every mechanism, and the
// partition-capable policy ladder {static-equal, cpi-proportional,
// model-based, throughput-ucp}.
type MechanismSweepSpec struct {
	Cfg        Config
	Benchmarks []string
	Policies   []core.Policy
	Mechanisms []cache.Mechanism
	// Baseline is the common reference policy (default PolicyShared;
	// its cells run with the way default since an unpartitioned cache
	// has no mechanism).
	Baseline core.Policy
	Opts     SweepOptions
}

// MechanismSweepCells lays the mechanisms × policies × benchmarks
// matrix out as one flat cell list — benchmark-major, then policy,
// then mechanism, each cell labelled by its mechanism and keyed
// "cell/<benchmark>/<policy>/<mechanism>" — and returns the
// fingerprint its one journal carries.
func MechanismSweepCells(spec MechanismSweepSpec) (string, []SweepCell, error) {
	benchmarks := spec.Benchmarks
	if benchmarks == nil {
		benchmarks = workload.Names()
	}
	policies := spec.Policies
	if policies == nil {
		policies = []core.Policy{
			core.PolicyStaticEqual, core.PolicyCPIProportional,
			core.PolicyModelBased, core.PolicyThroughputUCP,
		}
	}
	mechanisms := spec.Mechanisms
	if mechanisms == nil {
		mechanisms = cache.Mechanisms()
	}
	if len(benchmarks) == 0 || len(policies) == 0 || len(mechanisms) == 0 {
		return "", nil, fmt.Errorf("experiment: empty mechanism sweep")
	}
	var cells []SweepCell
	parts := []string{"mechanism1"}
	for _, b := range benchmarks {
		for _, p := range policies {
			for _, m := range mechanisms {
				c := SweepCell{
					Key:       fmt.Sprintf("cell/%s/%s/%s", b, p, m),
					Label:     m.String(),
					Benchmark: b,
					Baseline:  spec.Baseline,
					Candidate: p,
					Cfg:       spec.Cfg.WithMechanism(m),
				}
				cells = append(cells, c)
				parts = append(parts, c.Key, c.Baseline.String(), c.Cfg.Fingerprint())
			}
		}
	}
	return hashFingerprint(parts...), cells, nil
}

// MechanismResults pairs each mechanism-sweep cell with its result.
func MechanismResults(cells []SweepCell, results []SweepResult) []MechanismCell {
	var out []MechanismCell
	for i, r := range results {
		out = append(out, MechanismCell{
			Mechanism:      cells[i].Cfg.Mechanism,
			Policy:         cells[i].Candidate,
			Benchmark:      cells[i].Benchmark,
			ImprovementPct: r.ImprovementPct,
			BaselineCycles: r.BaselineCycles,
			DynamicCycles:  r.DynamicCycles,
			Attempts:       r.Attempts,
			Resumed:        r.Resumed,
			Err:            r.Err,
		})
	}
	return out
}

// MechanismMatrix summarises a sweep as mean improvement over the
// shared baseline: one row per policy, one column per mechanism,
// averaged across benchmarks. Errored cells are skipped.
func MechanismMatrix(cells []MechanismCell) (rowLabels, colLabels []string, values [][]float64) {
	var policies, mechs []string
	seenP := map[string]int{}
	seenM := map[string]int{}
	for _, c := range cells {
		p := c.Policy.String()
		if _, ok := seenP[p]; !ok {
			seenP[p] = len(policies)
			policies = append(policies, p)
		}
		m := c.Mechanism.String()
		if _, ok := seenM[m]; !ok {
			seenM[m] = len(mechs)
			mechs = append(mechs, m)
		}
	}
	sums := make([][]float64, len(policies))
	counts := make([][]int, len(policies))
	for i := range sums {
		sums[i] = make([]float64, len(mechs))
		counts[i] = make([]int, len(mechs))
	}
	for _, c := range cells {
		if c.Err != nil {
			continue
		}
		i, j := seenP[c.Policy.String()], seenM[c.Mechanism.String()]
		sums[i][j] += c.ImprovementPct
		counts[i][j]++
	}
	for i := range sums {
		for j := range sums[i] {
			if counts[i][j] > 0 {
				sums[i][j] /= float64(counts[i][j])
			}
		}
	}
	return policies, mechs, sums
}

// MechanismBestFor returns, per benchmark, the mechanism with the
// highest improvement under the given policy — the per-workload winner
// table the mechanism comparison report prints alongside the means.
func MechanismBestFor(cells []MechanismCell, pol core.Policy) map[string]cache.Mechanism {
	best := map[string]cache.Mechanism{}
	bestVal := map[string]float64{}
	for _, c := range cells {
		if c.Err != nil || c.Policy != pol {
			continue
		}
		if v, ok := bestVal[c.Benchmark]; !ok || c.ImprovementPct > v {
			bestVal[c.Benchmark] = c.ImprovementPct
			best[c.Benchmark] = c.Mechanism
		}
	}
	return best
}
