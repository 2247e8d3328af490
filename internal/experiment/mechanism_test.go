package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"intracache/internal/cache"
	"intracache/internal/core"
)

// TestMechanismFingerprintCompat pins the journal-compatibility rule:
// a way-partitioned config fingerprints exactly as before mechanisms
// existed (no "mech=" stamp), while sets/cluster configs are stamped —
// so old journals resume and cross-mechanism state mixing is refused.
func TestMechanismFingerprintCompat(t *testing.T) {
	def := DefaultConfig()
	if fp := def.Fingerprint(); strings.Contains(fp, "mech=") {
		t.Errorf("default config fingerprint carries a mechanism stamp: %s", fp)
	}
	sets := def.WithMechanism(cache.MechSets)
	if fp := sets.Fingerprint(); !strings.Contains(fp, "mech=sets/0/0") {
		t.Errorf("sets config fingerprint missing stamp: %s", fp)
	}
	clus := def.WithMechanism(cache.MechCluster)
	clus.Clusters = 16
	if fp := clus.Fingerprint(); !strings.Contains(fp, "mech=cluster/0/16") {
		t.Errorf("cluster config fingerprint missing geometry: %s", fp)
	}
	if sets.Fingerprint() == clus.Fingerprint() {
		t.Error("different mechanisms share a fingerprint")
	}
}

// TestMechanismCheckpointResumeBitIdentical extends the checkpoint
// layer's binding invariant to the new geometries: a model-based run on
// a set-partitioned or clustered L2, killed at an interval boundary and
// resumed by a fresh process, must produce a byte-identical sim.Result
// to the straight-through run.
func TestMechanismCheckpointResumeBitIdentical(t *testing.T) {
	for _, mech := range []cache.Mechanism{cache.MechSets, cache.MechCluster} {
		mech := mech
		t.Run(mech.String(), func(t *testing.T) {
			cfg := ckptTestConfig().WithMechanism(mech)
			const bench = "art"
			pol := core.PolicyModelBased

			straight, err := CheckpointedRun(context.Background(), cfg, bench, pol,
				ByIntervals, CheckpointSpec{}, nil)
			if err != nil {
				t.Fatalf("straight run: %v", err)
			}
			want, err := json.Marshal(straight.Result)
			if err != nil {
				t.Fatal(err)
			}

			stopErr := errors.New("simulated kill")
			for _, k := range []int{2, 4} {
				path := filepath.Join(t.TempDir(), fmt.Sprintf("run-%d.ickp", k))
				stopAt := k
				hook := func(done int) error {
					if done == stopAt {
						return stopErr
					}
					return nil
				}
				if _, err := CheckpointedRun(context.Background(), cfg, bench, pol,
					ByIntervals, CheckpointSpec{Path: path}, hook); !errors.Is(err, stopErr) {
					t.Fatalf("interrupted run returned %v, want the stop error", err)
				}
				resumed, err := CheckpointedRun(context.Background(), cfg, bench, pol,
					ByIntervals, CheckpointSpec{Path: path, Resume: true}, nil)
				if err != nil {
					t.Fatalf("resumed run: %v", err)
				}
				got, err := json.Marshal(resumed.Result)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: resume after interval %d diverges from the straight-through run", mech, k)
				}
			}
		})
	}
}

// TestMechanismCheckpointRefusesCrossMechanism: a checkpoint written
// under one geometry must not resume under another (the fingerprint
// stamp is what enforces it).
func TestMechanismCheckpointRefusesCrossMechanism(t *testing.T) {
	cfg := ckptTestConfig().WithMechanism(cache.MechSets)
	path := filepath.Join(t.TempDir(), "run.ickp")
	if _, err := CheckpointedRun(context.Background(), cfg, "cg", core.PolicyModelBased,
		ByIntervals, CheckpointSpec{Path: path}, nil); err != nil {
		t.Fatalf("seeding run: %v", err)
	}
	for _, other := range []cache.Mechanism{cache.MechWays, cache.MechCluster} {
		if _, err := CheckpointedRun(context.Background(), cfg.WithMechanism(other), "cg",
			core.PolicyModelBased, ByIntervals, CheckpointSpec{Path: path, Resume: true}, nil); err == nil {
			t.Errorf("resume under %s accepted a checkpoint written under sets", other)
		}
	}
}

// mechSweepConfig is a small config for sweep tests.
func mechSweepConfig() Config {
	cfg := QuickConfig()
	cfg.Sections = 8
	return cfg
}

// runMechanismSweep runs the mechanism matrix in-process, as cmd/sweep
// does: one cell list through RunSweepCells.
func runMechanismSweep(spec MechanismSweepSpec) ([]MechanismCell, error) {
	fp, cells, err := MechanismSweepCells(spec)
	if err != nil {
		return nil, err
	}
	results, err := RunSweepCells(context.Background(), fp, cells, spec.Opts)
	return MechanismResults(cells, results), err
}

// TestMechanismSweepJournaledResume runs a one-benchmark mechanism
// sweep twice against the same journal: the second pass must read
// every cell back (Resumed) with identical numbers, and the whole
// matrix must live in that one journal.
func TestMechanismSweepJournaledResume(t *testing.T) {
	dir := t.TempDir()
	spec := MechanismSweepSpec{
		Cfg:        mechSweepConfig(),
		Benchmarks: []string{"cg"},
		Policies:   []core.Policy{core.PolicyStaticEqual, core.PolicyModelBased},
		Opts:       SweepOptions{JournalPath: filepath.Join(dir, "mechanism.journal")},
	}
	first, err := runMechanismSweep(spec)
	if err != nil {
		t.Fatalf("first pass: %v", err)
	}
	if len(first) != 2*len(cache.Mechanisms()) {
		t.Fatalf("got %d cells, want %d", len(first), 2*len(cache.Mechanisms()))
	}
	dynamics := map[uint64]bool{}
	for _, c := range first {
		if c.Err != nil {
			t.Fatalf("cell %s/%s: %v", c.Benchmark, c.Mechanism, c.Err)
		}
		if c.BaselineCycles == 0 || c.DynamicCycles == 0 {
			t.Fatalf("cell %s/%s ran nothing: %+v", c.Benchmark, c.Mechanism, c)
		}
		dynamics[c.DynamicCycles] = true
	}
	// The three geometries genuinely change cache behaviour; if every
	// mechanism produced identical cycles the plumbing collapsed to one.
	if len(dynamics) < 2 {
		t.Errorf("all mechanisms produced identical candidate cycles: %v", dynamics)
	}

	second, err := runMechanismSweep(spec)
	if err != nil {
		t.Fatalf("resume pass: %v", err)
	}
	for i, c := range second {
		if !c.Resumed {
			t.Errorf("cell %d (%s) recomputed instead of resuming", i, c.Mechanism)
		}
		if c.ImprovementPct != first[i].ImprovementPct ||
			c.BaselineCycles != first[i].BaselineCycles ||
			c.DynamicCycles != first[i].DynamicCycles {
			t.Errorf("cell %d (%s) resumed different numbers", i, c.Mechanism)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "mechanism.journal" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("journal dir holds %v, want only mechanism.journal", names)
	}
}

// TestMechanismSweepCells pins the flat matrix layout: benchmark-major,
// then policy, then mechanism, each cell labelled by its mechanism and
// configured for it, with keys unique across the one journal. The
// -json output order of `sweep -kind mechanism` depends on it.
func TestMechanismSweepCells(t *testing.T) {
	spec := MechanismSweepSpec{
		Cfg:        mechSweepConfig(),
		Benchmarks: []string{"cg", "swim"},
		Policies:   []core.Policy{core.PolicyStaticEqual, core.PolicyModelBased},
	}
	fp, cells, err := MechanismSweepCells(spec)
	if err != nil {
		t.Fatal(err)
	}
	mechs := cache.Mechanisms()
	if len(cells) != 2*2*len(mechs) {
		t.Fatalf("got %d cells", len(cells))
	}
	keys := map[string]bool{}
	i := 0
	for _, b := range spec.Benchmarks {
		for _, p := range spec.Policies {
			for _, m := range mechs {
				c := cells[i]
				if c.Benchmark != b || c.Candidate != p || c.Cfg.Mechanism != m || c.Label != m.String() {
					t.Errorf("cell %d = %s/%s/%s labelled %q, want %s/%s/%s",
						i, c.Benchmark, c.Candidate, c.Cfg.Mechanism, c.Label, b, p, m)
				}
				if c.Baseline != core.PolicyShared {
					t.Errorf("cell %d baseline %s, want shared", i, c.Baseline)
				}
				keys[c.Key] = true
				i++
			}
		}
	}
	if len(keys) != len(cells) {
		t.Errorf("%d distinct keys for %d cells", len(keys), len(cells))
	}
	spec.Policies = spec.Policies[:1]
	if other, _, _ := MechanismSweepCells(spec); other == fp {
		t.Error("narrowing the policy set left the fingerprint unchanged")
	}
}

// TestMechanismMatrix checks the report aggregation on synthetic cells.
func TestMechanismMatrix(t *testing.T) {
	cells := []MechanismCell{
		{Mechanism: cache.MechWays, Policy: core.PolicyModelBased, Benchmark: "cg", ImprovementPct: 10},
		{Mechanism: cache.MechWays, Policy: core.PolicyModelBased, Benchmark: "art", ImprovementPct: 20},
		{Mechanism: cache.MechSets, Policy: core.PolicyModelBased, Benchmark: "cg", ImprovementPct: 5},
		{Mechanism: cache.MechSets, Policy: core.PolicyModelBased, Benchmark: "art", Err: errors.New("x")},
		{Mechanism: cache.MechCluster, Policy: core.PolicyStaticEqual, Benchmark: "cg", ImprovementPct: -3},
	}
	rows, cols, vals := MechanismMatrix(cells)
	if len(rows) != 2 || len(cols) != 3 {
		t.Fatalf("matrix shape %v × %v", rows, cols)
	}
	if vals[0][0] != 15 { // model-based × ways: mean(10, 20)
		t.Errorf("model-based/ways = %v, want 15", vals[0][0])
	}
	if vals[0][1] != 5 { // errored art cell skipped
		t.Errorf("model-based/sets = %v, want 5", vals[0][1])
	}
	best := MechanismBestFor(cells, core.PolicyModelBased)
	if best["cg"] != cache.MechWays || best["art"] != cache.MechWays {
		t.Errorf("best-for table wrong: %v", best)
	}
}
