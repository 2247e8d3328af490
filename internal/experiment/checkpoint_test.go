package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"intracache/internal/core"
	"intracache/internal/fault"
)

// ckptTestConfig is a short faulted run under the model-based policy:
// it exercises every stateful subsystem a checkpoint must carry —
// caches, UMON, DRAM, generator RNG streams, the ResilientEngine's
// health rung and hysteresis window, and the fault injector's RNG and
// delay queue.
func ckptTestConfig() Config {
	cfg := QuickConfig()
	cfg.Intervals = 6
	cfg.Sections = 8
	cfg.Fault = &fault.Plan{
		Seed: 1, CPINoise: 0.5, DropRate: 0.2, StuckRate: 0.1, DecisionDelay: 2,
	}
	return cfg
}

// TestCheckpointResumeBitIdentical pins the layer's binding invariant:
// a run stopped and checkpointed at ANY interval boundary, then resumed
// from the file by a fresh process (here: fresh simulator), produces a
// byte-identical sim.Result — including the ControllerHealth rung — to
// the same run executed straight through.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	cfg := ckptTestConfig()
	const bench = "cg"
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
	for k := 1; k < cfg.Intervals; k++ {
		k := k
		t.Run(fmt.Sprintf("kill-at-interval-%d", k), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ickp")
			hook := func(done int) error {
				if done == k {
					return stopErr
				}
				return nil
			}
			_, err := CheckpointedRun(context.Background(), cfg, bench, pol,
				ByIntervals, CheckpointSpec{Path: path}, hook)
			if !errors.Is(err, stopErr) {
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
				t.Errorf("resume after interval %d diverges from the straight-through run", k)
			}
			if resumed.Result.ControllerHealth != straight.Result.ControllerHealth {
				t.Errorf("resume after interval %d: health %q, want %q",
					k, resumed.Result.ControllerHealth, straight.Result.ControllerHealth)
			}
		})
	}
}

// TestCheckpointResumeSections is the same invariant on the fixed-work
// (BySections) clock, where the resume arithmetic is relative.
func TestCheckpointResumeSections(t *testing.T) {
	cfg := ckptTestConfig()
	const bench = "swim"
	pol := core.PolicyModelBased

	straight, err := CheckpointedRun(context.Background(), cfg, bench, pol,
		BySections, CheckpointSpec{}, nil)
	if err != nil {
		t.Fatalf("straight run: %v", err)
	}
	want, err := json.Marshal(straight.Result)
	if err != nil {
		t.Fatal(err)
	}

	stopErr := errors.New("simulated kill")
	// The fixed work completes a workload-dependent number of intervals;
	// kill at every boundary that is guaranteed to occur mid-run.
	maxK := len(straight.Result.Intervals) - 1
	if maxK < 1 {
		t.Fatalf("straight run completed only %d intervals", len(straight.Result.Intervals))
	}
	for k := 1; k <= maxK; k++ {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("run-%d.ickp", k))
		stopAt := k
		hook := func(done int) error {
			if done == stopAt {
				return stopErr
			}
			return nil
		}
		if _, err := CheckpointedRun(context.Background(), cfg, bench, pol,
			BySections, CheckpointSpec{Path: path}, hook); !errors.Is(err, stopErr) {
			t.Fatalf("interrupted run returned %v, want the stop error", err)
		}
		resumed, err := CheckpointedRun(context.Background(), cfg, bench, pol,
			BySections, CheckpointSpec{Path: path, Resume: true}, nil)
		if err != nil {
			t.Fatalf("resumed run: %v", err)
		}
		got, err := json.Marshal(resumed.Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("sections resume after interval %d diverges", k)
		}
	}
}

// TestCheckpointEverySavesMidRun checks -checkpoint-every behaviour:
// cancelling after the snapshot leaves a resumable file even though the
// process never reached its shutdown save.
func TestCheckpointEverySavesMidRun(t *testing.T) {
	cfg := ckptTestConfig()
	path := filepath.Join(t.TempDir(), "run.ickp")
	boom := errors.New("hard crash, shutdown save never runs")
	spec := CheckpointSpec{Path: path, Every: 2}
	hook := func(done int) error {
		if done == 4 {
			// A hook error right after the Every-snapshot at 4 models a
			// crash between snapshots; the file on disk is the one from
			// interval 4.
			return boom
		}
		return nil
	}
	if _, err := CheckpointedRun(context.Background(), cfg, "cg", core.PolicyModelBased,
		ByIntervals, spec, hook); !errors.Is(err, boom) {
		t.Fatalf("run returned %v, want the crash error", err)
	}
	resumed, err := CheckpointedRun(context.Background(), cfg, "cg", core.PolicyModelBased,
		ByIntervals, CheckpointSpec{Path: path, Resume: true}, nil)
	if err != nil {
		t.Fatalf("resume from -checkpoint-every snapshot: %v", err)
	}
	straight, err := CheckpointedRun(context.Background(), cfg, "cg", core.PolicyModelBased,
		ByIntervals, CheckpointSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(resumed.Result)
	want, _ := json.Marshal(straight.Result)
	if !bytes.Equal(got, want) {
		t.Error("resume from a mid-run Every-snapshot diverges")
	}
}

// TestCheckpointIdentityMismatch: resuming under a different seed,
// benchmark, policy or run length must be refused, not silently mixed.
func TestCheckpointIdentityMismatch(t *testing.T) {
	cfg := ckptTestConfig()
	path := filepath.Join(t.TempDir(), "run.ickp")
	if _, err := CheckpointedRun(context.Background(), cfg, "cg", core.PolicyModelBased,
		ByIntervals, CheckpointSpec{Path: path}, nil); err != nil {
		t.Fatalf("seeding run: %v", err)
	}
	cases := []struct {
		name  string
		cfg   Config
		bench string
		pol   core.Policy
	}{
		{"different seed", func() Config { c := cfg; c.Seed = 7; return c }(), "cg", core.PolicyModelBased},
		{"different benchmark", cfg, "swim", core.PolicyModelBased},
		{"different policy", cfg, "cg", core.PolicyCPIProportional},
		{"different length", func() Config { c := cfg; c.Intervals = 9; return c }(), "cg", core.PolicyModelBased},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := CheckpointedRun(context.Background(), tc.cfg, tc.bench, tc.pol,
				ByIntervals, CheckpointSpec{Path: path, Resume: true}, nil)
			if err == nil {
				t.Fatal("resume accepted a checkpoint from a different run")
			}
		})
	}
}

// TestCheckpointResumeMissingFileIsFreshStart: -resume with no file yet
// must run from scratch, so the flag can be passed unconditionally.
func TestCheckpointResumeMissingFileIsFreshStart(t *testing.T) {
	cfg := ckptTestConfig()
	path := filepath.Join(t.TempDir(), "never-written.ickp")
	run, err := CheckpointedRun(context.Background(), cfg, "cg", core.PolicyModelBased,
		ByIntervals, CheckpointSpec{Path: path, Resume: true}, nil)
	if err != nil {
		t.Fatalf("fresh start with -resume: %v", err)
	}
	if len(run.Result.Intervals) != cfg.Intervals {
		t.Fatalf("ran %d intervals, want %d", len(run.Result.Intervals), cfg.Intervals)
	}
}

// TestCheckpointResumeLegacyCoherenceFields loads a checkpoint written
// while sim.State still had the L1-coherence fields Coherence, Presence
// and Invalidations, and core.ModelEngineState still had the phase
// detector's Detector field of type PhaseDetectorState, and checks it
// resumes bit-identically to a straight-through run. Gob skips stream
// fields the destination type lacks, so such files stay loadable.
//
// testdata/coherence-fields.ckpt was generated at commit 5eaacee by
// calling, from a test in this package,
//
//	CheckpointedRun(ctx, legacyCkptConfig(), "cg", core.PolicyModelBased,
//		ByIntervals, CheckpointSpec{Path: "coherence-fields.ckpt"}, hook)
//
// with a hook that returns an error once 10 intervals are done, so the
// run stops and saves its state after interval 10 of 16. The same
// configuration run straight through took 4941501 wall cycles there.
func TestCheckpointResumeLegacyCoherenceFields(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "coherence-fields.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Coherence", "Presence", "Invalidations", "PhaseDetectorState", "Detector"} {
		if !bytes.Contains(data, []byte(name)) {
			t.Fatalf("fixture gob stream does not carry %s", name)
		}
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := legacyCkptConfig()
	resumed, err := CheckpointedRun(context.Background(), cfg, "cg", core.PolicyModelBased, ByIntervals,
		CheckpointSpec{Path: path, Resume: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(resumed.Result.Intervals); got != 16 {
		t.Fatalf("resumed run has %d intervals, want 16", got)
	}
	straight, err := CheckpointedRun(context.Background(), cfg, "cg", core.PolicyModelBased, ByIntervals,
		CheckpointSpec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Result, straight.Result) {
		t.Error("resumed run differs from the straight-through run")
	}
	if resumed.Result.WallCycles != 4941501 {
		t.Errorf("resumed run took %d wall cycles, want 4941501", resumed.Result.WallCycles)
	}
}

// legacyCkptConfig is the small-L2 model-based run the legacy
// checkpoint fixture was written under.
func legacyCkptConfig() Config {
	cfg := QuickConfig()
	cfg.L1KB, cfg.L1Ways = 1, 2
	cfg.L2KB, cfg.L2Ways = 16, 16
	cfg.IntervalInstructions = 40_000
	cfg.Intervals = 16
	return cfg
}
