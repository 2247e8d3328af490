package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"intracache/internal/core"
	"intracache/internal/workload"
)

// shardTestProf resolves the test benchmark once per test.
func shardTestProf(t *testing.T, name string) workload.Profile {
	t.Helper()
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// marshalRun reduces a Run to the bytes the sharding pins compare:
// the full Result plus the fault counters.
func marshalRun(t *testing.T, r Run) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Result interface{}
		Faults interface{}
	}{r.Result, r.FaultStats})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardedSingleShardMatchesPlain pins the anchor invariant: with
// Shards <= 1 the sharded driver is the plain run driver — byte-
// identical Result and fault counters on both run-length clocks.
func TestShardedSingleShardMatchesPlain(t *testing.T) {
	cfg := ckptTestConfig()
	prof := shardTestProf(t, "cg")
	for _, mode := range []RunMode{ByIntervals, BySections} {
		name := "intervals"
		if mode == BySections {
			name = "sections"
		}
		t.Run(name, func(t *testing.T) {
			plain, err := RunOneCtx(context.Background(), cfg, prof, core.PolicyModelBased, mode, nil)
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := ShardedRun(context.Background(), cfg, prof, core.PolicyModelBased,
				mode, ShardSpec{Shards: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want, got := marshalRun(t, plain), marshalRun(t, sharded); !bytes.Equal(want, got) {
				t.Errorf("single-shard run diverges from the plain driver")
			}
		})
	}
}

// TestShardedWorkerCountInvariance pins the other half of the shard
// contract: for a fixed shard count the Result never depends on the
// worker count — shards are independent, so scheduling is invisible.
func TestShardedWorkerCountInvariance(t *testing.T) {
	cfg := ckptTestConfig()
	prof := shardTestProf(t, "swim")
	for _, mode := range []RunMode{ByIntervals, BySections} {
		name := "intervals"
		if mode == BySections {
			name = "sections"
		}
		t.Run(name, func(t *testing.T) {
			one, err := ShardedRun(context.Background(), cfg, prof, core.PolicyModelBased,
				mode, ShardSpec{Shards: 3, Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			many, err := ShardedRun(context.Background(), cfg, prof, core.PolicyModelBased,
				mode, ShardSpec{Shards: 3, Workers: 3}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want, got := marshalRun(t, one), marshalRun(t, many); !bytes.Equal(want, got) {
				t.Errorf("worker count changed a sharded Result")
			}
			// Stitching renumbers intervals into one sequential series.
			for i, iv := range many.Result.Intervals {
				if iv.Index != i {
					t.Fatalf("interval %d stitched with Index %d", i, iv.Index)
				}
			}
			if mode == ByIntervals && len(many.Result.Intervals) != cfg.Intervals {
				t.Fatalf("stitched %d intervals, want %d", len(many.Result.Intervals), cfg.Intervals)
			}
		})
	}
}

// TestShardedGenerationModeInvariance ties the two halves of the
// feature together: for a fixed shard count, ShareTraces remains a pure
// throughput knob inside each shard.
func TestShardedGenerationModeInvariance(t *testing.T) {
	cfg := ckptTestConfig()
	prof := shardTestProf(t, "cg")
	spec := ShardSpec{Shards: 3, Workers: 2}
	base, err := ShardedRun(context.Background(), cfg, prof, core.PolicyModelBased,
		ByIntervals, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"pipeline", func(c *Config) { c.ShareTraces = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			FlushTraceCache()
			mcfg := cfg
			tc.mut(&mcfg)
			got, err := ShardedRun(context.Background(), mcfg, prof, core.PolicyModelBased,
				ByIntervals, spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base.Result, got.Result) {
				t.Errorf("%s changed a sharded Result", tc.name)
			}
		})
	}
}

// TestShardedCheckpointKillResumeCrossMode is the kill/resume chain
// crossing shard boundaries: every shard is killed mid-shard under one
// execution mode (parallel workers + shared traces, or one worker +
// bare generators) and the run is finished under the other. The per-shard checkpoints must splice into the same stitched
// Result as a straight-through sharded run.
func TestShardedCheckpointKillResumeCrossMode(t *testing.T) {
	cfg := ckptTestConfig()
	prof := shardTestProf(t, "cg")
	pol := core.PolicyModelBased

	sharedCfg := cfg
	sharedCfg.ShareTraces = true
	straight, err := ShardedRun(context.Background(), cfg, prof, pol,
		ByIntervals, ShardSpec{Shards: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalRun(t, straight)

	stopErr := errors.New("simulated kill")
	for _, tc := range []struct {
		name            string
		killCfg, resCfg Config
		killWrk, resWrk int
	}{
		{"parallel-kill-sequential-resume", sharedCfg, cfg, 3, 1},
		{"sequential-kill-parallel-resume", cfg, sharedCfg, 1, 3},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			FlushTraceCache()
			path := filepath.Join(t.TempDir(), "run.ickp")
			// Each shard covers 2 intervals; killing at the first interval
			// boundary leaves every shard's checkpoint mid-shard.
			hook := func(done int) error {
				if done == 1 {
					return stopErr
				}
				return nil
			}
			_, err := ShardedRun(context.Background(), tc.killCfg, prof, pol, ByIntervals,
				ShardSpec{Shards: 3, Workers: tc.killWrk, Checkpoint: CheckpointSpec{Path: path}}, hook)
			if !errors.Is(err, stopErr) {
				t.Fatalf("interrupted run returned %v, want the stop error", err)
			}
			resumed, err := ShardedRun(context.Background(), tc.resCfg, prof, pol, ByIntervals,
				ShardSpec{Shards: 3, Workers: tc.resWrk,
					Checkpoint: CheckpointSpec{Path: path, Resume: true}}, nil)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if got := marshalRun(t, resumed); !bytes.Equal(got, want) {
				t.Errorf("mid-shard resume diverges from the straight-through sharded run")
			}
		})
	}
}

// TestShardedCheckpointShardCountMismatch: a shard checkpoint carries
// its (index, count) in the fingerprint, so resuming under a different
// shard count must be refused, not silently spliced.
func TestShardedCheckpointShardCountMismatch(t *testing.T) {
	cfg := ckptTestConfig()
	prof := shardTestProf(t, "cg")
	path := filepath.Join(t.TempDir(), "run.ickp")
	if _, err := ShardedRun(context.Background(), cfg, prof, core.PolicyModelBased, ByIntervals,
		ShardSpec{Shards: 2, Checkpoint: CheckpointSpec{Path: path}}, nil); err != nil {
		t.Fatalf("seeding run: %v", err)
	}
	if _, err := ShardedRun(context.Background(), cfg, prof, core.PolicyModelBased, ByIntervals,
		ShardSpec{Shards: 3, Checkpoint: CheckpointSpec{Path: path, Resume: true}}, nil); err == nil {
		t.Fatal("resume accepted shard checkpoints from a different shard count")
	}
}

// TestCompareShardedMatchesCompare: with one shard the sharded
// comparison equals CompareCtx; with several it still produces a
// well-formed comparison on the same benchmark.
func TestCompareShardedMatchesCompare(t *testing.T) {
	cfg := ckptTestConfig()
	prof := shardTestProf(t, "cg")
	plain, err := CompareCtx(context.Background(), cfg, prof,
		core.PolicyShared, core.PolicyModelBased, nil)
	if err != nil {
		t.Fatal(err)
	}
	single, err := CompareSharded(context.Background(), cfg, prof,
		core.PolicyShared, core.PolicyModelBased, ShardSpec{Shards: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, single) {
		t.Errorf("single-shard comparison diverges:\nplain %+v\nshard %+v", plain, single)
	}
	multi, err := CompareSharded(context.Background(), cfg, prof,
		core.PolicyShared, core.PolicyModelBased, ShardSpec{Shards: 2, Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Benchmark != plain.Benchmark || multi.BaselineCycles == 0 || multi.CandidateCycles == 0 {
		t.Errorf("multi-shard comparison malformed: %+v", multi)
	}
}

// shardRange sanity: full cover, disjoint, clamped tail.
func TestShardRange(t *testing.T) {
	for _, tc := range []struct{ total, shards int }{
		{8, 3}, {6, 3}, {5, 5}, {7, 2}, {1, 1},
	} {
		covered := 0
		prevHi := 0
		for w := 0; w < tc.shards; w++ {
			lo, hi := shardRange(tc.total, tc.shards, w)
			if lo != prevHi {
				t.Fatalf("total=%d shards=%d: shard %d starts at %d, want %d",
					tc.total, tc.shards, w, lo, prevHi)
			}
			if hi < lo || hi > tc.total {
				t.Fatalf("total=%d shards=%d: shard %d range [%d,%d)", tc.total, tc.shards, w, lo, hi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.total || prevHi != tc.total {
			t.Fatalf("total=%d shards=%d: covered %d ending at %d", tc.total, tc.shards, covered, prevHi)
		}
	}
	if got := clampShards(10, 3); got != 3 {
		t.Fatalf("clampShards(10, 3) = %d", got)
	}
	if got := clampShards(0, 5); got != 1 {
		t.Fatalf("clampShards(0, 5) = %d", got)
	}
}
