package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"intracache/internal/core"
	"intracache/internal/workload"
)

// TestPipelineRunMatchesSynchronous pins Config.ShareTraces as a pure
// performance knob: the Result is deep-equal to the bare run's, and a
// repeat run of the same workload is served from the shared segment
// cache.
func TestPipelineRunMatchesSynchronous(t *testing.T) {
	cfg := QuickConfig()
	cfg.Intervals = 6
	prof, err := workload.ByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	syncRun, err := RunOne(cfg, prof, core.PolicyModelBased, ByIntervals)
	if err != nil {
		t.Fatal(err)
	}

	pcfg := cfg
	pcfg.ShareTraces = true
	FlushTraceCache()
	sharedRun, err := RunOne(pcfg, prof, core.PolicyModelBased, ByIntervals)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(syncRun.Result, sharedRun.Result) {
		t.Error("shared-trace Result diverged from bare run")
	}

	repeat, err := RunOne(pcfg, prof, core.PolicyModelBased, ByIntervals)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(syncRun.Result, repeat.Result) {
		t.Error("cache-served repeat Result diverged from bare run")
	}
	if st := TraceCacheStats(); st.Hits == 0 {
		t.Errorf("repeat run never hit the shared trace cache: %+v", st)
	}
}

// TestSweepPipelinedMatchesSynchronous pins sweep-cell sharing: a sweep
// over L2 geometries (which leave the instruction streams untouched)
// returns identical rows with ShareTraces on, and the cells actually share
// segments through the process-wide cache.
func TestSweepPipelinedMatchesSynchronous(t *testing.T) {
	base := QuickConfig()
	base.Sections = 5
	mkPoints := func(share bool) []SweepPoint {
		var points []SweepPoint
		for _, l2 := range []int{128, 256} {
			cfg := base
			cfg.L2KB = l2
			cfg.ShareTraces = share
			points = append(points, SweepPoint{Label: fmt.Sprintf("l2-%d", l2), Cfg: cfg})
		}
		return points
	}

	syncOut, err := SweepJournaled(context.Background(), mkPoints(false), "cg",
		core.PolicyShared, core.PolicyModelBased, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	FlushTraceCache()
	before := TraceCacheStats()
	sharedOut, err := SweepJournaled(context.Background(), mkPoints(true), "cg",
		core.PolicyShared, core.PolicyModelBased, SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(syncOut, sharedOut) {
		t.Errorf("shared-trace sweep diverged:\nbare:   %+v\nshared: %+v", syncOut, sharedOut)
	}
	if st := TraceCacheStats(); st.Hits == before.Hits {
		t.Errorf("sweep cells never shared segments: %+v", st)
	}
}

// TestCheckpointResumePipelined extends the checkpoint invariant to
// shared-trace runs, including cross-mode resume: ShareTraces is
// excluded from the config fingerprint because generation is
// bit-identical, so a checkpoint written by a bare run must resume with
// shared traces (and vice versa) to the same Result.
func TestCheckpointResumePipelined(t *testing.T) {
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

	pipeCfg := cfg
	pipeCfg.ShareTraces = true
	stopErr := errors.New("simulated kill")
	for _, tc := range []struct {
		name            string
		killCfg, resCfg Config
		killAt          int
	}{
		{"pipelined-kill-pipelined-resume", pipeCfg, pipeCfg, 3},
		{"sync-kill-pipelined-resume", cfg, pipeCfg, 2},
		{"pipelined-kill-sync-resume", pipeCfg, cfg, 4},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			FlushTraceCache()
			path := filepath.Join(t.TempDir(), "run.ickp")
			hook := func(done int) error {
				if done == tc.killAt {
					return stopErr
				}
				return nil
			}
			_, err := CheckpointedRun(context.Background(), tc.killCfg, bench, pol,
				ByIntervals, CheckpointSpec{Path: path}, hook)
			if !errors.Is(err, stopErr) {
				t.Fatalf("interrupted run returned %v, want the stop error", err)
			}
			resumed, err := CheckpointedRun(context.Background(), tc.resCfg, bench, pol,
				ByIntervals, CheckpointSpec{Path: path, Resume: true}, nil)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			got, err := json.Marshal(resumed.Result)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("resume after interval %d diverges from the straight-through run", tc.killAt)
			}
		})
	}
}
