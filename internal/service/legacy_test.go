package service

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// legacyStep ingests one step of the legacy fixture's schedule: two
// healthy sessions and one whose counters are stuck, so the fixture
// holds engines on the model and on a fallback rung.
func legacyStep(t *testing.T, svc *Service, step int) {
	t.Helper()
	for _, b := range []Batch{
		mkBatch("alpha", 4, 16, 2, uint64(step*100)),
		mkBatch("beta", 2, 8, 2, uint64(step*100+10)),
		mkBatch("stuck", 2, 8, 1, 0),
	} {
		if rep := svc.Ingest(b); rep.Rejected != "" {
			t.Fatalf("step %d app %s rejected: %+v", step, b.App, rep)
		}
	}
}

// legacyWarmup is the schedule the fixture was saved after.
func legacyWarmup(t *testing.T, svc *Service) {
	for step := 0; step < 3; step++ {
		legacyStep(t, svc, step)
		svc.Tick(0)
	}
}

// legacyDecision is the part of a Decision the fixture pins.
type legacyDecision struct {
	App   string
	Rung  string
	Alloc []int
}

// legacyNext runs the three steps that follow the warmup.
func legacyNext(t *testing.T, svc *Service) []legacyDecision {
	var out []legacyDecision
	for step := 3; step < 6; step++ {
		legacyStep(t, svc, step)
		for _, d := range svc.Tick(0) {
			out = append(out, legacyDecision{d.App, d.Rung, d.Alloc})
		}
	}
	return out
}

// legacyNextTicks are the decisions of the three ticks after the
// fixture, recorded when it was generated.
var legacyNextTicks = []legacyDecision{
	{"alpha", "model", []int{1, 1, 2, 12}},
	{"beta", "model", []int{1, 7}},
	{"stuck", "proportional", []int{4, 4}},
	{"beta", "model", []int{1, 7}},
	{"stuck", "proportional", []int{4, 4}},
	{"alpha", "model", []int{1, 1, 1, 13}},
	{"stuck", "proportional", []int{4, 4}},
	{"alpha", "model", []int{1, 1, 1, 13}},
	{"beta", "model", []int{1, 7}},
}

// TestLoadCheckpointLegacyPhaseDetectorFields loads a partitiond
// checkpoint written while core.ModelEngineState still had the phase
// detector's Detector field of type PhaseDetectorState, and checks that
// the restored service makes the decisions it made when the fixture was
// written. Gob skips stream fields the destination type lacks, so such
// files stay loadable.
//
// testdata/phase-detector-fields.ckpt was generated at commit 13133bc by
// calling, from a test in this package,
//
//	svc := New(Options{})
//	legacyWarmup(t, svc)
//	svc.SaveCheckpoint("testdata/phase-detector-fields.ckpt")
//
// and legacyNext(t, svc) then returned legacyNextTicks.
func TestLoadCheckpointLegacyPhaseDetectorFields(t *testing.T) {
	path := filepath.Join("testdata", "phase-detector-fields.ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"PhaseDetectorState", "Detector"} {
		if !bytes.Contains(data, []byte(name)) {
			t.Fatalf("fixture gob stream does not carry %s", name)
		}
	}
	restored := New(Options{})
	if err := restored.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if got := legacyNext(t, restored); !reflect.DeepEqual(got, legacyNextTicks) {
		t.Errorf("restored fixture decided\n%+v\nwant\n%+v", got, legacyNextTicks)
	}
	straight := New(Options{})
	legacyWarmup(t, straight)
	if got := legacyNext(t, straight); !reflect.DeepEqual(got, legacyNextTicks) {
		t.Errorf("straight-through run decided\n%+v\nwant\n%+v", got, legacyNextTicks)
	}
}
