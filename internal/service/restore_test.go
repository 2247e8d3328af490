package service

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"intracache/internal/checkpoint"
	"intracache/internal/core"
)

// A sealed, CRC-valid checkpoint can carry engine state no engine ever
// produced. Each of these restored without error and then panicked
// with an index out of range on the next tick, which in partitiond
// runs in the ticker goroutine and kills the daemon. Restore must
// refuse them, and leave the service empty and serving.
func TestRestoreRefusesInconsistentEngineState(t *testing.T) {
	const threads = 4
	capture := func(t *testing.T) State {
		t.Helper()
		svc := New(Options{})
		for step := 0; step < 2; step++ {
			if rep := svc.Ingest(mkBatch("a", threads, 16, 2, uint64(step*100))); rep.Rejected != "" {
				t.Fatalf("ingest: %+v", rep)
			}
			svc.Tick(0)
		}
		st, err := svc.State()
		if err != nil {
			t.Fatal(err)
		}
		r := st.Sessions[0].Runtime.Engine.Resilient
		if len(r.LastReported) != threads || len(r.Model.Models) != threads {
			t.Fatalf("captured engine holds %d samples and %d models, want %d of each",
				len(r.LastReported), len(r.Model.Models), threads)
		}
		return st
	}
	cases := []struct {
		name   string
		mutate func(r *core.ResilientEngineState)
	}{
		{"window position past the end", func(r *core.ResilientEngineState) { r.Pos = 6 }},
		{"negative window position", func(r *core.ResilientEngineState) { r.Pos = -1 }},
		{"window overfilled", func(r *core.ResilientEngineState) { r.Filled = 9 }},
		{"models cut", func(r *core.ResilientEngineState) { r.Model.Models = r.Model.Models[:2] }},
		{"trusted samples cut", func(r *core.ResilientEngineState) {
			r.LastGood, r.HaveGood = r.LastGood[:2], r.HaveGood[:2]
		}},
		{"reported samples cut", func(r *core.ResilientEngineState) { r.LastReported = r.LastReported[:2] }},
		{"every per-thread slice cut", func(r *core.ResilientEngineState) {
			r.LastReported, r.LastGood, r.HaveGood = r.LastReported[:2], r.LastGood[:2], r.HaveGood[:2]
			r.Model.Models = r.Model.Models[:2]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := capture(t)
			tc.mutate(st.Sessions[0].Runtime.Engine.Resilient)
			fresh := New(Options{})
			err := fresh.Restore(st)
			if err == nil {
				// Show what the accepted state does to the next tick.
				fresh.Ingest(mkBatch("a", threads, 16, 2, 900))
				fresh.Tick(0)
				t.Fatal("restore accepted the state")
			}
			if !strings.Contains(err.Error(), `"a"`) {
				t.Errorf("refusal %q does not name the session", err)
			}
			if rep := fresh.Ingest(mkBatch("a", threads, 16, 2, 900)); rep.Rejected != "" {
				t.Fatalf("ingest after refused restore: %+v", rep)
			}
			if ds := fresh.Tick(0); len(ds) != 1 {
				t.Fatalf("tick after refused restore: %+v", ds)
			}
		})
	}

	// The unmodified capture restores and ticks.
	fresh := New(Options{})
	if err := fresh.Restore(capture(t)); err != nil {
		t.Fatal(err)
	}
	fresh.Ingest(mkBatch("a", threads, 16, 2, 900))
	if ds := fresh.Tick(0); len(ds) != 1 || ds[0].Rung != "model" {
		t.Fatalf("tick after restore: %+v", ds)
	}
}

// A negative rotation index restored cleanly, and the next tick
// indexed the session order at a negative position and panicked.
func TestRestoreRefusesNegativeRotation(t *testing.T) {
	svc := New(Options{})
	svc.Ingest(mkBatch("a", 2, 8, 2, 0))
	svc.Tick(0)
	st, err := svc.State()
	if err != nil {
		t.Fatal(err)
	}
	st.RR = -1
	fresh := New(Options{})
	if err := fresh.Restore(st); err == nil {
		fresh.Ingest(mkBatch("a", 2, 8, 2, 900))
		fresh.Tick(0)
		t.Fatal("restore accepted a negative rotation index")
	}
}

// A graceful stop drains the service, then saves it. The saved table
// must not carry the drain: a restarted service that refused every
// batch while its readiness probe said ready would be down.
func TestDrainedCheckpointRestoresServing(t *testing.T) {
	serving := func(t *testing.T, b Backend) {
		t.Helper()
		if b.Draining() {
			t.Fatal("restored service is draining")
		}
		if rep := b.Ingest(mkBatch("a", 2, 8, 1, 99)); rep.Rejected != "" {
			t.Fatalf("restored service refused a batch: %+v", rep)
		}
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards %d", shards), func(t *testing.T) {
			sh := NewSharded(Options{}, shards, 2)
			if rep := sh.Ingest(mkBatch("a", 2, 8, 2, 0)); rep.Rejected != "" {
				t.Fatalf("ingest: %+v", rep)
			}
			sh.StartDraining()
			sh.Tick(0)
			path := filepath.Join(t.TempDir(), "pd.ckpt")
			if err := sh.SaveCheckpoint(path); err != nil {
				t.Fatal(err)
			}
			restored := NewSharded(Options{}, shards, 2)
			if err := restored.LoadCheckpoint(path); err != nil {
				t.Fatal(err)
			}
			serving(t, restored)
		})
	}
	// Version 1 of the encoding carried the flag; a file with it set
	// restores serving too.
	t.Run("version 1 draining", func(t *testing.T) {
		payload, err := checkpoint.LoadSealed(binaryFixtureV1)
		if err != nil {
			t.Fatal(err)
		}
		off := len(stateMagic) + 1
		_, n := binary.Uvarint(payload[off:]) // Tick
		off += n
		_, n = binary.Varint(payload[off:]) // RR
		off += n
		if payload[off] != 0 {
			t.Fatalf("fixture's Draining byte is %d, want 0", payload[off])
		}
		payload[off] = 1
		path := filepath.Join(t.TempDir(), "v1-draining.ckpt")
		if err := os.WriteFile(path, checkpoint.Seal(payload), 0o644); err != nil {
			t.Fatal(err)
		}
		svc := New(Options{})
		if err := svc.LoadCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		serving(t, svc)
	})
}
