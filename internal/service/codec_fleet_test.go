package service_test

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"intracache/internal/checkpoint"
	"intracache/internal/fault"
	"intracache/internal/service"
	"intracache/internal/service/loadgen"
	"intracache/internal/sim"
)

// fleetConfig is the perfbench partitiond fleet at a given size: 5% of
// the apps feed their telemetry through CPI noise and drops.
func fleetConfig(apps int) loadgen.Config {
	return loadgen.Config{Apps: apps, Seed: 1, FaultFraction: 0.05,
		Fault: fault.Plan{CPINoise: 0.5, DropRate: 0.2}}
}

// warmFleet returns the fleet and a service that has ingested and
// ticked its first steps.
func warmFleet(tb testing.TB, cfg loadgen.Config, steps int) (*loadgen.Fleet, *service.Service) {
	tb.Helper()
	gen, err := loadgen.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	svc := service.New(service.Options{})
	for s := 0; s < steps; s++ {
		for _, bt := range gen.Step() {
			if rep := svc.Ingest(bt); rep.Rejected != "" {
				tb.Fatalf("warm-up batch for %s rejected: %+v", bt.App, rep)
			}
		}
		svc.Tick(0)
	}
	return gen, svc
}

// TestCheckpointFormatsDecideIdentically restores a fleet from a binary
// checkpoint and from a gob checkpoint of the same state, and checks
// that both decide the next ticks exactly as the service they were
// taken from.
func TestCheckpointFormatsDecideIdentically(t *testing.T) {
	gen, straight := warmFleet(t, fleetConfig(256), 8)
	dir := t.TempDir()
	bin := filepath.Join(dir, "bin.ckpt")
	if err := straight.SaveCheckpoint(bin); err != nil {
		t.Fatal(err)
	}
	st, err := straight.State()
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "gob.ckpt")
	if err := checkpoint.SaveGob(old, &st); err != nil {
		t.Fatal(err)
	}
	restored := map[string]*service.Service{}
	for _, path := range []string{bin, old} {
		svc := service.New(service.Options{})
		if err := svc.LoadCheckpoint(path); err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		restored[filepath.Base(path)] = svc
	}
	rungs := map[string]int{}
	for step := 0; step < 4; step++ {
		batches := gen.Step()
		tick := func(svc *service.Service) []service.Decision {
			for _, bt := range batches {
				if rep := svc.Ingest(bt); rep.Rejected != "" {
					t.Fatalf("step %d batch for %s rejected: %+v", step, bt.App, rep)
				}
			}
			return svc.Tick(0)
		}
		want := tick(straight)
		for _, d := range want {
			rungs[d.Rung]++
		}
		for name, svc := range restored {
			if got := tick(svc); !service.DecisionsEqual(got, want) {
				t.Fatalf("step %d: service restored from %s decided differently", step, name)
			}
		}
	}
	if rungs["model"] == 0 || rungs["model"] == 4*256 {
		t.Errorf("rungs %v: the fleet should decide on the model and on a fallback", rungs)
	}
}

// FuzzLoadServiceCheckpoint seals arbitrary payloads as a service
// checkpoint. LoadCheckpoint must refuse them or leave a service that
// ingests, ticks and saves without panicking, and whose save loads.
// The seeds are a small fleet's checkpoint in both encodings and the
// three committed fixtures.
func FuzzLoadServiceCheckpoint(f *testing.F) {
	_, svc := warmFleet(f, loadgen.Config{Apps: 6, Seed: 3, FaultFraction: 0.5,
		Fault: fault.Plan{CPINoise: 0.5, DropRate: 0.2}}, 6)
	path := filepath.Join(f.TempDir(), "fleet.ckpt")
	if err := svc.SaveCheckpoint(path); err != nil {
		f.Fatal(err)
	}
	st, err := svc.State()
	if err != nil {
		f.Fatal(err)
	}
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(&st); err != nil {
		f.Fatal(err)
	}
	f.Add(old.Bytes())
	for _, p := range []string{path, filepath.Join("testdata", "phase-detector-fields.ckpt"), filepath.Join("testdata", "state-v1.ckpt"), filepath.Join("testdata", "state-v2.ckpt")} {
		payload, err := checkpoint.LoadSealed(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}

	// Fuzz inputs run one at a time in each process, so they can share
	// one file.
	path = filepath.Join(f.TempDir(), "fuzz.ckpt")
	f.Fuzz(func(t *testing.T, payload []byte) {
		if err := os.WriteFile(path, checkpoint.Seal(payload), 0o644); err != nil {
			t.Fatal(err)
		}
		svc := service.New(service.Options{})
		if svc.LoadCheckpoint(path) != nil {
			return
		}
		for i, app := range svc.Apps() {
			a, _ := svc.Allocation(app)
			b := service.Batch{App: app, Threads: a.Threads, Ways: a.Ways}
			for s := 0; s < 2; s++ {
				smp := service.Sample{Threads: make([]sim.ThreadIntervalStats, a.Threads)}
				for th := range smp.Threads {
					instr := uint64(100_000)
					smp.Threads[th] = sim.ThreadIntervalStats{Instructions: instr,
						ActiveCycles: instr*uint64(th+1) + uint64(i*7+s*3), L2Accesses: 900, L2Misses: 200}
				}
				b.Samples = append(b.Samples, smp)
			}
			svc.Ingest(b)
		}
		svc.Tick(0)
		if err := svc.SaveCheckpoint(path); err != nil {
			t.Fatalf("saving the restored service: %v", err)
		}
		if err := service.New(service.Options{}).LoadCheckpoint(path); err != nil {
			t.Fatalf("the restored service's checkpoint does not load: %v", err)
		}
	})
}
