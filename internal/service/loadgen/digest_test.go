package loadgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"path/filepath"
	"testing"

	"intracache/internal/core"
	"intracache/internal/fault"
	"intracache/internal/service"
	"intracache/internal/sim"
)

// goldenEngineDigest is the digest of ResilientEngine decision streams
// over a seeded, partly faulted fleet. Any change to the model engine's
// arithmetic — a reordered sum, a different sort, a skipped or extra
// point — moves it, so an optimisation of the decision path must leave
// it as it is.
const goldenEngineDigest = "60c4b3dd1b469a9d"

const goldenServiceDigest = "f972aaaa6dbf0600"

// digestFleet is the fleet both digests are taken over: 8-thread,
// 32-way sessions so the search has room to move, with a quarter of
// the fleet under noise, drops, stuck counters and stalls.
func digestFleet() Config {
	return Config{
		Apps:      36,
		Threads:   8,
		Ways:      32,
		BatchSize: 2,
		Seed:      1016,
		Fault: fault.Plan{
			CPINoise:  0.4,
			DropRate:  0.1,
			StuckRate: 0.2,
			StallRate: 0.1,
		},
		FaultFraction: 0.25,
	}
}

type digestMon struct{ ways, threads int }

func (m digestMon) MissCurve(int) []uint64 { return nil }
func (m digestMon) Ways() int              { return m.ways }
func (m digestMon) NumThreads() int        { return m.threads }

func putInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

// TestResilientEngineDecisionDigest drives one ResilientEngine per app
// directly and hashes each decision (targets or hold) together with the
// health rung it was made at.
func TestResilientEngineDecisionDigest(t *testing.T) {
	const intervals = 60
	cfg := digestFleet()
	fleet, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	mon := digestMon{ways: cfg.Ways, threads: cfg.Threads}
	for _, app := range fleet.Apps {
		eng := core.NewResilientEngine()
		cur := make([]int, cfg.Threads)
		for t := range cur {
			cur[t] = cfg.Ways / cfg.Threads
		}
		for i := 0; i < intervals; i++ {
			smp := app.NextBatch(1).Samples[0]
			iv := sim.IntervalStats{Index: i, Threads: smp.Threads}
			for t := range iv.Threads {
				iv.Threads[t].WaysAssigned = cur[t]
			}
			got := eng.Decide(iv, mon, cur)
			putInt(h, int64(eng.Health()))
			putInt(h, int64(len(got)))
			for _, w := range got {
				putInt(h, int64(w))
			}
			if got != nil {
				cur = append(cur[:0], got...)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != goldenEngineDigest {
		t.Errorf("decision digest %s, want %s", got, goldenEngineDigest)
	}
}

// TestServiceDecisionDigest hashes the service's decision stream over
// the same fleet, with a mid-run checkpoint kill/restart, so the
// engine's state conversion on save and restore is pinned as well.
func TestServiceDecisionDigest(t *testing.T) {
	_, ds, err := Run(HarnessConfig{
		Load:           digestFleet(),
		Service:        service.Options{QueueCap: 16, MaxSamplesPerTick: 2},
		Steps:          30,
		KillAtStep:     17,
		CheckpointPath: filepath.Join(t.TempDir(), "svc.ckpt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	rungs := make(map[string]int)
	for _, d := range ds {
		rungs[d.Rung]++
		h.Write([]byte(d.App))
		h.Write([]byte(d.Rung))
		putInt(h, int64(d.Tick))
		putInt(h, int64(d.Interval))
		putInt(h, int64(d.Samples))
		putInt(h, int64(d.Epoch))
		for _, w := range d.Alloc {
			putInt(h, int64(w))
		}
	}
	for _, r := range []string{"model", "proportional", "static"} {
		if rungs[r] == 0 {
			t.Errorf("no %s-rung decisions in %v: the fleet no longer exercises the fallback chain", r, rungs)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != goldenServiceDigest {
		t.Errorf("service decision digest %s over %d decisions, want %s", got, len(ds), goldenServiceDigest)
	}
}
