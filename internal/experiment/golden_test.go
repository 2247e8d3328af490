package experiment

// Simulator output golden: a digest of every simulated cycle count,
// final partition and L2 counter the figure drivers report, recorded
// once and compared across commits. The differential tests in
// internal/sim run the same generator and cache code on both sides, so
// they cannot catch a change to the instruction stream or to a cache
// decision; this test can. A host-side optimisation must leave every
// digest below unchanged. Re-record a digest only for a change that is
// meant to move simulated results, and say so where the change is
// described.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"intracache/internal/core"
	"intracache/internal/sim"
	"intracache/internal/workload"
)

// goldenConfig is the reduced figures geometry: 4 sections of 24k
// instructions per thread and 12k-instruction intervals per thread, so
// every run spans about 8 controller decisions.
func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.SectionInstructions = 24_000
	cfg.IntervalInstructions = 48_000
	cfg.Sections = 4
	return cfg
}

// goldenCase is one run the golden digests.
type goldenCase struct {
	name  string
	cfg   Config
	bench string
	pol   core.Policy
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	base := goldenConfig()
	for _, name := range workload.Names() {
		for _, pol := range []core.Policy{core.PolicyPrivate, core.PolicyShared,
			core.PolicyThroughputUCP, core.PolicyModelBased} {
			cases = append(cases, goldenCase{name + "/" + pol.String(), base, name, pol})
		}
	}
	// Fig. 22's geometry: 8 threads, twice the L2 capacity.
	c8 := base.WithThreads(8)
	c8.L2KB *= 2
	for _, name := range workload.Names() {
		for _, pol := range []core.Policy{core.PolicyPrivate, core.PolicyShared, core.PolicyModelBased} {
			cases = append(cases, goldenCase{"8t/" + name + "/" + pol.String(), c8, name, pol})
		}
	}
	// The widest cell of the default cache sweep: 128 ways at fixed sets.
	wide := base
	wide.L2Ways = 128
	wide.L2KB = base.L2KB / base.L2Ways * 128
	for _, pol := range []core.Policy{core.PolicyShared, core.PolicyModelBased} {
		cases = append(cases, goldenCase{"128w/cg/" + pol.String(), wide, "cg", pol})
	}
	return cases
}

// digestResult hashes what a simulated run reports: wall cycles, final
// targets, the L2 counters and every interval's per-thread counters.
func digestResult(res sim.Result) string {
	h := sha256.New()
	put := func(h hash.Hash, vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	put(h, res.WallCycles, res.TotalInstr, uint64(res.Barriers), uint64(len(res.FinalTargets)))
	for _, t := range res.FinalTargets {
		put(h, uint64(t))
	}
	for _, ts := range res.L2Stats.Threads {
		put(h, ts.Accesses, ts.Hits, ts.Misses, ts.InterThreadHits,
			ts.EvictionsCaused, ts.InterThreadEvictons, ts.EvictionsSuffered)
	}
	put(h, uint64(len(res.Intervals)))
	for _, iv := range res.Intervals {
		put(h, uint64(iv.Index))
		for _, t := range iv.Threads {
			put(h, t.Instructions, t.ActiveCycles, t.StallCycles, t.L1Misses,
				t.L2Accesses, t.L2Hits, t.L2Misses, uint64(t.WaysAssigned))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// simGolden holds each case's digest, recorded at commit c508566,
// before the hot-path kernels of trace, cache and sim were rewritten.
var simGolden = map[string]string{
	"applu/private":         "2eab72531e4abecc",
	"applu/shared":          "e925c5a2b97912c7",
	"applu/throughput-ucp":  "02cd2c9935587642",
	"applu/model-based":     "0d52872c4e632ba7",
	"apsi/private":          "cfe2e086eb420d1d",
	"apsi/shared":           "dd89666d09cc5a36",
	"apsi/throughput-ucp":   "2e2cf701e7b7ab43",
	"apsi/model-based":      "a1d7fb8c50c56e65",
	"art/private":           "968a0a2fb55b9f3e",
	"art/shared":            "3c81a2f507503dd6",
	"art/throughput-ucp":    "8dc13dfdbe20d5c8",
	"art/model-based":       "0322aa74edeb7894",
	"equake/private":        "3334e70fa1064889",
	"equake/shared":         "cff9e276c3fedb08",
	"equake/throughput-ucp": "3239c828812cd0cf",
	"equake/model-based":    "d657a16bc8257ca4",
	"swim/private":          "7d70ebdb454b17a8",
	"swim/shared":           "74e0f83602b4b45c",
	"swim/throughput-ucp":   "74f5a2086cef06f4",
	"swim/model-based":      "d6983e58ede37173",
	"mgrid/private":         "ed497a27372e0399",
	"mgrid/shared":          "310e5e95f50187be",
	"mgrid/throughput-ucp":  "f5d0d3c1904caeed",
	"mgrid/model-based":     "571a47ab000166fa",
	"bt/private":            "180cf384da4dc4e8",
	"bt/shared":             "858b1057d96777e7",
	"bt/throughput-ucp":     "15f8fb3f064b41b0",
	"bt/model-based":        "ecd656026577e4a0",
	"cg/private":            "36a5a66c4aa482ee",
	"cg/shared":             "5c6af6f425452482",
	"cg/throughput-ucp":     "9f94fa6f31d9e95e",
	"cg/model-based":        "372e7c5f3f40408f",
	"mg/private":            "4ba2693f0f2f249c",
	"mg/shared":             "6b453692f7a2d8bb",
	"mg/throughput-ucp":     "710fab6406e0497b",
	"mg/model-based":        "4b5694064a70ab7d",
	"8t/applu/private":      "6e51702d04dd9f56",
	"8t/applu/shared":       "8058e425e5e7281a",
	"8t/applu/model-based":  "70192a9a5c40fc1b",
	"8t/apsi/private":       "b5e93f8dae1df647",
	"8t/apsi/shared":        "972a6a0bc6d17cca",
	"8t/apsi/model-based":   "9e7fab7f52a326f1",
	"8t/art/private":        "2776436c566a3878",
	"8t/art/shared":         "bbcd8574f43712ac",
	"8t/art/model-based":    "841ba359d6dbde49",
	"8t/equake/private":     "5e00d66e88895d60",
	"8t/equake/shared":      "da09882507e59059",
	"8t/equake/model-based": "dc10b73f1a6f959d",
	"8t/swim/private":       "b1af31bf58f92203",
	"8t/swim/shared":        "b56cf55d5c187c04",
	"8t/swim/model-based":   "4b43ed4076653ba5",
	"8t/mgrid/private":      "7bffa4aa868f5600",
	"8t/mgrid/shared":       "1b34bda114b86f82",
	"8t/mgrid/model-based":  "bf99db864154ccc8",
	"8t/bt/private":         "cfa94aaf5820b1cd",
	"8t/bt/shared":          "469a1ff148a184a7",
	"8t/bt/model-based":     "9276ad96c03f250e",
	"8t/cg/private":         "acef597a6ffb7615",
	"8t/cg/shared":          "004db3dab08da83b",
	"8t/cg/model-based":     "1eaa0b0c0b537d27",
	"8t/mg/private":         "53e5c3352235f6d3",
	"8t/mg/shared":          "d5f9f1e4a9399a9c",
	"8t/mg/model-based":     "dbf544239bdd31e8",
	"128w/cg/shared":        "93c71318ec40f989",
	"128w/cg/model-based":   "916081fc85d53a35",
}

func TestSimulatorOutputGolden(t *testing.T) {
	cases := goldenCases()
	got := make([]string, len(cases))
	errs := forEachIndex(len(cases), 0, func(i int) error {
		c := cases[i]
		run, err := RunOneByName(c.cfg, c.bench, c.pol, BySections)
		if err != nil {
			return err
		}
		got[i] = digestResult(run.Result)
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", cases[i].name, err)
		}
	}
	for i, c := range cases {
		if want, ok := simGolden[c.name]; !ok {
			t.Errorf("%s: no recorded digest (got %s)", c.name, got[i])
		} else if got[i] != want {
			t.Errorf("%s: digest %s, recorded %s", c.name, got[i], want)
		}
	}
}
