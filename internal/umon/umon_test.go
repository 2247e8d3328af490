package umon

import (
	"testing"
	"testing/quick"

	"intracache/internal/xrand"
)

func cfg4() Config {
	return Config{Sets: 64, Ways: 8, LineBytes: 64, NumThreads: 4, SampleStride: 1}
}

func mustNew(t *testing.T, cfg Config) *Monitor {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// addrFor builds an address mapping to the given set with the given tag.
func addrFor(cfg Config, set int, tag uint64) uint64 {
	return (tag*uint64(cfg.Sets) + uint64(set)) * uint64(cfg.LineBytes)
}

func TestConfigValidate(t *testing.T) {
	if err := cfg4().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Sets: 0, Ways: 8, LineBytes: 64, NumThreads: 4, SampleStride: 1},
		{Sets: 48, Ways: 8, LineBytes: 64, NumThreads: 4, SampleStride: 1},
		{Sets: 64, Ways: 0, LineBytes: 64, NumThreads: 4, SampleStride: 1},
		{Sets: 64, Ways: 8, LineBytes: 63, NumThreads: 4, SampleStride: 1},
		{Sets: 64, Ways: 8, LineBytes: 64, NumThreads: 0, SampleStride: 1},
		{Sets: 64, Ways: 8, LineBytes: 64, NumThreads: 4, SampleStride: 3},
		{Sets: 64, Ways: 8, LineBytes: 64, NumThreads: 4, SampleStride: 128},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestColdMissesLandInMissBucket(t *testing.T) {
	m := mustNew(t, cfg4())
	c := cfg4()
	for tag := uint64(0); tag < 10; tag++ {
		m.Observe(0, addrFor(c, 0, tag))
	}
	if got := m.MissesAtWays(0, c.Ways); got != 10 {
		t.Errorf("cold misses = %d, want 10", got)
	}
	if got := m.HitsAtWays(0, c.Ways); got != 0 {
		t.Errorf("hits = %d, want 0", got)
	}
}

func TestStackDistanceHistogram(t *testing.T) {
	m := mustNew(t, cfg4())
	c := cfg4()
	a := addrFor(c, 0, 1)
	b := addrFor(c, 0, 2)
	m.Observe(0, a) // miss
	m.Observe(0, a) // hit at distance 0
	m.Observe(0, b) // miss
	m.Observe(0, a) // hit at distance 1
	// With 1 way: only the distance-0 hit counts.
	if got := m.HitsAtWays(0, 1); got != 1 {
		t.Errorf("hits@1 = %d, want 1", got)
	}
	// With 2 ways: both hits count.
	if got := m.HitsAtWays(0, 2); got != 2 {
		t.Errorf("hits@2 = %d, want 2", got)
	}
	if got := m.MissesAtWays(0, 2); got != 2 {
		t.Errorf("misses@2 = %d, want 2", got)
	}
}

func TestMissCurveMonotone(t *testing.T) {
	c := cfg4()
	m := mustNew(t, c)
	r := xrand.New(3)
	for i := 0; i < 20000; i++ {
		m.Observe(r.Intn(4), uint64(r.Intn(1<<12))*64)
	}
	for th := 0; th < 4; th++ {
		curve := m.MissCurve(th)
		if len(curve) != c.Ways+1 {
			t.Fatalf("curve length %d, want %d", len(curve), c.Ways+1)
		}
		for w := 1; w < len(curve); w++ {
			if curve[w] > curve[w-1] {
				t.Fatalf("thread %d miss curve not non-increasing at way %d: %v", th, w, curve)
			}
		}
	}
}

func TestMissCurveEndpoints(t *testing.T) {
	c := cfg4()
	m := mustNew(t, c)
	a := addrFor(c, 0, 5)
	m.Observe(2, a)
	m.Observe(2, a)
	m.Observe(2, a)
	curve := m.MissCurve(2)
	// 0 ways: everything misses.
	if curve[0] != 3 {
		t.Errorf("misses@0 = %d, want 3", curve[0])
	}
	// Full ways: only the cold miss.
	if curve[c.Ways] != 1 {
		t.Errorf("misses@%d = %d, want 1", c.Ways, curve[c.Ways])
	}
}

func TestThreadsIsolated(t *testing.T) {
	c := cfg4()
	m := mustNew(t, c)
	a := addrFor(c, 0, 3)
	m.Observe(0, a)
	m.Observe(0, a)
	// Thread 1 never observed anything: its curve must be all zero.
	for w := 0; w <= c.Ways; w++ {
		if m.MissesAtWays(1, w) != 0 || m.HitsAtWays(1, w) != 0 {
			t.Fatalf("thread 1 has nonzero counters at w=%d", w)
		}
	}
	// Thread 1 touching the same address is a *shadow* miss (its own
	// directory is cold), unlike the real shared cache.
	m.Observe(1, a)
	if m.MissesAtWays(1, c.Ways) != 1 {
		t.Error("thread 1's first access should be a shadow miss")
	}
}

func TestSampling(t *testing.T) {
	c := cfg4()
	c.SampleStride = 16 // only sets 0, 16, 32, 48 sampled
	m := mustNew(t, c)
	m.Observe(0, addrFor(c, 1, 1)) // unsampled set: ignored
	m.Observe(0, addrFor(c, 5, 1)) // ignored
	if got := m.MissesAtWays(0, 0); got != 0 {
		t.Errorf("unsampled accesses recorded: %d", got)
	}
	m.Observe(0, addrFor(c, 16, 1)) // sampled
	m.Observe(0, addrFor(c, 16, 1))
	if got := m.HitsAtWays(0, 1); got != 1 {
		t.Errorf("sampled hit not recorded: %d", got)
	}
}

func TestDecayHalves(t *testing.T) {
	c := cfg4()
	m := mustNew(t, c)
	a := addrFor(c, 0, 1)
	m.Observe(0, a)
	for i := 0; i < 7; i++ {
		m.Observe(0, a)
	}
	if got := m.HitsAtWays(0, 1); got != 7 {
		t.Fatalf("hits = %d, want 7", got)
	}
	m.Decay()
	if got := m.HitsAtWays(0, 1); got != 3 {
		t.Errorf("after decay hits = %d, want 3", got)
	}
}

func TestResetClearsHistKeepsTags(t *testing.T) {
	c := cfg4()
	m := mustNew(t, c)
	a := addrFor(c, 0, 1)
	m.Observe(0, a)
	m.Reset()
	if m.MissesAtWays(0, c.Ways) != 0 {
		t.Error("Reset did not clear histogram")
	}
	// Tag still resident: next access is a hit at distance 0.
	m.Observe(0, a)
	if got := m.HitsAtWays(0, 1); got != 1 {
		t.Errorf("shadow tags were cleared by Reset: hits = %d", got)
	}
}

func TestObserveBadThreadPanics(t *testing.T) {
	m := mustNew(t, cfg4())
	defer func() {
		if recover() == nil {
			t.Fatal("bad thread did not panic")
		}
	}()
	m.Observe(-1, 0)
}

// Property: for any access stream, each thread's miss curve is
// non-increasing, misses@0 equals its sampled access count, and
// hits+misses is conserved across way counts.
func TestQuickCurveProperties(t *testing.T) {
	f := func(seed uint64, strideSel uint8) bool {
		c := cfg4()
		c.SampleStride = 1 << (strideSel % 4) // 1,2,4,8
		m, err := New(c)
		if err != nil {
			return false
		}
		r := xrand.New(seed)
		for i := 0; i < 4000; i++ {
			m.Observe(r.Intn(c.NumThreads), uint64(r.Intn(1<<13))*64)
		}
		for th := 0; th < c.NumThreads; th++ {
			curve := m.MissCurve(th)
			total := curve[0]
			for w := 1; w <= c.Ways; w++ {
				if curve[w] > curve[w-1] {
					return false
				}
				if m.HitsAtWays(th, w)+m.MissesAtWays(th, w) != total {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkObserve(b *testing.B) {
	c := Config{Sets: 256, Ways: 64, LineBytes: 64, NumThreads: 4, SampleStride: 8}
	m, err := New(c)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1<<18)) * 64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(i&3, addrs[i&4095])
	}
}

// TestObserveZeroAlloc pins the sampled-shadow-tag update at zero heap
// allocations: Observe runs on every sampled L2 access in the
// simulator hot path.
func TestObserveZeroAlloc(t *testing.T) {
	c := cfg4()
	m := mustNew(t, c)
	r := xrand.New(9)
	addrs := make([]uint64, 2048)
	for i := range addrs {
		addrs[i] = addrFor(c, r.Intn(c.Sets), uint64(r.Intn(64)))
	}
	for i, a := range addrs { // warm the shadow tags
		m.Observe(i&3, a)
	}
	i := 0
	if n := testing.AllocsPerRun(10_000, func() {
		m.Observe(i&3, addrs[i&2047])
		i++
	}); n != 0 {
		t.Errorf("%v allocs per Observe, want 0", n)
	}
}
