package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"intracache/internal/xrand"
)

// smallConfig is a 4-set, 4-way, 64 B-line cache shared by 4 threads:
// 1 KiB total, small enough to force evictions quickly.
func smallConfig() Config {
	return Config{SizeBytes: 1024, Ways: 4, LineBytes: 64, NumThreads: 4}
}

func mustNew(t *testing.T, cfg Config, mode Mode) *Cache {
	t.Helper()
	c, err := New(cfg, mode)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// addrFor builds an address landing in the given set with the given tag.
func addrFor(cfg Config, set int, tag uint64) uint64 {
	return (tag*uint64(cfg.Sets()) + uint64(set)) * uint64(cfg.LineBytes)
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{SizeBytes: 0, Ways: 4, LineBytes: 64, NumThreads: 4},
		{SizeBytes: 1024, Ways: 0, LineBytes: 64, NumThreads: 4},
		{SizeBytes: 1024, Ways: 4, LineBytes: 0, NumThreads: 4},
		{SizeBytes: 1024, Ways: 4, LineBytes: 48, NumThreads: 4},    // not power of two
		{SizeBytes: 1000, Ways: 4, LineBytes: 64, NumThreads: 4},    // size not multiple of line
		{SizeBytes: 1024, Ways: 5, LineBytes: 64, NumThreads: 4},    // lines not divisible by ways
		{SizeBytes: 1024, Ways: 4, LineBytes: 64, NumThreads: 0},    // no threads
		{SizeBytes: 64 * 12, Ways: 4, LineBytes: 64, NumThreads: 4}, // 3 sets, not power of two
		// The set-index and clustered geometries are gone.
		{SizeBytes: 1024, Ways: 4, LineBytes: 64, NumThreads: 4, SetGroups: 4},
		{SizeBytes: 1024, Ways: 4, LineBytes: 64, NumThreads: 4, Clusters: 2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestNewUnknownMode(t *testing.T) {
	if _, err := New(smallConfig(), Mode(7)); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestModeString(t *testing.T) {
	if SharedLRU.String() != "shared-lru" || Partitioned.String() != "partitioned" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode name wrong")
	}
}

func TestEqualSplit(t *testing.T) {
	cases := []struct {
		ways, n int
		want    []int
	}{
		{64, 4, []int{16, 16, 16, 16}},
		{10, 4, []int{3, 3, 2, 2}},
		{3, 4, []int{1, 1, 1, 0}},
		{7, 1, []int{7}},
	}
	for _, c := range cases {
		got := EqualSplit(c.ways, c.n)
		sum := 0
		for i := range got {
			sum += got[i]
			if got[i] != c.want[i] {
				t.Errorf("EqualSplit(%d,%d) = %v, want %v", c.ways, c.n, got, c.want)
				break
			}
		}
		if sum != c.ways {
			t.Errorf("EqualSplit(%d,%d) sums to %d", c.ways, c.n, sum)
		}
	}
}

func TestHitAfterFill(t *testing.T) {
	c := mustNew(t, smallConfig(), SharedLRU)
	addr := uint64(0x1000)
	if res := c.Access(0, addr, false); res.Hit {
		t.Fatal("first access hit an empty cache")
	}
	if res := c.Access(0, addr, false); !res.Hit {
		t.Fatal("second access to same address missed")
	}
	// Same line, different byte offset, still a hit.
	if res := c.Access(0, addr+63, false); !res.Hit {
		t.Fatal("access within same line missed")
	}
	// Next line misses.
	if res := c.Access(0, addr+64, false); res.Hit {
		t.Fatal("access to next line hit")
	}
}

func TestLRUReplacementOrder(t *testing.T) {
	cfg := smallConfig()
	c := mustNew(t, cfg, SharedLRU)
	// Fill set 0 with tags 1..4, then touch tag 1 to refresh it.
	for tag := uint64(1); tag <= 4; tag++ {
		c.Access(0, addrFor(cfg, 0, tag), false)
	}
	c.Access(0, addrFor(cfg, 0, 1), false)
	// Inserting tag 5 must evict tag 2 (the LRU), not tag 1.
	c.Access(0, addrFor(cfg, 0, 5), false)
	if !c.Contains(addrFor(cfg, 0, 1)) {
		t.Error("refreshed line was evicted")
	}
	if c.Contains(addrFor(cfg, 0, 2)) {
		t.Error("LRU line survived")
	}
}

func TestStatsCounting(t *testing.T) {
	c := mustNew(t, smallConfig(), SharedLRU)
	c.Access(0, 0, false)
	c.Access(0, 0, false)
	c.Access(1, 4096, false)
	st := c.Stats()
	if st.Threads[0].Accesses != 2 || st.Threads[0].Hits != 1 || st.Threads[0].Misses != 1 {
		t.Errorf("thread 0 stats: %+v", st.Threads[0])
	}
	if st.Threads[1].Accesses != 1 || st.Threads[1].Misses != 1 {
		t.Errorf("thread 1 stats: %+v", st.Threads[1])
	}
	tot := st.Totals()
	if tot.Accesses != 3 || tot.Hits != 1 || tot.Misses != 2 {
		t.Errorf("totals: %+v", tot)
	}
	c.ResetStats()
	if got := c.Stats().Totals().Accesses; got != 0 {
		t.Errorf("after reset, accesses = %d", got)
	}
}

func TestStatsCopyIsolated(t *testing.T) {
	c := mustNew(t, smallConfig(), SharedLRU)
	c.Access(0, 0, false)
	st := c.Stats()
	st.Threads[0].Accesses = 999
	if got := c.Stats().Threads[0].Accesses; got != 1 {
		t.Errorf("mutating a stats copy leaked into the cache: %d", got)
	}
}

func TestInterThreadHitConstructive(t *testing.T) {
	c := mustNew(t, smallConfig(), SharedLRU)
	addr := uint64(0x2000)
	c.Access(0, addr, false) // thread 0 fills
	res := c.Access(1, addr, false)
	if !res.Hit || !res.InterThread {
		t.Fatalf("expected inter-thread hit, got %+v", res)
	}
	// Thread 1 touching again is now intra-thread.
	res = c.Access(1, addr, false)
	if !res.Hit || res.InterThread {
		t.Fatalf("expected intra-thread hit, got %+v", res)
	}
	st := c.Stats()
	if st.Threads[1].InterThreadHits != 1 {
		t.Errorf("inter-thread hits = %d, want 1", st.Threads[1].InterThreadHits)
	}
	if st.ConstructiveFraction() != 1 {
		t.Errorf("constructive fraction = %v, want 1", st.ConstructiveFraction())
	}
}

func TestInterThreadEvictionDestructive(t *testing.T) {
	cfg := smallConfig()
	c := mustNew(t, cfg, SharedLRU)
	// Thread 0 fills all 4 ways of set 0; thread 1 inserts a 5th line.
	for tag := uint64(1); tag <= 4; tag++ {
		c.Access(0, addrFor(cfg, 0, tag), false)
	}
	res := c.Access(1, addrFor(cfg, 0, 9), false)
	if !res.Evicted || !res.InterThreadEviction {
		t.Fatalf("expected inter-thread eviction, got %+v", res)
	}
	st := c.Stats()
	if st.Threads[1].InterThreadEvictons != 1 {
		t.Errorf("destructive count = %d, want 1", st.Threads[1].InterThreadEvictons)
	}
	if st.Threads[0].EvictionsSuffered != 1 {
		t.Errorf("thread 0 suffered = %d, want 1", st.Threads[0].EvictionsSuffered)
	}
}

func TestInterThreadInteractionFraction(t *testing.T) {
	c := mustNew(t, smallConfig(), SharedLRU)
	addr := uint64(0x400)
	c.Access(0, addr, false) // miss, fill (no interaction)
	c.Access(1, addr, false) // inter-thread hit
	c.Access(0, addr, false) // inter-thread hit
	c.Access(0, addr, false) // intra-thread hit
	st := c.Stats()
	if got := st.InterThreadInteractionFraction(); got != 0.5 {
		t.Errorf("interaction fraction = %v, want 0.5", got)
	}
	empty := Stats{Threads: make([]ThreadStats, 2)}
	if empty.InterThreadInteractionFraction() != 0 || empty.ConstructiveFraction() != 0 {
		t.Error("empty stats fractions should be 0")
	}
}

func TestSetTargetsValidation(t *testing.T) {
	c := mustNew(t, smallConfig(), Partitioned)
	if err := c.SetTargets([]int{1, 1, 1, 1}); err != nil {
		t.Fatalf("valid targets rejected: %v", err)
	}
	if err := c.SetTargets([]int{4, 0, 0, 0}); err != nil {
		t.Fatalf("skewed targets rejected: %v", err)
	}
	if err := c.SetTargets([]int{2, 2, 2, 2}); err == nil {
		t.Error("over-sum targets accepted")
	}
	if err := c.SetTargets([]int{5, -1, 0, 0}); err == nil {
		t.Error("negative target accepted")
	}
	if err := c.SetTargets([]int{1, 1}); err == nil {
		t.Error("wrong-length targets accepted")
	}
	shared := mustNew(t, smallConfig(), SharedLRU)
	if err := shared.SetTargets([]int{1, 1, 1, 1}); err == nil {
		t.Error("SetTargets on shared cache accepted")
	}
}

// TestMechanismRestoreRoundTrip proves the crash-safety contract for
// the partitioned modes: State captures everything, Restore rebuilds
// the derived index and recency lists, and a restored cache is
// bit-identical in behavior to the original from that point on.
func TestMechanismRestoreRoundTrip(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 16, Ways: 64, LineBytes: 64, NumThreads: 4}
	for _, mode := range []Mode{Partitioned, PartitionedMask} {
		t.Run(mode.String(), func(t *testing.T) {
			orig := mustNew(t, cfg, mode)
			r := xrand.New(31 + uint64(mode))
			for i := 0; i < 30_000; i++ {
				if i%5000 == 4999 {
					if err := orig.SetTargets(randComposition(r, cfg.Ways, cfg.NumThreads)); err != nil {
						t.Fatal(err)
					}
				}
				orig.Access(r.Intn(cfg.NumThreads), uint64(r.Intn(1<<13))*64, r.Bool(0.2))
			}
			resumed := mustNew(t, cfg, mode)
			if err := resumed.Restore(orig.State()); err != nil {
				t.Fatal(err)
			}
			if err := resumed.checkInvariants(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10_000; i++ {
				thread := r.Intn(cfg.NumThreads)
				addr := uint64(r.Intn(1<<13)) * 64
				write := r.Bool(0.2)
				got := resumed.Access(thread, addr, write)
				want := orig.Access(thread, addr, write)
				if got != want {
					t.Fatalf("post-restore access %d diverged: %+v vs %+v", i, got, want)
				}
			}
			if !reflect.DeepEqual(orig.State(), resumed.State()) {
				t.Fatal("states diverged after restore")
			}
		})
	}
}

// TestMechanismRestoreRejectsBadTargets: a snapshot whose way-target
// vector SetTargets would refuse must be refused by Restore too. A
// negative target used to restore silently and then index the way
// arrays out of range on the thread's next miss.
func TestMechanismRestoreRejectsBadTargets(t *testing.T) {
	cfg := Config{SizeBytes: 4096, Ways: 8, LineBytes: 64, NumThreads: 2}
	for _, mode := range []Mode{SharedLRU, Partitioned, PartitionedMask, SharedTADIP} {
		for _, bad := range [][]int{
			{-3, 11}, // sums to Ways, but negative
			{11, -3},
			{3, 4},    // sums short of Ways
			{5, 5},    // sums past Ways
			{8},       // too few threads
			{4, 4, 0}, // too many threads
		} {
			c := mustNew(t, cfg, mode)
			st := c.State()
			st.Target = bad
			if err := c.Restore(st); err == nil {
				t.Errorf("%v: Restore accepted targets %v", mode, bad)
			}
		}
		c := mustNew(t, cfg, mode)
		st := c.State()
		st.Target = []int{0, 8}
		if err := c.Restore(st); err != nil {
			t.Errorf("%v: Restore refused valid targets %v: %v", mode, st.Target, err)
		}
	}
}

// TestMechanismCapacityConserved: installed targets always sum to the
// associativity and the occupancy never exceeds the physical line
// count, through arbitrary repartition sequences.
func TestMechanismCapacityConserved(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 16, Ways: 64, LineBytes: 64, NumThreads: 4}
	lines := cfg.Sets() * cfg.Ways
	for _, mode := range []Mode{Partitioned, PartitionedMask} {
		c := mustNew(t, cfg, mode)
		r := xrand.New(uint64(17 + mode))
		for round := 0; round < 50; round++ {
			if err := c.SetTargets(randComposition(r, cfg.Ways, cfg.NumThreads)); err != nil {
				t.Fatal(err)
			}
			sum := 0
			for _, q := range c.Targets() {
				sum += q
			}
			if sum != cfg.Ways {
				t.Fatalf("%v: installed targets sum to %d, want %d", mode, sum, cfg.Ways)
			}
			for i := 0; i < 2_000; i++ {
				c.Access(r.Intn(cfg.NumThreads), uint64(r.Intn(1<<13))*64, false)
			}
			occ := 0
			for _, o := range c.Occupancy() {
				occ += o
			}
			if occ > lines {
				t.Fatalf("%v: occupancy %d exceeds %d lines", mode, occ, lines)
			}
			if err := c.checkInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestPartitionedDefaultEqualTargets(t *testing.T) {
	c := mustNew(t, smallConfig(), Partitioned)
	for i, w := range c.Targets() {
		if w != 1 {
			t.Errorf("default target[%d] = %d, want 1", i, w)
		}
	}
}

func TestTargetsCopyIsolated(t *testing.T) {
	c := mustNew(t, smallConfig(), Partitioned)
	tg := c.Targets()
	tg[0] = 99
	if c.Targets()[0] == 99 {
		t.Error("mutating Targets() copy leaked into the cache")
	}
}

func TestPartitionProtectsOwnerLines(t *testing.T) {
	cfg := smallConfig()
	c := mustNew(t, cfg, Partitioned)
	// Targets: thread 0 gets 2 ways, thread 1 gets 2, others 0.
	if err := c.SetTargets([]int{2, 2, 0, 0}); err != nil {
		t.Fatal(err)
	}
	// Thread 0 fills its 2 ways in set 0.
	c.Access(0, addrFor(cfg, 0, 1), false)
	c.Access(0, addrFor(cfg, 0, 2), false)
	// Thread 1 fills 2 ways.
	c.Access(1, addrFor(cfg, 0, 11), false)
	c.Access(1, addrFor(cfg, 0, 12), false)
	// Thread 1, now at target, streams more lines; thread 0's lines
	// must survive (eviction control).
	for tag := uint64(13); tag < 30; tag++ {
		c.Access(1, addrFor(cfg, 0, tag), false)
	}
	if !c.Contains(addrFor(cfg, 0, 1)) || !c.Contains(addrFor(cfg, 0, 2)) {
		t.Error("partitioned cache let thread 1 evict thread 0's lines")
	}
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPartitionCrossHitAllowed(t *testing.T) {
	cfg := smallConfig()
	c := mustNew(t, cfg, Partitioned)
	if err := c.SetTargets([]int{2, 2, 0, 0}); err != nil {
		t.Fatal(err)
	}
	shared := addrFor(cfg, 0, 7)
	c.Access(0, shared, false) // thread 0 fills
	res := c.Access(1, shared, false)
	if !res.Hit {
		t.Error("partitioned cache blocked a cross-partition hit")
	}
	if !res.InterThread {
		t.Error("cross-partition hit not counted as inter-thread")
	}
}

func TestPartitionConvergesAfterRetarget(t *testing.T) {
	cfg := Config{SizeBytes: 4096, Ways: 8, LineBytes: 64, NumThreads: 2}
	c := mustNew(t, cfg, Partitioned)
	if err := c.SetTargets([]int{4, 4}); err != nil {
		t.Fatal(err)
	}
	r := xrand.New(1)
	// Both threads touch plenty of distinct lines.
	touch := func(th int, n int) {
		for i := 0; i < n; i++ {
			c.Access(th, uint64(r.Intn(1<<16))*64, false)
		}
	}
	touch(0, 2000)
	touch(1, 2000)
	// Retarget 6/2 and keep streaming; occupancy must shift toward 6/2.
	if err := c.SetTargets([]int{6, 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		touch(0, 1)
		touch(1, 1)
	}
	occ := c.Occupancy()
	total := occ[0] + occ[1]
	if total == 0 {
		t.Fatal("no valid lines after traffic")
	}
	frac0 := float64(occ[0]) / float64(total)
	if frac0 < 0.65 {
		t.Errorf("after retarget to 6/2, thread 0 owns only %.2f of lines", frac0)
	}
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestZeroTargetThreadStillServed(t *testing.T) {
	cfg := smallConfig()
	c := mustNew(t, cfg, Partitioned)
	if err := c.SetTargets([]int{4, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	// Thread 1 has target 0 but must still be able to fill (it evicts
	// from over-target threads / global LRU).
	res := c.Access(1, addrFor(cfg, 0, 42), false)
	if res.Hit {
		t.Fatal("unexpected hit")
	}
	if !c.Contains(addrFor(cfg, 0, 42)) {
		t.Error("zero-target thread's fill did not land")
	}
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestOccupancySumsToValidLines(t *testing.T) {
	cfg := smallConfig()
	c := mustNew(t, cfg, SharedLRU)
	r := xrand.New(5)
	for i := 0; i < 500; i++ {
		c.Access(r.Intn(4), uint64(r.Intn(4096))*64, r.Bool(0.3))
	}
	occ := c.Occupancy()
	sum := 0
	for _, n := range occ {
		sum += n
	}
	if sum > cfg.Sets()*cfg.Ways {
		t.Errorf("occupancy %d exceeds capacity %d", sum, cfg.Sets()*cfg.Ways)
	}
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAccessBadThreadPanics(t *testing.T) {
	c := mustNew(t, smallConfig(), SharedLRU)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range thread did not panic")
		}
	}()
	c.Access(4, 0, false)
}

// Property: under any random access stream, in either mode, the
// ownership counters always match actual line ownership, hits+misses
// equal accesses, and occupancy never exceeds capacity.
func TestQuickInvariantsUnderRandomTraffic(t *testing.T) {
	cfgs := []Config{
		smallConfig(),
		{SizeBytes: 8192, Ways: 16, LineBytes: 64, NumThreads: 4},
		{SizeBytes: 4096, Ways: 8, LineBytes: 32, NumThreads: 8},
	}
	f := func(seed uint64, modeBit bool, retarget bool) bool {
		for _, cfg := range cfgs {
			mode := SharedLRU
			if modeBit {
				mode = Partitioned
			}
			c, err := New(cfg, mode)
			if err != nil {
				return false
			}
			r := xrand.New(seed)
			for i := 0; i < 3000; i++ {
				if retarget && mode == Partitioned && i == 1500 {
					tg := make([]int, cfg.NumThreads)
					remaining := cfg.Ways
					for j := 0; j < cfg.NumThreads-1; j++ {
						tg[j] = r.Intn(remaining + 1)
						remaining -= tg[j]
					}
					tg[cfg.NumThreads-1] = remaining
					if err := c.SetTargets(tg); err != nil {
						return false
					}
				}
				c.Access(r.Intn(cfg.NumThreads), uint64(r.Intn(1<<14))*uint64(cfg.LineBytes), r.Bool(0.25))
			}
			if err := c.checkInvariants(); err != nil {
				t.Logf("invariant violation: %v", err)
				return false
			}
			st := c.Stats().Totals()
			if st.Hits+st.Misses != st.Accesses {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: a partitioned cache with equal targets and a shared cache
// agree on which addresses are resident when only one thread accesses
// the cache (partitioning must be a no-op for single-thread streams).
func TestQuickSingleThreadPartitionTransparent(t *testing.T) {
	cfg := Config{SizeBytes: 2048, Ways: 4, LineBytes: 64, NumThreads: 1}
	f := func(seed uint64) bool {
		shared, err1 := New(cfg, SharedLRU)
		part, err2 := New(cfg, Partitioned)
		if err1 != nil || err2 != nil {
			return false
		}
		r := xrand.New(seed)
		addrs := make([]uint64, 0, 400)
		for i := 0; i < 400; i++ {
			a := uint64(r.Intn(1<<12) * 64)
			addrs = append(addrs, a)
			rs := shared.Access(0, a, false)
			rp := part.Access(0, a, false)
			if rs.Hit != rp.Hit {
				return false
			}
		}
		for _, a := range addrs {
			if shared.Contains(a) != part.Contains(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAccessShared(b *testing.B) {
	cfg := Config{SizeBytes: 1 << 20, Ways: 64, LineBytes: 64, NumThreads: 4}
	c, err := New(cfg, SharedLRU)
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
		c.Access(i&3, addrs[i&4095], false)
	}
}

func BenchmarkAccessPartitioned(b *testing.B) {
	cfg := Config{SizeBytes: 1 << 20, Ways: 64, LineBytes: 64, NumThreads: 4}
	c, err := New(cfg, Partitioned)
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
		c.Access(i&3, addrs[i&4095], false)
	}
}

func TestPartitionedMaskConfinesFills(t *testing.T) {
	cfg := smallConfig() // 4 sets, 4 ways
	c, err := New(cfg, PartitionedMask)
	if err != nil {
		t.Fatal(err)
	}
	// Masks: thread 0 -> ways [0,2), thread 1 -> [2,4), others empty.
	if err := c.SetTargets([]int{2, 2, 0, 0}); err != nil {
		t.Fatal(err)
	}
	// Thread 0 streams many lines through set 0: it may only ever hold
	// two of them (its two masked ways).
	for tag := uint64(1); tag <= 20; tag++ {
		c.Access(0, addrFor(cfg, 0, tag), false)
	}
	occ := c.Occupancy()
	if occ[0] > 2*cfg.Sets() {
		t.Errorf("masked thread 0 owns %d lines, max %d", occ[0], 2*cfg.Sets())
	}
	// Thread 1 then fills its ways; thread 0's resident lines survive
	// (thread 1 cannot victimise ways outside its own mask).
	resident := []uint64{19, 20}
	for tag := uint64(31); tag <= 40; tag++ {
		c.Access(1, addrFor(cfg, 0, tag), false)
	}
	for _, tag := range resident {
		if !c.Contains(addrFor(cfg, 0, tag)) {
			t.Errorf("thread 0's line (tag %d) evicted by a masked sibling", tag)
		}
	}
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPartitionedMaskCrossHit(t *testing.T) {
	cfg := smallConfig()
	c, err := New(cfg, PartitionedMask)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetTargets([]int{2, 2, 0, 0}); err != nil {
		t.Fatal(err)
	}
	addr := addrFor(cfg, 0, 5)
	c.Access(0, addr, false)
	if res := c.Access(1, addr, false); !res.Hit {
		t.Error("mask mode blocked a cross-partition hit")
	}
}

func TestPartitionedMaskZeroTargetFallsBack(t *testing.T) {
	cfg := smallConfig()
	c, err := New(cfg, PartitionedMask)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetTargets([]int{4, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	// A zero-mask thread must still be able to fill (global LRU fallback).
	c.Access(1, addrFor(cfg, 0, 9), false)
	if !c.Contains(addrFor(cfg, 0, 9)) {
		t.Error("zero-mask thread's fill did not land")
	}
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPartitionedMaskModeString(t *testing.T) {
	if PartitionedMask.String() != "partitioned-mask" {
		t.Error("mask mode name wrong")
	}
}

func TestAccessors(t *testing.T) {
	cfg := smallConfig()
	c := mustNew(t, cfg, Partitioned)
	if c.Config() != cfg {
		t.Errorf("Config() = %+v", c.Config())
	}
	if c.Mode() != Partitioned {
		t.Errorf("Mode() = %v", c.Mode())
	}
}

func TestInvalidate(t *testing.T) {
	cfg := smallConfig()
	c := mustNew(t, cfg, SharedLRU)
	addr := addrFor(cfg, 1, 3)
	c.Access(0, addr, true) // dirty fill
	found, dirty := c.Invalidate(addr)
	if !found || !dirty {
		t.Errorf("Invalidate = (%v,%v), want (true,true)", found, dirty)
	}
	if c.Contains(addr) {
		t.Error("line survived invalidation")
	}
	// Second invalidate: not found.
	found, dirty = c.Invalidate(addr)
	if found || dirty {
		t.Errorf("re-Invalidate = (%v,%v), want (false,false)", found, dirty)
	}
	// Ownership counters stay consistent.
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
	// Clean line invalidation reports not-dirty.
	c.Access(2, addr, false)
	found, dirty = c.Invalidate(addr)
	if !found || dirty {
		t.Errorf("clean Invalidate = (%v,%v), want (true,false)", found, dirty)
	}
}

func TestTADIPModeString(t *testing.T) {
	if SharedTADIP.String() != "shared-tadip" {
		t.Error("tadip mode name wrong")
	}
}

func TestTADIPBimodalInsertionResistsStreaming(t *testing.T) {
	// One thread has a small hot set, another streams. Under TADIP the
	// streaming thread's selector should move to bimodal insertion, so
	// the hot thread keeps far more of its lines resident than under
	// plain shared LRU.
	cfg := Config{SizeBytes: 64 * 1024, Ways: 16, LineBytes: 64, NumThreads: 2}
	residency := func(mode Mode) int {
		c := mustNew(t, cfg, mode)
		hot := make([]uint64, 256) // 16 KB hot set
		for i := range hot {
			hot[i] = uint64(0x100000 + i*64)
		}
		streamAddr := uint64(0x4000000)
		for round := 0; round < 40; round++ {
			for _, a := range hot {
				c.Access(0, a, false)
			}
			// Thread 1 streams 4x the cache size per round.
			for i := 0; i < 4096; i++ {
				c.Access(1, streamAddr, false)
				streamAddr += 64
			}
		}
		resident := 0
		for _, a := range hot {
			if c.Contains(a) {
				resident++
			}
		}
		return resident
	}
	lru := residency(SharedLRU)
	tadip := residency(SharedTADIP)
	if tadip <= lru {
		t.Errorf("TADIP residency %d/256 not better than LRU's %d/256", tadip, lru)
	}
	if tadip < 200 {
		t.Errorf("TADIP kept only %d/256 hot lines against a streamer", tadip)
	}
}

func TestTADIPLeaderSetsSteerSelector(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 17, Ways: 4, LineBytes: 64, NumThreads: 2}
	c := mustNew(t, cfg, SharedTADIP)
	// Thrash thread 0 through its MRU-leader set (set index 0): every
	// miss there pushes its selector toward bimodal.
	for tag := uint64(0); tag < 2000; tag++ {
		c.Access(0, addrFor(cfg, 0, tag), false)
	}
	if c.psel[0] <= 0 {
		t.Errorf("psel[0] = %d, want positive (bimodal winning) after thrashing", c.psel[0])
	}
	// Thread 1 untouched.
	if c.psel[1] != 0 {
		t.Errorf("psel[1] = %d, want 0", c.psel[1])
	}
}

func TestTADIPInvariantsUnderTraffic(t *testing.T) {
	cfg := Config{SizeBytes: 8192, Ways: 8, LineBytes: 64, NumThreads: 4}
	c := mustNew(t, cfg, SharedTADIP)
	r := xrand.New(8)
	for i := 0; i < 20000; i++ {
		c.Access(r.Intn(4), uint64(r.Intn(1<<13))*64, r.Bool(0.25))
	}
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
	st := c.Stats().Totals()
	if st.Hits+st.Misses != st.Accesses {
		t.Error("stats inconsistent")
	}
}

func TestTADIPSetTargetsRejected(t *testing.T) {
	c := mustNew(t, smallConfig(), SharedTADIP)
	if err := c.SetTargets([]int{1, 1, 1, 1}); err == nil {
		t.Error("SetTargets on TADIP cache accepted")
	}
}

func TestHybridPartitionedTADIPInsertion(t *testing.T) {
	// Partitioned eviction control + TADIP insertion: partition
	// protection must still hold, and a streaming thread's fills within
	// its own partition must not flush its partition-mates... there are
	// none — but its own hot lines coexist with its stream.
	cfg := Config{SizeBytes: 64 * 1024, Ways: 16, LineBytes: 64, NumThreads: 2}
	c := mustNew(t, cfg, Partitioned)
	c.EnableTADIPInsertion()
	if err := c.SetTargets([]int{8, 8}); err != nil {
		t.Fatal(err)
	}
	// Thread 0 holds a hot set; thread 1 streams. Protection comes from
	// partitioning; TADIP additionally keeps thread 1's own partition
	// usable for its (tiny) reused head.
	hot := make([]uint64, 128)
	for i := range hot {
		hot[i] = uint64(0x100000 + i*64)
	}
	streamAddr := uint64(0x4000000)
	for round := 0; round < 30; round++ {
		for _, a := range hot {
			c.Access(0, a, false)
		}
		for i := 0; i < 2048; i++ {
			c.Access(1, streamAddr, false)
			streamAddr += 64
		}
	}
	resident := 0
	for _, a := range hot {
		if c.Contains(a) {
			resident++
		}
	}
	if resident < 120 {
		t.Errorf("hybrid kept only %d/128 protected hot lines", resident)
	}
	if err := c.checkInvariants(); err != nil {
		t.Error(err)
	}
}
