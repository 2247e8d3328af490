package cache

// Mechanism suite: quantizer/layout properties, differential reference
// models for the set-index and clustered geometries, cross-mechanism
// invariants (capacity conserved, no cross-partition eviction, Restore
// rebuilds derived state), and a byte-identity pin that the
// way-granular modes behave exactly as they did before the mechanism
// abstraction landed. The mechanism leg of the determinism CI matrix
// runs everything here under -race and again under GOMAXPROCS=1.

import (
	"fmt"
	"hash/crc64"
	"math/bits"
	"reflect"
	"testing"

	"intracache/internal/xrand"
)

func TestMechanismParseRoundTrip(t *testing.T) {
	for _, m := range Mechanisms() {
		got, err := ParseMechanism(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMechanism(%q) = %v, %v", m.String(), got, err)
		}
		txt, err := m.MarshalText()
		if err != nil || string(txt) != m.String() {
			t.Errorf("MarshalText(%v) = %q, %v", m, txt, err)
		}
		var back Mechanism
		if err := back.UnmarshalText(txt); err != nil || back != m {
			t.Errorf("UnmarshalText(%q) = %v, %v", txt, back, err)
		}
	}
	if _, err := ParseMechanism("slices"); err == nil {
		t.Error("ParseMechanism accepted an unknown name")
	}
	var m Mechanism
	if err := m.UnmarshalText(nil); err != nil || m != MechWays {
		t.Errorf("empty mechanism decoded to %v, %v (want ways)", m, err)
	}
}

func TestMechanismQuantizePow2(t *testing.T) {
	check := func(desired []int, quanta int) []int {
		t.Helper()
		got := QuantizePow2(desired, quanta)
		sum := 0
		for i, c := range got {
			if c < 1 || bits.OnesCount(uint(c)) != 1 {
				t.Fatalf("QuantizePow2(%v, %d)[%d] = %d, not a positive power of two", desired, quanta, i, c)
			}
			sum += c
		}
		if sum != quanta {
			t.Fatalf("QuantizePow2(%v, %d) sums to %d", desired, quanta, sum)
		}
		return got
	}
	if got := check([]int{16, 16, 16, 16}, 64); !reflect.DeepEqual(got, []int{16, 16, 16, 16}) {
		t.Errorf("equal desires split unevenly: %v", got)
	}
	if got := check([]int{62, 1, 1}, 64); !reflect.DeepEqual(got, []int{32, 16, 16}) {
		t.Errorf("dominant desire did not dominate: %v", got)
	}
	// Two powers of two summing to a power of two must be equal, so any
	// two-claimant split is forced to 50/50 regardless of desires.
	if got := check([]int{0, 64}, 64); !reflect.DeepEqual(got, []int{32, 32}) {
		t.Errorf("two-claimant quantization %v, want the forced equal split", got)
	}
	r := xrand.New(41)
	for i := 0; i < 200; i++ {
		n := 1 + r.Intn(8)
		quanta := 1 << (3 + r.Intn(5)) // 8..128
		if quanta < n {
			continue
		}
		desired := make([]int, n)
		for j := range desired {
			desired[j] = r.Intn(quanta + 1)
		}
		got := check(desired, quanta)
		// Larger desires never receive fewer quanta than smaller ones
		// would force: monotone up to the pow2 rounding — check the
		// weaker, exact property that a strictly larger desire never
		// ends with less than half the count of a strictly smaller one.
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if desired[a] > desired[b] && got[a]*2 < got[b] {
					t.Fatalf("QuantizePow2(%v, %d) = %v: claimant %d (desire %d) got %d, claimant %d (desire %d) got %d",
						desired, quanta, got, a, desired[a], got[a], b, desired[b], got[b])
				}
			}
		}
	}
}

func TestMechanismAlignedStarts(t *testing.T) {
	r := xrand.New(43)
	for i := 0; i < 200; i++ {
		n := 1 + r.Intn(8)
		quanta := 1 << (3 + r.Intn(5))
		if quanta < n {
			continue
		}
		desired := make([]int, n)
		for j := range desired {
			desired[j] = r.Intn(quanta + 1)
		}
		counts := QuantizePow2(desired, quanta)
		starts := AlignedStarts(counts)
		covered := make([]bool, quanta)
		for t2 := 0; t2 < n; t2++ {
			if starts[t2]%counts[t2] != 0 {
				t.Fatalf("AlignedStarts(%v) = %v: range %d starts at %d, not aligned to %d",
					counts, starts, t2, starts[t2], counts[t2])
			}
			for g := starts[t2]; g < starts[t2]+counts[t2]; g++ {
				if covered[g] {
					t.Fatalf("AlignedStarts(%v) = %v: group %d assigned twice", counts, starts, g)
				}
				covered[g] = true
			}
		}
		for g, ok := range covered {
			if !ok {
				t.Fatalf("AlignedStarts(%v) = %v: group %d unassigned", counts, starts, g)
			}
		}
	}
}

func TestClusterWaySpread(t *testing.T) {
	r := xrand.New(47)
	for i := 0; i < 200; i++ {
		nt := 1 + r.Intn(6)
		clusters := 1 << r.Intn(5)
		ways := 1 + r.Intn(16)
		quanta := randComposition(r, ways*clusters, nt)
		out := SpreadClusterWays(quanta, clusters, ways)
		perThread := make([]int, nt)
		for cl := 0; cl < clusters; cl++ {
			sum := 0
			for t2 := 0; t2 < nt; t2++ {
				v := out[cl*nt+t2]
				if v < 0 {
					t.Fatalf("SpreadClusterWays(%v, %d, %d): negative entry", quanta, clusters, ways)
				}
				sum += v
				perThread[t2] += v
			}
			if sum != ways {
				t.Fatalf("SpreadClusterWays(%v, %d, %d): cluster %d sums to %d, want %d",
					quanta, clusters, ways, cl, sum, ways)
			}
		}
		for t2 := 0; t2 < nt; t2++ {
			if perThread[t2] != quanta[t2] {
				t.Fatalf("SpreadClusterWays(%v, %d, %d): thread %d got %d total",
					quanta, clusters, ways, t2, perThread[t2])
			}
		}
	}
}

// randComposition returns a uniform-ish non-negative vector of length n
// summing to total.
func randComposition(r *xrand.Rand, total, n int) []int {
	out := make([]int, n)
	left := total
	for i := 0; i < n-1; i++ {
		out[i] = r.Intn(left + 1)
		left -= out[i]
	}
	out[n-1] = left
	return out
}

// mechanismGoldenHash drives a fixed mixed-op sequence through a cache
// and hashes the complete final State.
func mechanismGoldenHash(t *testing.T, cfg Config, mode Mode) uint64 {
	t.Helper()
	c, err := New(cfg, mode)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(0xC0FFEE ^ uint64(mode))
	for i := 0; i < 30_000; i++ {
		switch op := r.Intn(1000); {
		case op < 8:
			c.Invalidate(uint64(r.Intn(1<<13)) * 64)
		case op < 12 && (mode == Partitioned || mode == PartitionedMask || mode == PartitionedSets || mode == PartitionedCluster):
			if err := c.SetTargets(randComposition(r, c.Quanta(), cfg.NumThreads)); err != nil {
				t.Fatal(err)
			}
		default:
			c.Access(r.Intn(cfg.NumThreads), uint64(r.Intn(1<<13))*64, r.Bool(0.3))
		}
	}
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	return crc64.Checksum([]byte(fmt.Sprintf("%+v", c.State())), crc64.MakeTable(crc64.ECMA))
}

// TestMechanismGoldenWaysPinned pins the pre-existing way-granular
// modes byte-identical to their behavior before the mechanism
// abstraction landed: the exact constants below were produced by this
// sequence on the pre-change cache, so any drift in set indexing,
// victim selection, stats, or State layout fails loudly. Do not update
// these constants to make the test pass — a change here is a semantics
// change for every journaled result in existence.
func TestMechanismGoldenWaysPinned(t *testing.T) {
	type pin struct {
		cfg  Config
		mode Mode
		want uint64
	}
	pins := []pin{
		{goldenConfigs[0], SharedLRU, 0x6d71f66bbcb867a1},
		{goldenConfigs[0], Partitioned, 0x7afbb248a075f090},
		{goldenConfigs[1], SharedLRU, 0xff607a43638fc3be},
		{goldenConfigs[1], Partitioned, 0xa0d6759cab868545},
		{goldenConfigs[1], PartitionedMask, 0xfe6f666ae8ca487a},
		{goldenConfigs[1], SharedTADIP, 0xa729faf73de464db},
	}
	for _, p := range pins {
		got := mechanismGoldenHash(t, p.cfg, p.mode)
		if got != p.want {
			t.Errorf("%d-way %v state hash %#x, pinned %#x", p.cfg.Ways, p.mode, got, p.want)
		}
	}
}

// refSets is an independent naive model of set-index partitioning: the
// set is computed with plain integer arithmetic and each set is a
// recency-ordered slice, so the production bit-twiddled remap, hash
// index, and recency lists are all cross-checked.
type refSets struct {
	cfg        Config
	spg        int
	cnt, start []int
	sets       [][]refLine
}

func newRefSets(c *Cache) *refSets {
	cfg := c.Config()
	return &refSets{
		cfg:   cfg,
		spg:   cfg.Sets() / cfg.SetGroups,
		cnt:   c.Targets(),
		start: AlignedStarts(c.Targets()),
		sets:  make([][]refLine, cfg.Sets()),
	}
}

func (r *refSets) retarget(c *Cache) {
	r.cnt = c.Targets()
	r.start = AlignedStarts(r.cnt)
}

func (r *refSets) setFor(thread int, la uint64) int {
	grp := r.start[thread] + int((la/uint64(r.spg))%uint64(r.cnt[thread]))
	return grp*r.spg + int(la%uint64(r.spg))
}

func (r *refSets) access(thread int, addr uint64) bool {
	la := addr / uint64(r.cfg.LineBytes)
	s := r.setFor(thread, la)
	set := r.sets[s]
	for i, ln := range set {
		if ln.tag == la {
			copy(set[1:i+1], set[:i])
			set[0] = refLine{tag: la, owner: ln.owner}
			return true
		}
	}
	if len(set) < r.cfg.Ways {
		r.sets[s] = append([]refLine{{la, thread}}, set...)
		return false
	}
	set = set[:len(set)-1] // plain LRU within the owned set
	r.sets[s] = append([]refLine{{la, thread}}, set...)
	return false
}

// TestSetPartitionGolden checks the production set-index mode access by
// access against the naive model, through several repartitions.
func TestSetPartitionGolden(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 4096, Ways: 8, LineBytes: 64, NumThreads: 4, SetGroups: 8},
		{SizeBytes: 1 << 16, Ways: 64, LineBytes: 64, NumThreads: 4, SetGroups: 16},
		{SizeBytes: 1 << 18, Ways: 16, LineBytes: 64, NumThreads: 3, SetGroups: 64},
	} {
		c, err := New(cfg, PartitionedSets)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefSets(c)
		r := xrand.New(1000 + uint64(cfg.SizeBytes))
		for phase := 0; phase < 3; phase++ {
			if phase > 0 {
				if err := c.SetTargets(randComposition(r, c.Quanta(), cfg.NumThreads)); err != nil {
					t.Fatal(err)
				}
				ref.retarget(c)
			}
			for i := 0; i < 20_000; i++ {
				thread := r.Intn(cfg.NumThreads)
				addr := uint64(r.Intn(1<<14)) * 64
				got := c.Access(thread, addr, false).Hit
				want := ref.access(thread, addr)
				if got != want {
					t.Fatalf("cfg %+v phase %d access %d (thread %d, addr %#x): impl hit=%v, golden hit=%v",
						cfg, phase, i, thread, addr, got, want)
				}
			}
		}
		if err := c.checkInvariants(); err != nil {
			t.Error(err)
		}
	}
}

// TestSetPartitionIsolation is the binding property of set-index
// partitioning: another thread's traffic — however hostile — cannot
// change a thread's hit/miss sequence, because partitions never share
// a set. The same thread-0 stream must produce identical AccessResults
// whether thread 1 thrashes alongside it or not.
func TestSetPartitionIsolation(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 16, Ways: 64, LineBytes: 64, NumThreads: 2, SetGroups: 4}
	alone, err := New(cfg, PartitionedSets)
	if err != nil {
		t.Fatal(err)
	}
	together, err := New(cfg, PartitionedSets)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(77)
	for i := 0; i < 40_000; i++ {
		addr0 := uint64(r.Intn(1<<12)) * 64
		want := alone.Access(0, addr0, false)
		got := together.Access(0, addr0, false)
		if got != want {
			t.Fatalf("access %d: thread 0 saw %+v with a neighbour, %+v alone", i, got, want)
		}
		// Thread 1 streams through a huge footprint between thread 0's
		// accesses: guaranteed misses and evictions on a shared cache.
		together.Access(1, uint64(i)*64*131, false)
	}
	st := together.Stats().Threads
	if st[0].InterThreadHits != 0 || st[0].InterThreadEvictons != 0 || st[0].EvictionsSuffered != st[0].EvictionsCaused {
		t.Errorf("cross-partition interaction recorded under set partitioning: %+v", st[0])
	}
}

// refClusterCache mirrors refCache but selects the way-target vector by
// the set's cluster, from the same spread the production cache derives.
type refClusterCache struct {
	cfg      Config
	clusters int
	sets     [][]refLine
	targets  []int // cluster-major, clusters*NumThreads
}

func newRefCluster(c *Cache) *refClusterCache {
	cfg := c.Config()
	return &refClusterCache{
		cfg:      cfg,
		clusters: cfg.Clusters,
		sets:     make([][]refLine, cfg.Sets()),
		targets:  SpreadClusterWays(c.Targets(), cfg.Clusters, cfg.Ways),
	}
}

func (r *refClusterCache) retarget(c *Cache) {
	r.targets = SpreadClusterWays(c.Targets(), r.cfg.Clusters, r.cfg.Ways)
}

func (r *refClusterCache) access(thread int, addr uint64) bool {
	la := addr / uint64(r.cfg.LineBytes)
	s := int(la % uint64(r.cfg.Sets()))
	tag := la / uint64(r.cfg.Sets())
	set := r.sets[s]
	for i, ln := range set {
		if ln.tag == tag {
			copy(set[1:i+1], set[:i])
			set[0] = refLine{tag: tag, owner: ln.owner}
			return true
		}
	}
	if len(set) < r.cfg.Ways {
		r.sets[s] = append([]refLine{{tag, thread}}, set...)
		return false
	}
	cl := s / (r.cfg.Sets() / r.clusters)
	tgt := r.targets[cl*r.cfg.NumThreads : (cl+1)*r.cfg.NumThreads]
	victim := r.pickVictim(set, thread, tgt)
	set = append(set[:victim], set[victim+1:]...)
	r.sets[s] = append([]refLine{{tag, thread}}, set...)
	return false
}

func (r *refClusterCache) owned(set []refLine, thread int) int {
	n := 0
	for _, ln := range set {
		if ln.owner == thread {
			n++
		}
	}
	return n
}

// pickVictim is the Section V policy against the cluster's targets.
func (r *refClusterCache) pickVictim(set []refLine, thread int, tgt []int) int {
	lruWhere := func(keep func(refLine) bool) int {
		for i := len(set) - 1; i >= 0; i-- {
			if keep(set[i]) {
				return i
			}
		}
		return -1
	}
	if r.owned(set, thread) < tgt[thread] {
		if v := lruWhere(func(ln refLine) bool {
			return ln.owner != thread && r.owned(set, ln.owner) > tgt[ln.owner]
		}); v >= 0 {
			return v
		}
		if v := lruWhere(func(ln refLine) bool { return ln.owner != thread }); v >= 0 {
			return v
		}
		return len(set) - 1
	}
	if v := lruWhere(func(ln refLine) bool { return ln.owner == thread }); v >= 0 {
		return v
	}
	if v := lruWhere(func(ln refLine) bool { return r.owned(set, ln.owner) > tgt[ln.owner] }); v >= 0 {
		return v
	}
	return len(set) - 1
}

// TestClusterWaysGolden checks clustered way-partitioning access by
// access against the naive model, through repartitions that exercise
// uneven cluster-way totals (the finer-than-ways capacity the
// mechanism exists for).
func TestClusterWaysGolden(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 4096, Ways: 8, LineBytes: 64, NumThreads: 4, Clusters: 2},
		{SizeBytes: 1 << 16, Ways: 64, LineBytes: 64, NumThreads: 4, Clusters: 8},
	} {
		c, err := New(cfg, PartitionedCluster)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefCluster(c)
		r := xrand.New(2000 + uint64(cfg.Ways))
		for phase := 0; phase < 3; phase++ {
			if phase > 0 {
				if err := c.SetTargets(randComposition(r, c.Quanta(), cfg.NumThreads)); err != nil {
					t.Fatal(err)
				}
				ref.retarget(c)
			}
			for i := 0; i < 20_000; i++ {
				thread := r.Intn(cfg.NumThreads)
				addr := uint64(r.Intn(1<<12)) * 64
				got := c.Access(thread, addr, false).Hit
				want := ref.access(thread, addr)
				if got != want {
					t.Fatalf("%d-way phase %d access %d (thread %d, addr %#x): impl hit=%v, golden hit=%v",
						cfg.Ways, phase, i, thread, addr, got, want)
				}
			}
		}
		if err := c.checkInvariants(); err != nil {
			t.Error(err)
		}
	}
}

// TestMechanismAcceleratedEquivalence pins the hash-index and
// recency-list accelerators to the scan paths under the two new
// geometries, exactly as TestAcceleratedPathEquivalence does for the
// way-granular modes.
func TestMechanismAcceleratedEquivalence(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 16, Ways: 64, LineBytes: 64, NumThreads: 4, SetGroups: 8, Clusters: 4}
	for _, mode := range []Mode{PartitionedSets, PartitionedCluster} {
		t.Run(mode.String(), func(t *testing.T) {
			fast, err := New(cfg, mode)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := New(cfg, mode)
			if err != nil {
				t.Fatal(err)
			}
			slow.idxSlot = nil
			slow.idxOK = false
			slow.lruOn = false

			r := xrand.New(7 + uint64(mode))
			randAddr := func() uint64 { return uint64(r.Intn(1<<13)) * 64 }
			for i := 0; i < 60_000; i++ {
				switch op := r.Intn(1000); {
				case op < 10:
					addr := randAddr()
					f1, d1 := fast.Invalidate(addr)
					f2, d2 := slow.Invalidate(addr)
					if f1 != f2 || d1 != d2 {
						t.Fatalf("op %d: Invalidate(%#x) = %v,%v vs %v,%v", i, addr, f1, d1, f2, d2)
					}
				case op < 13:
					tg := randComposition(r, fast.Quanta(), cfg.NumThreads)
					if err := fast.SetTargets(tg); err != nil {
						t.Fatal(err)
					}
					if err := slow.SetTargets(tg); err != nil {
						t.Fatal(err)
					}
				default:
					thread := r.Intn(cfg.NumThreads)
					addr := randAddr()
					write := r.Bool(0.3)
					got := fast.Access(thread, addr, write)
					want := slow.Access(thread, addr, write)
					if got != want {
						t.Fatalf("op %d (thread %d, addr %#x, write %v): %+v vs %+v",
							i, thread, addr, write, got, want)
					}
				}
			}
			fs, ss := fast.State(), slow.State()
			if !reflect.DeepEqual(fs, ss) {
				t.Fatal("states diverged between accelerated and scan paths")
			}
			if err := fast.checkInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestMechanismRestoreRoundTrip proves the crash-safety contract for
// all three mechanisms: State captures everything, Restore rebuilds
// the derived placements, and a restored cache is bit-identical in
// behavior to the original from that point on.
func TestMechanismRestoreRoundTrip(t *testing.T) {
	cfgs := map[Mode]Config{
		Partitioned:        {SizeBytes: 1 << 16, Ways: 64, LineBytes: 64, NumThreads: 4},
		PartitionedSets:    {SizeBytes: 1 << 16, Ways: 64, LineBytes: 64, NumThreads: 4, SetGroups: 16},
		PartitionedCluster: {SizeBytes: 1 << 16, Ways: 64, LineBytes: 64, NumThreads: 4, Clusters: 8},
	}
	for mode, cfg := range cfgs {
		t.Run(mode.String(), func(t *testing.T) {
			orig, err := New(cfg, mode)
			if err != nil {
				t.Fatal(err)
			}
			r := xrand.New(31 + uint64(mode))
			for i := 0; i < 30_000; i++ {
				if i%5000 == 4999 {
					if err := orig.SetTargets(randComposition(r, orig.Quanta(), cfg.NumThreads)); err != nil {
						t.Fatal(err)
					}
				}
				orig.Access(r.Intn(cfg.NumThreads), uint64(r.Intn(1<<13))*64, r.Bool(0.2))
			}
			st := orig.State()
			resumed, err := New(cfg, mode)
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.Restore(st); err != nil {
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

// TestMechanismRestoreRejectsBadTargets: a snapshot whose target vector
// violates the mode's feasibility rules must be refused, not limp along
// with a nonsense derived layout.
func TestMechanismRestoreRejectsBadTargets(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 16, Ways: 64, LineBytes: 64, NumThreads: 4, SetGroups: 16, Clusters: 8}
	for mode, bad := range map[Mode][]int{
		PartitionedSets:    {3, 5, 4, 4},   // not powers of two
		PartitionedCluster: {512, 1, 1, 1}, // sum != Ways*Clusters
	} {
		c, err := New(cfg, mode)
		if err != nil {
			t.Fatal(err)
		}
		st := c.State()
		st.Target = bad
		if err := c.Restore(st); err == nil {
			t.Errorf("%v: Restore accepted infeasible targets %v", mode, bad)
		}
	}
}

// TestMechanismCapacityConserved: under every mechanism, installed
// targets always sum to Quanta and the occupancy never exceeds the
// physical line count — through arbitrary repartition sequences.
func TestMechanismCapacityConserved(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 16, Ways: 64, LineBytes: 64, NumThreads: 4, SetGroups: 16, Clusters: 8}
	lines := cfg.Sets() * cfg.Ways
	for _, mode := range []Mode{Partitioned, PartitionedSets, PartitionedCluster} {
		c, err := New(cfg, mode)
		if err != nil {
			t.Fatal(err)
		}
		r := xrand.New(uint64(17 + mode))
		for round := 0; round < 50; round++ {
			if err := c.SetTargets(randComposition(r, c.Quanta(), cfg.NumThreads)); err != nil {
				t.Fatal(err)
			}
			sum := 0
			for _, q := range c.Targets() {
				sum += q
			}
			if sum != c.Quanta() {
				t.Fatalf("%v: installed targets sum to %d, want %d", mode, sum, c.Quanta())
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

// TestMechanismQuantaAndDefaults pins the quantum accounting and the
// default geometry normalization.
func TestMechanismQuantaAndDefaults(t *testing.T) {
	base := Config{SizeBytes: 1 << 18, Ways: 16, LineBytes: 64, NumThreads: 4} // 256 sets
	w, err := New(base, Partitioned)
	if err != nil {
		t.Fatal(err)
	}
	if w.Quanta() != 16 || w.Mechanism() != MechWays {
		t.Errorf("ways cache: quanta %d mechanism %v", w.Quanta(), w.Mechanism())
	}
	s, err := New(base, PartitionedSets)
	if err != nil {
		t.Fatal(err)
	}
	if s.Config().SetGroups != 64 || s.Quanta() != 64 || s.Mechanism() != MechSets {
		t.Errorf("sets cache: groups %d quanta %d mechanism %v", s.Config().SetGroups, s.Quanta(), s.Mechanism())
	}
	cl, err := New(base, PartitionedCluster)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Config().Clusters != 8 || cl.Quanta() != 16*8 || cl.Mechanism() != MechCluster {
		t.Errorf("cluster cache: clusters %d quanta %d mechanism %v", cl.Config().Clusters, cl.Quanta(), cl.Mechanism())
	}
	// A tiny cache defaults below the caps.
	tiny := Config{SizeBytes: 2048, Ways: 8, LineBytes: 64, NumThreads: 2} // 4 sets
	ts, err := New(tiny, PartitionedSets)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Config().SetGroups != 4 {
		t.Errorf("tiny sets cache defaulted to %d groups, want 4", ts.Config().SetGroups)
	}
	tc, err := New(tiny, PartitionedCluster)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Config().Clusters != 4 {
		t.Errorf("tiny cluster cache defaulted to %d clusters, want 4", tc.Config().Clusters)
	}
	// Too few groups for the thread count is a construction error.
	if _, err := New(Config{SizeBytes: 2048, Ways: 8, LineBytes: 64, NumThreads: 2, SetGroups: 1}, PartitionedSets); err == nil {
		t.Error("New accepted fewer set groups than threads")
	}
}
