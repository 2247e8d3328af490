package cache

// Differential tests: the production cache is checked, access by
// access, against a deliberately naive reference model. The reference
// keeps each set as an explicit recency-ordered slice — no clocks, no
// ownership counters — so any bookkeeping bug in the optimized
// implementation shows up as a divergence.

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"intracache/internal/xrand"
)

// refCache is the golden model: per-set MRU-ordered slices.
type refCache struct {
	cfg     Config
	mode    Mode
	sets    [][]refLine // sets[s][0] is MRU
	targets []int
}

type refLine struct {
	tag   uint64
	owner int
}

func newRef(cfg Config, mode Mode) *refCache {
	return &refCache{
		cfg:     cfg,
		mode:    mode,
		sets:    make([][]refLine, cfg.Sets()),
		targets: EqualSplit(cfg.Ways, cfg.NumThreads),
	}
}

func (r *refCache) index(addr uint64) (int, uint64) {
	line := addr / uint64(r.cfg.LineBytes)
	return int(line % uint64(r.cfg.Sets())), line / uint64(r.cfg.Sets())
}

func (r *refCache) owned(set []refLine, thread int) int {
	n := 0
	for _, ln := range set {
		if ln.owner == thread {
			n++
		}
	}
	return n
}

// access returns hit.
func (r *refCache) access(thread int, addr uint64) bool {
	s, tag := r.index(addr)
	set := r.sets[s]
	for i, ln := range set {
		if ln.tag == tag {
			// Move to MRU.
			copy(set[1:i+1], set[:i])
			set[0] = refLine{tag: tag, owner: ln.owner}
			return true
		}
	}
	// Miss: insert at MRU; evict if full.
	if len(set) < r.cfg.Ways {
		r.sets[s] = append([]refLine{{tag, thread}}, set...)
		return false
	}
	victim := len(set) - 1 // global LRU position
	if r.mode == Partitioned {
		victim = r.pickVictim(set, thread)
	}
	set = append(set[:victim], set[victim+1:]...)
	r.sets[s] = append([]refLine{{tag, thread}}, set...)
	return false
}

// pickVictim mirrors the Section V policy on the recency-ordered set:
// the last (most LRU) line satisfying the filter.
func (r *refCache) pickVictim(set []refLine, thread int) int {
	lruWhere := func(keep func(refLine) bool) int {
		for i := len(set) - 1; i >= 0; i-- {
			if keep(set[i]) {
				return i
			}
		}
		return -1
	}
	if r.owned(set, thread) < r.targets[thread] {
		if v := lruWhere(func(ln refLine) bool {
			return ln.owner != thread && r.owned(set, ln.owner) > r.targets[ln.owner]
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
	if v := lruWhere(func(ln refLine) bool { return r.owned(set, ln.owner) > r.targets[ln.owner] }); v >= 0 {
		return v
	}
	return len(set) - 1
}

func (r *refCache) setTargets(t []int) { copy(r.targets, t) }

// goldenConfigs covers both probe regimes: narrow caches probe by tag
// scan, wide ones (Ways >= idxMinWays) through the resident-line hash
// index. Both pick victims from the per-set recency lists.
var goldenConfigs = []Config{
	{SizeBytes: 4096, Ways: 8, LineBytes: 64, NumThreads: 4},
	{SizeBytes: 1 << 16, Ways: 64, LineBytes: 64, NumThreads: 4},
}

// TestGoldenSharedLRU drives random traffic through both
// implementations in shared mode and demands identical hit/miss
// outcomes on every access.
func TestGoldenSharedLRU(t *testing.T) {
	for _, cfg := range goldenConfigs {
		c, err := New(cfg, SharedLRU)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(cfg, SharedLRU)
		r := xrand.New(1234)
		for i := 0; i < 50_000; i++ {
			thread := r.Intn(4)
			addr := uint64(r.Intn(1<<13)) * 64
			got := c.Access(thread, addr, false).Hit
			want := ref.access(thread, addr)
			if got != want {
				t.Fatalf("%d-way access %d (thread %d, addr %#x): impl hit=%v, golden hit=%v",
					cfg.Ways, i, thread, addr, got, want)
			}
		}
		if err := c.checkInvariants(); err != nil {
			t.Error(err)
		}
	}
}

// TestGoldenPartitioned does the same in partitioned mode, including a
// mid-stream retarget.
func TestGoldenPartitioned(t *testing.T) {
	for _, cfg := range goldenConfigs {
		c, err := New(cfg, Partitioned)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRef(cfg, Partitioned)
		r := xrand.New(99)
		w := cfg.Ways
		targets := [][]int{
			{w / 4, w / 4, w / 4, w - 3*(w/4)},
			{w - 3, 1, 1, 1},
			{1, w/2 - 1, w/2 - 1, 1},
		}
		for phase, tg := range targets {
			if err := c.SetTargets(tg); err != nil {
				t.Fatal(err)
			}
			ref.setTargets(tg)
			for i := 0; i < 20_000; i++ {
				thread := r.Intn(4)
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

// TestAcceleratedPathEquivalence pins the lookup accelerators (the
// recency lists at every associativity, the hash index on wide caches)
// to the plain scan paths they replace: identical random traffic —
// accesses, writes, invalidations, retargets, and a snapshot/restore
// round trip — must produce identical AccessResults and byte-identical
// State in every mode, including the TADIP insertion machinery the
// golden model does not cover. The 4-way geometry is the simulator's
// private L1; the 8-way one is the widest below idxMinWays.
func TestAcceleratedPathEquivalence(t *testing.T) {
	cfgs := []Config{
		{SizeBytes: 4096, Ways: 4, LineBytes: 64, NumThreads: 4},
		{SizeBytes: 4096, Ways: 8, LineBytes: 64, NumThreads: 4},
		{SizeBytes: 1 << 16, Ways: 64, LineBytes: 64, NumThreads: 4},
	}
	for _, mode := range []Mode{SharedLRU, Partitioned, PartitionedMask, SharedTADIP} {
		t.Run(mode.String(), func(t *testing.T) {
			for _, cfg := range cfgs {
				t.Run(fmt.Sprintf("%d-way", cfg.Ways), func(t *testing.T) {
					testAcceleratedPath(t, cfg, mode)
				})
			}
		})
	}
}

// testAcceleratedPath runs one geometry and mode of
// TestAcceleratedPathEquivalence.
func testAcceleratedPath(t *testing.T, cfg Config, mode Mode) {
	fast, err := New(cfg, mode)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := New(cfg, mode)
	if err != nil {
		t.Fatal(err)
	}
	// Force the control cache onto the scan paths. idxSlot is
	// nil'd (not just idxOK) so Restore rebuilds cannot
	// re-enable the index.
	slow.idxSlot = nil
	slow.idxOK = false
	slow.lruOn = false

	r := xrand.New(7 + uint64(mode))
	// Eight lines of address space per cache line: hits and misses both.
	span := 8 * cfg.SizeBytes / cfg.LineBytes
	randAddr := func() uint64 { return uint64(r.Intn(span)) * 64 }
	for i := 0; i < 60_000; i++ {
		switch op := r.Intn(1000); {
		case op < 10:
			addr := randAddr()
			f1, d1 := fast.Invalidate(addr)
			f2, d2 := slow.Invalidate(addr)
			if f1 != f2 || d1 != d2 {
				t.Fatalf("op %d: Invalidate(%#x) = %v,%v vs %v,%v", i, addr, f1, d1, f2, d2)
			}
		case op < 13 && (mode == Partitioned || mode == PartitionedMask):
			a := r.Intn(cfg.Ways + 1)
			b := r.Intn(cfg.Ways + 1 - a)
			c2 := r.Intn(cfg.Ways + 1 - a - b)
			tg := []int{a, b, c2, cfg.Ways - a - b - c2}
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
	// Restore into a fresh cache (which must rebuild its derived
	// structures from the snapshot alone), then more traffic to prove
	// the rebuilt structures still track the scan paths.
	fast, err = New(cfg, mode)
	if err != nil {
		t.Fatal(err)
	}
	if err := fast.Restore(ss); err != nil {
		t.Fatal(err)
	}
	if err := fast.checkInvariants(); err != nil {
		t.Error(err)
	}
	for i := 0; i < 5_000; i++ {
		thread := r.Intn(cfg.NumThreads)
		addr := randAddr()
		got := fast.Access(thread, addr, false)
		want := slow.Access(thread, addr, false)
		if got != want {
			t.Fatalf("post-restore op %d: %+v vs %+v", i, got, want)
		}
	}
}

// Property: golden equivalence holds for arbitrary seeds and random
// valid targets in both modes.
func TestQuickGoldenEquivalence(t *testing.T) {
	cfg := Config{SizeBytes: 2048, Ways: 4, LineBytes: 64, NumThreads: 3}
	f := func(seed uint64, partitioned bool) bool {
		mode := SharedLRU
		if partitioned {
			mode = Partitioned
		}
		c, err := New(cfg, mode)
		if err != nil {
			return false
		}
		ref := newRef(cfg, mode)
		r := xrand.New(seed)
		if partitioned {
			tg := []int{1 + r.Intn(2), 1, 0}
			tg[2] = cfg.Ways - tg[0] - tg[1]
			if err := c.SetTargets(tg); err != nil {
				return false
			}
			ref.setTargets(tg)
		}
		for i := 0; i < 5_000; i++ {
			thread := r.Intn(3)
			addr := uint64(r.Intn(1<<11)) * 64
			if c.Access(thread, addr, false).Hit != ref.access(thread, addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
