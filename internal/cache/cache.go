// Package cache implements the set-associative caches of the simulated
// CMP, including the paper's way-partitioning hardware (Section V).
//
// Partitioning is implicit, via the replacement policy: each set keeps a
// per-thread count of the ways it currently owns, plus a per-thread
// *target* way assignment shared by all sets. On a miss, if the filling
// thread owns fewer ways in the set than its target, the victim is the
// LRU line owned by some *other* thread (preferring threads that exceed
// their own target); otherwise the victim is the thread's own LRU line.
// The cache therefore converges gradually toward the target partition,
// with no flush or reconfiguration stall. Any thread may *hit* on any
// resident line regardless of owner — partitioning is eviction control
// only — which is what lets a partitioned shared cache retain the
// constructive-sharing benefit of a plain shared cache while blocking
// destructive inter-thread evictions.
package cache

import (
	"fmt"
	"math/bits"
	"sort"
)

// Mode selects the replacement regime.
type Mode int

const (
	// SharedLRU is a conventional unpartitioned cache with global LRU
	// replacement (the paper's "shared cache" baseline).
	SharedLRU Mode = iota
	// Partitioned enforces per-thread way targets through replacement
	// (the paper's Section V mechanism).
	Partitioned
	// PartitionedMask enforces targets with contiguous per-thread way
	// masks, the mechanism of commercial cache-allocation hardware
	// (e.g. Intel CAT): a miss may only fill the thread's masked ways.
	// Hits are still allowed anywhere. Compared to the paper's
	// eviction-control scheme, masks also *pin* each thread's fills to
	// fixed way positions, so repartitioning moves data less gracefully
	// — exactly the trade-off the mask ablation benchmark measures.
	PartitionedMask
	// SharedTADIP is an unpartitioned shared cache managed by
	// thread-aware dynamic insertion (TADIP, the paper's related work
	// [17]/[22]): eviction is global LRU, but each thread's fills are
	// inserted either at MRU (conventional) or at LRU with occasional
	// MRU promotion (bimodal insertion, which keeps a thrashing
	// thread's dead lines from flushing everyone else). Per-thread
	// set-dueling chooses the better insertion policy online.
	SharedTADIP
	// PartitionedSets partitions by set index instead of by way: each
	// thread owns a contiguous aligned range of Config.SetGroups
	// power-of-two set groups, selected by fixed index bits, and its
	// accesses are steered into that range only. Within a set,
	// replacement is plain LRU — isolation comes entirely from the
	// index mapping, so threads can never evict each other, at the cost
	// of power-of-two capacity granularity and no constructive sharing
	// (each thread caches its own replica of shared data, as on a
	// private cache). Repartitioning remaps future accesses; stale
	// lines age out of their old sets with no flush.
	PartitionedSets
	// PartitionedCluster is clustered way-partitioning: sets are
	// grouped into Config.Clusters contiguous clusters, and the
	// eviction-control scheme of Partitioned runs with an independent
	// way target per (cluster, thread). A thread's capacity quantum is
	// one way in one cluster — 1/Clusters of a full way — so the
	// allocator can hand out finer-than-way capacity. Hits are still
	// allowed anywhere, preserving constructive sharing.
	PartitionedCluster
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case SharedLRU:
		return "shared-lru"
	case Partitioned:
		return "partitioned"
	case PartitionedMask:
		return "partitioned-mask"
	case SharedTADIP:
		return "shared-tadip"
	case PartitionedSets:
		return "partitioned-sets"
	case PartitionedCluster:
		return "partitioned-cluster"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config describes cache geometry.
type Config struct {
	SizeBytes  int // total capacity in bytes
	Ways       int // associativity; number of lines per set
	LineBytes  int // line size in bytes
	NumThreads int // number of threads that may access the cache

	// SetGroups is the number of aligned power-of-two set groups the
	// PartitionedSets mode divides capacity into (its quantum count).
	// Zero means "mechanism default" (min(sets, 64)); other modes
	// ignore it.
	SetGroups int
	// Clusters is the number of contiguous set clusters the
	// PartitionedCluster mode assigns per-cluster way targets over.
	// Zero means "mechanism default" (min(sets, 8)); other modes
	// ignore it.
	Clusters int
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0:
		return fmt.Errorf("cache: SizeBytes %d must be positive", c.SizeBytes)
	case c.Ways <= 0:
		return fmt.Errorf("cache: Ways %d must be positive", c.Ways)
	case c.LineBytes <= 0 || bits.OnesCount(uint(c.LineBytes)) != 1:
		return fmt.Errorf("cache: LineBytes %d must be a positive power of two", c.LineBytes)
	case c.NumThreads <= 0:
		return fmt.Errorf("cache: NumThreads %d must be positive", c.NumThreads)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines*c.LineBytes != c.SizeBytes {
		return fmt.Errorf("cache: SizeBytes %d not a multiple of LineBytes %d", c.SizeBytes, c.LineBytes)
	}
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, c.Ways)
	}
	sets := lines / c.Ways
	if bits.OnesCount(uint(sets)) != 1 {
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	if c.SetGroups != 0 && (bits.OnesCount(uint(c.SetGroups)) != 1 || c.SetGroups > sets) {
		return fmt.Errorf("cache: SetGroups %d must be a power of two no larger than %d sets", c.SetGroups, sets)
	}
	if c.Clusters != 0 && (bits.OnesCount(uint(c.Clusters)) != 1 || c.Clusters > sets) {
		return fmt.Errorf("cache: Clusters %d must be a power of two no larger than %d sets", c.Clusters, sets)
	}
	return nil
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / c.LineBytes / c.Ways }

// Cache line metadata lives in parallel arrays (struct-of-arrays), one
// entry per line in set-major order. The hot paths are linear scans
// over one attribute at a time — tag probes on hits, lastUse/owner
// scans on victim selection — and with a 64-way L2 an array-of-structs
// layout made every such scan stride across the whole 24-byte struct.
// Splitting the attributes keeps each scan contiguous and narrow.

// AccessResult describes the outcome of one cache access.
type AccessResult struct {
	Hit bool
	// InterThread is true when the previous access to the same resident
	// line came from a different thread (the paper's "inter-thread
	// cache interaction"; always a hit by construction).
	InterThread bool
	// Evicted is true when the access caused a replacement of a valid line.
	Evicted bool
	// InterThreadEviction is true when the evicted line's most recent
	// accessor was a different thread (a "destructive" interaction).
	InterThreadEviction bool
}

// ThreadStats holds per-thread cumulative counters.
type ThreadStats struct {
	Accesses            uint64
	Hits                uint64
	Misses              uint64
	InterThreadHits     uint64 // accesses that hit a line last touched by another thread
	EvictionsCaused     uint64 // valid lines this thread replaced
	InterThreadEvictons uint64 // of those, lines last touched by another thread
	EvictionsSuffered   uint64 // this thread's lines replaced by anyone
}

// Stats aggregates cumulative cache counters.
type Stats struct {
	Threads []ThreadStats
}

// Totals sums the per-thread counters.
func (s Stats) Totals() ThreadStats {
	var t ThreadStats
	for _, ts := range s.Threads {
		t.Accesses += ts.Accesses
		t.Hits += ts.Hits
		t.Misses += ts.Misses
		t.InterThreadHits += ts.InterThreadHits
		t.EvictionsCaused += ts.EvictionsCaused
		t.InterThreadEvictons += ts.InterThreadEvictons
		t.EvictionsSuffered += ts.EvictionsSuffered
	}
	return t
}

// InterThreadInteractionFraction returns the fraction of all accesses
// that were inter-thread interactions (constructive hits plus
// destructive evictions), the quantity the paper plots in Fig. 8.
func (s Stats) InterThreadInteractionFraction() float64 {
	t := s.Totals()
	if t.Accesses == 0 {
		return 0
	}
	return float64(t.InterThreadHits+t.InterThreadEvictons) / float64(t.Accesses)
}

// ConstructiveFraction returns the constructive share of inter-thread
// interactions (Fig. 9): hits on another thread's data divided by all
// inter-thread interactions.
func (s Stats) ConstructiveFraction() float64 {
	t := s.Totals()
	inter := t.InterThreadHits + t.InterThreadEvictons
	if inter == 0 {
		return 0
	}
	return float64(t.InterThreadHits) / float64(inter)
}

// Cache is a set-associative cache with optional way partitioning.
// It is not safe for concurrent use; the simulator serialises accesses
// in global cycle order, which is exactly the behaviour being modelled.
type Cache struct {
	cfg      Config
	mode     Mode
	ownCount []int16 // numSets * numThreads, lines owned per thread per set
	// target holds the per-thread capacity-quantum targets: ways for
	// the way-granular modes, set-group counts for PartitionedSets,
	// cluster-way totals for PartitionedCluster. It is the only
	// serialized partitioning state; the placements below derive from
	// it (see layoutRebuild).
	target []int
	// PartitionedSets placement: setStart[t] is thread t's first set
	// group (target[t] groups, aligned), spgBits is log2 of the sets
	// per group. PartitionedCluster placement: clusterTarget is the
	// cluster-major per-(cluster, thread) way-target matrix and
	// set>>clShift is a set's cluster.
	setStart      []int
	spgBits       uint
	clusterTarget []int
	clShift       uint
	numSets       int
	setMask       uint64
	lineBits      uint
	setBits       uint
	clock         uint64
	stats         Stats

	// Per-line attributes, numSets * ways entries each, set-major.
	// tagv is the probe word: (tag<<1)|1 when the line is valid, 0 when
	// it is not, so a hit probe and the invalid-way scan each compare
	// one word per way. tags carries the full-width tag (tagv's shift
	// drops tag bit 63, reachable only in the degenerate one-set,
	// one-byte-line geometry — mayAlias gates a re-verify for exactly
	// that case). A line is invalid iff its tagv word is 0; invalid
	// lines hold zeroes in every attribute, matching the zero line
	// struct the array-of-structs layout used to reset to.
	tagv    []uint64
	tags    []uint64
	lastUse []uint64
	owner   []int16
	lastAcc []int16 // thread of the most recent access (for interaction stats)
	dirty   []bool

	mayAlias bool

	// Wide-associativity caches additionally keep an open-addressing
	// (linear probing, backward-shift deletion) hash table mapping the
	// line address of every resident line to its global line index, so a
	// probe is one expected-O(1) lookup instead of a scan across Ways tag
	// words. The table is a pure lookup accelerator: it changes no
	// observable behaviour, is maintained on fill/evict/invalidate, and
	// is rebuilt (never serialized) on Restore. idxOK gates its use;
	// Restore turns it off if a snapshot holds duplicate resident lines
	// (impossible through normal operation, representable in a crafted
	// State), falling back to the scan paths whose first-index semantics
	// duplicates would otherwise break.
	idxKeys    []uint64
	idxSlot    []int32
	idxTabMask uint64
	idxShift   uint
	idxOK      bool

	// Every cache also threads each set's valid lines onto an exact LRU
	// recency list (intrusive doubly-linked, way indices): traversing
	// from lruTail yields the set's lines in strictly ascending
	// (lastUse, way) order — the same order the victim scans' strict-<
	// argmin resolves ties in — so victim selection is O(1) for global
	// LRU and a short predicate walk for partitioned modes, instead of a
	// Ways-wide scan per miss. Every runtime update assigns a line a
	// unique extreme recency (hits/MRU fills the maximum, TADIP LRU
	// fills a new minimum), so ties only arise from restored snapshots;
	// lruRebuild orders those by (lastUse, way) explicitly. Like the
	// hash index, the list changes no observable behaviour and is
	// derived state, rebuilt (never serialized) on Restore. lruOn is
	// false only in tests, which turn it off to run the Ways-wide scans
	// the lists replace as their reference.
	lruOn   bool
	lruPrev []int16 // per line: way one step MRU-ward, -1 at head
	lruNext []int16 // per line: way one step LRU-ward, -1 at tail
	lruHead []int16 // per set: MRU way, -1 when no valid lines
	lruTail []int16 // per set: LRU way, -1 when no valid lines
	lruLen  []int16 // per set: number of valid lines

	// TADIP insertion state: per-thread policy selectors and
	// bimodal-insertion counters. psel > 0 means bimodal insertion is
	// winning for that thread; see tadipInsertMRU. Active in
	// SharedTADIP mode or after EnableTADIPInsertion.
	tadipInsert bool
	psel        []int
	bipCount    []uint32
}

// New creates a cache in the given mode. For Partitioned mode the
// initial targets are an equal split (remainder ways distributed to the
// lowest-numbered threads).
func New(cfg Config, mode Mode) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch mode {
	case SharedLRU, Partitioned, PartitionedMask, SharedTADIP, PartitionedSets, PartitionedCluster:
	default:
		return nil, fmt.Errorf("cache: unknown mode %v", mode)
	}
	numSets := cfg.Sets()
	lines := numSets * cfg.Ways
	// The per-line and per-set int16 arrays share one allocation.
	i16 := make([]int16, 4*lines+3*numSets)
	carve := func(n int) []int16 {
		out := i16[:n:n]
		i16 = i16[n:]
		return out
	}
	c := &Cache{
		cfg:      cfg,
		mode:     mode,
		ownCount: make([]int16, numSets*cfg.NumThreads),
		target:   EqualSplit(cfg.Ways, cfg.NumThreads),
		numSets:  numSets,
		setMask:  uint64(numSets - 1),
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setBits:  uint(bits.TrailingZeros(uint(numSets))),
		stats:    Stats{Threads: make([]ThreadStats, cfg.NumThreads)},
		tagv:     make([]uint64, lines),
		tags:     make([]uint64, lines),
		lastUse:  make([]uint64, lines),
		owner:    carve(lines),
		lastAcc:  carve(lines),
		dirty:    make([]bool, lines),
		lruOn:    true,
		lruPrev:  carve(lines),
		lruNext:  carve(lines),
		lruHead:  carve(numSets),
		lruTail:  carve(numSets),
		lruLen:   carve(numSets),
	}
	for i := range c.lruPrev {
		c.lruPrev[i] = -1
		c.lruNext[i] = -1
	}
	for s := range c.lruHead {
		c.lruHead[s] = -1
		c.lruTail[s] = -1
	}
	c.mayAlias = c.lineBits+c.setBits == 0
	switch mode {
	case PartitionedSets:
		if c.cfg.SetGroups == 0 {
			c.cfg.SetGroups = numSets
			if c.cfg.SetGroups > defaultSetGroups {
				c.cfg.SetGroups = defaultSetGroups
			}
		}
		if c.cfg.SetGroups < cfg.NumThreads {
			return nil, fmt.Errorf("cache: %d set groups cannot hold %d threads (each needs at least one)",
				c.cfg.SetGroups, cfg.NumThreads)
		}
		c.spgBits = uint(bits.TrailingZeros(uint(numSets / c.cfg.SetGroups)))
		// The tag is the full line address in this mode (the set is no
		// longer a pure function of the address), so tagv's dropped top
		// bit matters whenever line addresses span all 64 bits.
		c.mayAlias = c.lineBits == 0
		c.target = QuantizePow2(EqualSplit(c.cfg.SetGroups, cfg.NumThreads), c.cfg.SetGroups)
	case PartitionedCluster:
		if c.cfg.Clusters == 0 {
			c.cfg.Clusters = numSets
			if c.cfg.Clusters > defaultClusters {
				c.cfg.Clusters = defaultClusters
			}
		}
		c.clShift = c.setBits - uint(bits.TrailingZeros(uint(c.cfg.Clusters)))
		c.target = EqualSplit(cfg.Ways*c.cfg.Clusters, cfg.NumThreads)
	}
	if err := c.layoutRebuild(); err != nil {
		return nil, err
	}
	useIdx := cfg.Ways >= idxMinWays
	if mode == PartitionedSets && c.lineBits < c.setBits {
		// The index key (tag<<setBits | set) would drop high
		// line-address bits in this geometry; keep the tag-scan paths.
		useIdx = false
	}
	if useIdx {
		tabLen := 1
		for tabLen < 2*lines {
			tabLen <<= 1
		}
		c.idxKeys = make([]uint64, tabLen)
		c.idxSlot = make([]int32, tabLen)
		for i := range c.idxSlot {
			c.idxSlot[i] = -1
		}
		c.idxTabMask = uint64(tabLen - 1)
		c.idxShift = uint(64 - bits.TrailingZeros(uint(tabLen)))
		c.idxOK = true
	}
	if mode == SharedTADIP {
		c.EnableTADIPInsertion()
	}
	return c, nil
}

// idxMinWays is the associativity at which the resident-line hash index
// is worth its footprint; below it the per-set tag scan is cheaper. The
// recency lists are kept at every associativity.
const idxMinWays = 16

// Default quantum counts for the set-index and clustered modes when
// Config leaves them zero, capped by the set count. 64 groups gives
// set-index partitioning the same nominal quantum count as the
// headline 64-way L2; 8 clusters makes one cluster-way an eighth of a
// way.
const (
	defaultSetGroups = 64
	defaultClusters  = 8
)

// idxHash is Fibonacci hashing into the resident-line table: the high
// bits of the golden-ratio product are well mixed even for the
// sequential line addresses synthetic workloads produce.
func (c *Cache) idxHash(la uint64) uint64 {
	return (la * 0x9e3779b97f4a7c15) >> c.idxShift
}

// idxLookup returns the global line index holding line address la, or
// -1 if the line is not resident.
func (c *Cache) idxLookup(la uint64) int32 {
	i := c.idxHash(la)
	for {
		s := c.idxSlot[i]
		if s < 0 {
			return -1
		}
		if c.idxKeys[i] == la {
			return s
		}
		i = (i + 1) & c.idxTabMask
	}
}

// idxInsert records that line address la is resident at global line
// index j. The caller guarantees la is not already in the table.
func (c *Cache) idxInsert(la uint64, j int32) {
	i := c.idxHash(la)
	for c.idxSlot[i] >= 0 {
		i = (i + 1) & c.idxTabMask
	}
	c.idxKeys[i] = la
	c.idxSlot[i] = j
}

// idxDelete removes line address la from the table, compacting the
// probe chain behind it (backward-shift deletion, so lookups never need
// tombstones).
func (c *Cache) idxDelete(la uint64) {
	mask := c.idxTabMask
	i := c.idxHash(la)
	for {
		if c.idxSlot[i] < 0 {
			return
		}
		if c.idxKeys[i] == la {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		c.idxSlot[i] = -1
		for {
			j = (j + 1) & mask
			if c.idxSlot[j] < 0 {
				return
			}
			// The entry at j may move back to the hole at i only if its
			// home slot lies cyclically at or before i, i.e. its current
			// probe distance covers the gap.
			if (j-c.idxHash(c.idxKeys[j]))&mask >= (j-i)&mask {
				c.idxKeys[i] = c.idxKeys[j]
				c.idxSlot[i] = c.idxSlot[j]
				i = j
				break
			}
		}
	}
}

// idxRebuild reconstructs the resident-line table from the line arrays
// (after Restore). Duplicate resident lines — representable only in
// crafted snapshots — disable the index so the scan paths' first-index
// semantics stay authoritative.
func (c *Cache) idxRebuild() {
	if c.idxSlot == nil {
		return
	}
	for i := range c.idxSlot {
		c.idxSlot[i] = -1
	}
	c.idxOK = true
	for j, tv := range c.tagv {
		if tv == 0 {
			continue
		}
		set := j / c.cfg.Ways
		la := c.tags[j]<<c.setBits | uint64(set)
		if c.idxLookup(la) >= 0 {
			c.idxOK = false
			return
		}
		c.idxInsert(la, int32(j))
	}
}

// lruUnlink removes way w from its set's recency list. The line must be
// on the list.
func (c *Cache) lruUnlink(set, w int) {
	base := set * c.cfg.Ways
	p, n := c.lruPrev[base+w], c.lruNext[base+w]
	if p >= 0 {
		c.lruNext[base+int(p)] = n
	} else {
		c.lruHead[set] = n
	}
	if n >= 0 {
		c.lruPrev[base+int(n)] = p
	} else {
		c.lruTail[set] = p
	}
	c.lruPrev[base+w] = -1
	c.lruNext[base+w] = -1
}

// lruPushHead links way w (not currently on the list) in at the MRU
// end. Correct whenever w's (lastUse, way) is the set's lex-maximum —
// true for every fill or hit at the current clock.
func (c *Cache) lruPushHead(set, w int) {
	base := set * c.cfg.Ways
	h := c.lruHead[set]
	c.lruPrev[base+w] = -1
	c.lruNext[base+w] = h
	if h >= 0 {
		c.lruPrev[base+int(h)] = int16(w)
	} else {
		c.lruTail[set] = int16(w)
	}
	c.lruHead[set] = int16(w)
}

// lruPushByValue links way w (not currently on the list) in at the
// position its (v, w) recency key sorts to — the general insertion for
// TADIP LRU-position fills, which normally terminate at the tail in one
// step because v is a fresh minimum. Equal lastUse values (possible
// only when a restored or zero-clock history pinned a line at recency
// 0) are ordered by way index, matching the scans' first-index ties.
func (c *Cache) lruPushByValue(set, w int, v uint64) {
	base := set * c.cfg.Ways
	use := c.lastUse[base : base+c.cfg.Ways]
	cur := c.lruTail[set]
	for cur >= 0 && (use[cur] < v || (use[cur] == v && int(cur) < w)) {
		cur = c.lruPrev[base+int(cur)]
	}
	if cur < 0 {
		c.lruPushHead(set, w)
		return
	}
	// Insert immediately LRU-ward of cur.
	n := c.lruNext[base+int(cur)]
	c.lruPrev[base+w] = cur
	c.lruNext[base+w] = n
	c.lruNext[base+int(cur)] = int16(w)
	if n >= 0 {
		c.lruPrev[base+int(n)] = int16(w)
	} else {
		c.lruTail[set] = int16(w)
	}
}

// lruRebuild reconstructs every set's recency list from the line arrays
// (after Restore), ordering each set's valid lines by (lastUse, way).
func (c *Cache) lruRebuild() {
	if !c.lruOn {
		return
	}
	ways := c.cfg.Ways
	order := make([]int16, 0, ways)
	for s := 0; s < c.numSets; s++ {
		base := s * ways
		order = order[:0]
		for w := 0; w < ways; w++ {
			c.lruPrev[base+w] = -1
			c.lruNext[base+w] = -1
			if c.tagv[base+w] != 0 {
				order = append(order, int16(w))
			}
		}
		use := c.lastUse[base : base+ways]
		sort.Slice(order, func(i, j int) bool {
			a, b := order[i], order[j]
			return use[a] < use[b] || (use[a] == use[b] && a < b)
		})
		c.lruHead[s] = -1
		c.lruTail[s] = -1
		c.lruLen[s] = int16(len(order))
		// order is ascending (LRU -> MRU); push each at the head.
		for _, w := range order {
			c.lruPushHead(s, int(w))
		}
	}
}

// EnableTADIPInsertion turns on thread-aware dynamic insertion for
// fills, independent of the eviction mode: with a Partitioned mode this
// yields the hybrid of the paper's partitioning (eviction control) and
// adaptive insertion (each thread's fills within its own share go to
// MRU or LRU position by set dueling).
func (c *Cache) EnableTADIPInsertion() {
	c.tadipInsert = true
	if c.psel == nil {
		c.psel = make([]int, c.cfg.NumThreads)
		c.bipCount = make([]uint32, c.cfg.NumThreads)
	}
}

// EqualSplit divides ways as evenly as possible among n threads, giving
// any remainder to the lowest-numbered threads. The result always sums
// to ways.
func EqualSplit(ways, n int) []int {
	out := make([]int, n)
	base, rem := ways/n, ways%n
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Mode returns the cache's replacement mode.
func (c *Cache) Mode() Mode { return c.mode }

// Targets returns a copy of the current per-thread way targets.
func (c *Cache) Targets() []int {
	out := make([]int, len(c.target))
	copy(out, c.target)
	return out
}

// SetTargets installs new per-thread capacity targets, in the cache's
// quantum unit (see Quanta): ways for the way-granular modes,
// set-group counts for PartitionedSets, cluster-way totals for
// PartitionedCluster. The targets must be non-negative and sum to
// Quanta. PartitionedSets quantizes the request to an aligned
// power-of-two layout (Targets reports what was installed); the other
// modes install it verbatim. Every repartition takes effect gradually
// through subsequent replacements — or, for PartitionedSets, through
// remapped future accesses — as in the paper's Section V. Calling
// SetTargets on an unpartitioned cache is an error.
func (c *Cache) SetTargets(targets []int) error {
	switch c.mode {
	case Partitioned, PartitionedMask, PartitionedSets, PartitionedCluster:
	default:
		return fmt.Errorf("cache: SetTargets on %v cache", c.mode)
	}
	if len(targets) != c.cfg.NumThreads {
		return fmt.Errorf("cache: %d targets for %d threads", len(targets), c.cfg.NumThreads)
	}
	sum := 0
	for i, t := range targets {
		if t < 0 {
			return fmt.Errorf("cache: negative target %d for thread %d", t, i)
		}
		sum += t
	}
	if q := c.Quanta(); sum != q {
		if q == c.cfg.Ways {
			return fmt.Errorf("cache: targets sum to %d, want %d ways", sum, q)
		}
		return fmt.Errorf("cache: targets sum to %d, want %d %s quanta", sum, q, c.Mechanism())
	}
	if c.mode == PartitionedSets {
		copy(c.target, QuantizePow2(targets, c.cfg.SetGroups))
	} else {
		copy(c.target, targets)
	}
	return c.layoutRebuild()
}

// Stats returns a copy of the cumulative counters.
func (c *Cache) Stats() Stats {
	out := Stats{Threads: make([]ThreadStats, len(c.stats.Threads))}
	copy(out.Threads, c.stats.Threads)
	return out
}

// ResetStats zeroes all counters without disturbing cache contents.
func (c *Cache) ResetStats() {
	for i := range c.stats.Threads {
		c.stats.Threads[i] = ThreadStats{}
	}
}

// addrIndex splits a byte address into set index and tag.
func (c *Cache) addrIndex(addr uint64) (set int, tag uint64) {
	lineAddr := addr >> c.lineBits
	return int(lineAddr & c.setMask), lineAddr >> c.setBits
}

// Access performs one access by `thread` to byte address addr and
// returns the outcome. On a miss the line is filled (allocate-on-miss
// for both reads and writes) and ownership transfers to the filler.
func (c *Cache) Access(thread int, addr uint64, write bool) AccessResult {
	if thread < 0 || thread >= c.cfg.NumThreads {
		panic(fmt.Sprintf("cache: thread %d out of range [0,%d)", thread, c.cfg.NumThreads))
	}
	c.clock++
	la := addr >> c.lineBits
	var set int
	var tag uint64
	if c.mode == PartitionedSets {
		// The set is chosen inside the thread's own group range and the
		// tag widens to the full line address (the set no longer
		// determines the address bits it replaced). Threads therefore
		// probe — and can hit — only their own partition.
		set = c.setsIndex(thread, la)
		tag = la
	} else {
		set = int(la & c.setMask)
		tag = la >> c.setBits
	}
	base := set * c.cfg.Ways
	ts := &c.stats.Threads[thread]
	ts.Accesses++

	// Probe for a hit: one hash lookup on wide caches, else a scan over
	// the packed tag words (see the tagv comment). Both resolve to the
	// same line — residency is unique outside crafted snapshots, and
	// those disable the index (see idxRebuild). The index key is the
	// (tag, set) pair; for every mode except PartitionedSets it
	// collapses to the plain line address.
	key := tag<<c.setBits | uint64(set)
	want := tag<<1 | 1
	hit := -1
	if c.idxOK {
		hit = int(c.idxLookup(key))
	} else {
		for i, tv := range c.tagv[base : base+c.cfg.Ways] {
			if tv != want {
				continue
			}
			if c.mayAlias && c.tags[base+i] != tag {
				continue
			}
			hit = base + i
			break
		}
	}
	if hit >= 0 {
		j := hit
		ts.Hits++
		res := AccessResult{Hit: true}
		if int(c.lastAcc[j]) != thread {
			res.InterThread = true
			ts.InterThreadHits++
		}
		c.lastUse[j] = c.clock
		c.lastAcc[j] = int16(thread)
		if write {
			c.dirty[j] = true
		}
		if c.lruOn {
			// The line now carries the maximum recency: move it to MRU.
			c.lruUnlink(set, j-base)
			c.lruPushHead(set, j-base)
		}
		return res
	}

	// Miss: pick a victim.
	ts.Misses++
	res := AccessResult{}
	victim := c.pickVictim(set, base, thread)
	j := base + victim
	if c.tagv[j] != 0 {
		res.Evicted = true
		ts.EvictionsCaused++
		c.stats.Threads[c.owner[j]].EvictionsSuffered++
		if int(c.lastAcc[j]) != thread {
			res.InterThreadEviction = true
			ts.InterThreadEvictons++
		}
		c.ownCount[set*c.cfg.NumThreads+int(c.owner[j])]--
		if c.idxOK {
			c.idxDelete(c.tags[j]<<c.setBits | uint64(set))
		}
	}
	if c.idxOK {
		c.idxInsert(key, int32(j))
	}
	c.tagv[j] = want
	c.tags[j] = tag
	c.dirty[j] = write
	c.owner[j] = int16(thread)
	c.lastAcc[j] = int16(thread)
	mru := true
	if c.tadipInsert {
		c.tadipAccountMiss(set, thread)
		mru = c.tadipInsertMRU(set, thread)
	}
	if mru {
		c.lastUse[j] = c.clock
		if c.lruOn {
			if res.Evicted {
				c.lruUnlink(set, victim)
			} else {
				c.lruLen[set]++
			}
			c.lruPushHead(set, victim)
		}
	} else if c.lruOn {
		// LRU-position insertion: the line is the set's next victim
		// unless it is re-referenced first. The tail carries the set's
		// minimum recency; an evicted victim is still on the list, so
		// its stale lastUse participates exactly as in minLastUse, and a
		// previously-invalid victim contributes its cleared recency 0.
		var m uint64
		if res.Evicted {
			m = c.lastUse[base+int(c.lruTail[set])]
			if m > 0 {
				m--
			}
			c.lruUnlink(set, victim)
		} else {
			c.lruLen[set]++
		}
		c.lastUse[j] = m
		c.lruPushByValue(set, victim, m)
	} else {
		// LRU-position insertion, scan form. The victim's stale lastUse
		// still participates in the minimum, exactly as it did when the
		// struct field was overwritten last.
		c.lastUse[j] = c.minLastUse(base)
	}
	c.ownCount[set*c.cfg.NumThreads+thread]++
	return res
}

// setsIndex maps a line address into the set it occupies inside
// thread's partition (PartitionedSets only): the owned group is chosen
// by the address bits just above the within-group set bits, folded
// into the thread's power-of-two group count, and the within-group
// bits pass through — the fixed-index-bits scheme of set partitioning.
func (c *Cache) setsIndex(thread int, la uint64) int {
	grp := c.setStart[thread] + int((la>>c.spgBits)&uint64(c.target[thread]-1))
	return grp<<c.spgBits | int(la&(1<<c.spgBits-1))
}

// Invalidate removes addr's line from the cache if resident, returning
// whether it was found (and whether it was dirty). Statistics are not
// affected. Under PartitionedSets every thread's partition is probed —
// each thread may hold its own replica — though replicas stranded by a
// repartition are not reachable and simply age out.
func (c *Cache) Invalidate(addr uint64) (found, dirty bool) {
	la := addr >> c.lineBits
	if c.mode == PartitionedSets {
		for t := 0; t < c.cfg.NumThreads; t++ {
			f, d := c.invalidateIn(c.setsIndex(t, la), la)
			found = found || f
			dirty = dirty || d
		}
		return found, dirty
	}
	return c.invalidateIn(int(la&c.setMask), la>>c.setBits)
}

// invalidateIn removes the line with the given tag from one set, if
// resident.
func (c *Cache) invalidateIn(set int, tag uint64) (found, dirty bool) {
	base := set * c.cfg.Ways
	if c.idxOK {
		key := tag<<c.setBits | uint64(set)
		j := c.idxLookup(key)
		if j < 0 {
			return false, false
		}
		dirty = c.dirty[j]
		c.ownCount[set*c.cfg.NumThreads+int(c.owner[j])]--
		c.idxDelete(key)
		if c.lruOn {
			c.lruUnlink(set, int(j)-base)
			c.lruLen[set]--
		}
		c.clearLine(int(j))
		return true, dirty
	}
	for j := base; j < base+c.cfg.Ways; j++ {
		if c.tagv[j] != 0 && c.tags[j] == tag {
			dirty = c.dirty[j]
			c.ownCount[set*c.cfg.NumThreads+int(c.owner[j])]--
			if c.lruOn {
				c.lruUnlink(set, j-base)
				c.lruLen[set]--
			}
			c.clearLine(j)
			return true, dirty
		}
	}
	return false, false
}

// clearLine resets one line to the invalid all-zero state.
func (c *Cache) clearLine(j int) {
	c.tagv[j] = 0
	c.tags[j] = 0
	c.lastUse[j] = 0
	c.owner[j] = 0
	c.lastAcc[j] = 0
	c.dirty[j] = false
}

// Contains reports whether addr is resident, without touching LRU state
// or statistics. Used by tests and by the UMON sampling logic. Under
// PartitionedSets it reports residency of any thread's replica.
func (c *Cache) Contains(addr uint64) bool {
	la := addr >> c.lineBits
	if c.mode == PartitionedSets {
		for t := 0; t < c.cfg.NumThreads; t++ {
			if c.containsIn(c.setsIndex(t, la), la) {
				return true
			}
		}
		return false
	}
	return c.containsIn(int(la&c.setMask), la>>c.setBits)
}

// containsIn reports whether one set holds a line with the given tag.
func (c *Cache) containsIn(set int, tag uint64) bool {
	if c.idxOK {
		return c.idxLookup(tag<<c.setBits|uint64(set)) >= 0
	}
	base := set * c.cfg.Ways
	for j := base; j < base+c.cfg.Ways; j++ {
		if c.tagv[j] != 0 && c.tags[j] == tag {
			return true
		}
	}
	return false
}

// victimTargets returns the way-target vector governing replacement in
// one set: the global per-thread targets, or — under PartitionedCluster
// — the set's cluster column of the derived way-target matrix.
func (c *Cache) victimTargets(set int) []int {
	if c.mode == PartitionedCluster {
		cl := set >> c.clShift
		return c.clusterTarget[cl*c.cfg.NumThreads : (cl+1)*c.cfg.NumThreads]
	}
	return c.target
}

// pickVictim selects the way to replace in the given set on behalf of
// `thread`, implementing the Section V policy. Every mode but
// PartitionedMask walks the recency list; the scans below are the
// reference the list walk is tested against. All candidate scans keep
// the first index on lastUse ties, matching a per-predicate LRU pass.
func (c *Cache) pickVictim(set, base, thread int) int {
	if c.lruOn && c.mode != PartitionedMask {
		return c.pickVictimList(set, base, thread)
	}
	tv := c.tagv[base : base+c.cfg.Ways]
	use := c.lastUse[base : base+c.cfg.Ways]
	// Each branch makes a single pass over the set. Invalid lines are
	// always preferred (the earliest one, matching a dedicated
	// first-invalid scan) — except under way masks, where a thread may
	// only fill its own way positions (invalid lines inside the mask
	// still win there, via their zero lastUse). Candidate tracking uses
	// strict < on ascending indices, so the first index wins lastUse
	// ties exactly as a per-predicate LRU scan would.
	if c.mode == SharedLRU || c.mode == SharedTADIP || c.mode == PartitionedSets {
		// PartitionedSets isolates through the index mapping alone, so
		// within a set replacement is plain LRU like the shared modes.
		all := 0
		for i, w := range tv {
			if w == 0 {
				return i
			}
			if use[i] < use[all] {
				all = i
			}
		}
		return all
	}
	if c.mode == PartitionedMask {
		// Contiguous mask: thread t's ways are
		// [sum(target[:t]), sum(target[:t])+target[t]). An empty mask
		// (target 0, transiently possible) falls back to global LRU.
		start := 0
		for i := 0; i < thread; i++ {
			start += c.target[i]
		}
		end := start + c.target[thread]
		if end > len(use) {
			end = len(use)
		}
		if start >= end {
			return argminUse(use)
		}
		best := start
		for i := start + 1; i < end; i++ {
			if use[i] < use[best] {
				best = i
			}
		}
		return best
	}
	owners := c.owner[base : base+c.cfg.Ways]
	ownBase := set * c.cfg.NumThreads
	tgt := c.victimTargets(set)
	if int(c.ownCount[ownBase+thread]) < tgt[thread] {
		// Under target: take a way from another thread. Prefer the LRU
		// line among threads currently over their own target; fall back
		// to the LRU line of any other thread; then (the thread owns
		// every way in the set, possible transiently after a
		// repartition) its own LRU line.
		over, other, all := -1, -1, 0
		var overUse, otherUse uint64
		for i, w := range tv {
			if w == 0 {
				return i
			}
			u := use[i]
			if u < use[all] {
				all = i
			}
			o := int(owners[i])
			if o == thread {
				continue
			}
			if other == -1 || u < otherUse {
				other, otherUse = i, u
			}
			if int(c.ownCount[ownBase+o]) > tgt[o] && (over == -1 || u < overUse) {
				over, overUse = i, u
			}
		}
		if over >= 0 {
			return over
		}
		if other >= 0 {
			return other
		}
		return all
	}
	// At or over target: replace one of the thread's own lines
	// (thread-wise LRU). If it owns nothing in this set despite a
	// nonzero global target (set imbalance, or target zero), steal from
	// whoever is most over target, else global LRU.
	own, over, all := -1, -1, 0
	var ownUse, overUse uint64
	for i, w := range tv {
		if w == 0 {
			return i
		}
		u := use[i]
		if u < use[all] {
			all = i
		}
		o := int(owners[i])
		if o == thread && (own == -1 || u < ownUse) {
			own, ownUse = i, u
		}
		if int(c.ownCount[ownBase+o]) > tgt[o] && (over == -1 || u < overUse) {
			over, overUse = i, u
		}
	}
	if own >= 0 {
		return own
	}
	if over >= 0 {
		return over
	}
	return all
}

// pickVictimList is pickVictim over the recency list: tail-to-head
// traversal visits lines in exactly the ascending (lastUse, way) order
// the scans' strict-< argmin induces, so the first line satisfying a
// predicate is that predicate's LRU candidate. Global LRU is the tail
// itself; invalid lines are preferred first, as in the scans.
func (c *Cache) pickVictimList(set, base, thread int) int {
	ways := c.cfg.Ways
	if int(c.lruLen[set]) < ways {
		for w := 0; w < ways; w++ {
			if c.tagv[base+w] == 0 {
				return w
			}
		}
	}
	tail := int(c.lruTail[set])
	if c.mode == SharedLRU || c.mode == SharedTADIP || c.mode == PartitionedSets {
		return tail
	}
	owners := c.owner[base : base+ways]
	ownBase := set * c.cfg.NumThreads
	tgt := c.victimTargets(set)
	if int(c.ownCount[ownBase+thread]) < tgt[thread] {
		// Under target: the first over-target line wins outright; else
		// the first line of any other thread; else (the thread owns the
		// whole set) the global LRU tail.
		other := -1
		for w := tail; w >= 0; w = int(c.lruPrev[base+w]) {
			o := int(owners[w])
			if o == thread {
				continue
			}
			if int(c.ownCount[ownBase+o]) > tgt[o] {
				return w
			}
			if other < 0 {
				other = w
			}
		}
		if other >= 0 {
			return other
		}
		return tail
	}
	// At or over target: the thread's own LRU line is preferred even
	// over an older over-target line, so the walk only commits to an
	// over-target candidate once no owned line exists.
	over := -1
	for w := tail; w >= 0; w = int(c.lruPrev[base+w]) {
		o := int(owners[w])
		if o == thread {
			return w
		}
		if over < 0 && int(c.ownCount[ownBase+o]) > tgt[o] {
			over = w
		}
	}
	if over >= 0 {
		return over
	}
	return tail
}

// TADIP set-dueling layout: for thread t, sets where
// set % dualPeriod == 2t are "MRU-insertion leaders" and sets where
// set % dualPeriod == 2t+1 are "bimodal leaders"; all other sets follow
// the thread's policy selector. Leader misses steer the selector.
const (
	tadipDualPeriod = 32
	tadipPselMax    = 1024
	tadipBipEpsilon = 32 // 1 in 32 bimodal fills goes to MRU
)

// tadipAccountMiss updates the owning thread's policy selector when
// any miss lands in one of its leader sets. Counting *all* misses in
// the leader set (not just the owner's) is what makes the duel
// decisive for pure streamers: a streamer's own miss count is identical
// under both insertion policies, but the collateral misses it inflicts
// on its neighbours are far lower in its bimodal-leader sets, and that
// difference is exactly what the selector should see.
func (c *Cache) tadipAccountMiss(set, _ int) {
	r := set % tadipDualPeriod
	owner := r / 2
	if owner >= c.cfg.NumThreads {
		return // follower set
	}
	if r%2 == 0 {
		if c.psel[owner] < tadipPselMax {
			c.psel[owner]++ // miss in owner's MRU-leader: evidence for bimodal
		}
	} else if c.psel[owner] > -tadipPselMax {
		c.psel[owner]-- // miss in owner's bimodal-leader: evidence for MRU
	}
}

// tadipInsertMRU decides the insertion position for one fill.
func (c *Cache) tadipInsertMRU(set, thread int) bool {
	r := set % tadipDualPeriod
	bimodal := false
	switch {
	case r == 2*thread:
		bimodal = false // MRU leader
	case r == 2*thread+1:
		bimodal = true // bimodal leader
	default:
		bimodal = c.psel[thread] > 0
	}
	if !bimodal {
		return true
	}
	c.bipCount[thread]++
	return c.bipCount[thread]%tadipBipEpsilon == 0
}

// minLastUse returns the smallest lastUse among the set's valid lines
// (0 if none), i.e. the LRU insertion position.
func (c *Cache) minLastUse(base int) uint64 {
	var m uint64
	seen := false
	for i, tv := range c.tagv[base : base+c.cfg.Ways] {
		if tv == 0 {
			continue
		}
		if u := c.lastUse[base+i]; !seen || u < m {
			m = u
			seen = true
		}
	}
	if !seen {
		return 0
	}
	if m > 0 {
		m-- // strictly older than the current LRU line
	}
	return m
}

// argminUse returns the index of the least-recently-used line in the
// set (first index wins ties; invalid lines participate via their zero
// lastUse, which is what the mask-mode fallback wants).
func argminUse(use []uint64) int {
	best := 0
	for i := 1; i < len(use); i++ {
		if use[i] < use[best] {
			best = i
		}
	}
	return best
}

// Occupancy returns, for each thread, the number of lines it currently
// owns across the whole cache. The sum equals the number of valid lines.
func (c *Cache) Occupancy() []int {
	out := make([]int, c.cfg.NumThreads)
	for s := 0; s < c.numSets; s++ {
		for t := 0; t < c.cfg.NumThreads; t++ {
			out[t] += int(c.ownCount[s*c.cfg.NumThreads+t])
		}
	}
	return out
}

// checkInvariants verifies internal consistency; used by tests.
func (c *Cache) checkInvariants() error {
	switch c.mode {
	case PartitionedSets:
		starts := AlignedStarts(c.target)
		for t, s := range starts {
			if c.setStart[t] != s {
				return fmt.Errorf("thread %d: set-group start %d, layout says %d", t, c.setStart[t], s)
			}
		}
	case PartitionedCluster:
		nt := c.cfg.NumThreads
		perThread := make([]int, nt)
		for cl := 0; cl < c.cfg.Clusters; cl++ {
			sum := 0
			for t := 0; t < nt; t++ {
				sum += c.clusterTarget[cl*nt+t]
				perThread[t] += c.clusterTarget[cl*nt+t]
			}
			if sum != c.cfg.Ways {
				return fmt.Errorf("cluster %d: way targets sum to %d, want %d", cl, sum, c.cfg.Ways)
			}
		}
		for t := 0; t < nt; t++ {
			if perThread[t] != c.target[t] {
				return fmt.Errorf("thread %d: cluster targets sum to %d, target is %d", t, perThread[t], c.target[t])
			}
		}
	}
	counts := make([]int16, c.numSets*c.cfg.NumThreads)
	for s := 0; s < c.numSets; s++ {
		for w := 0; w < c.cfg.Ways; w++ {
			j := s*c.cfg.Ways + w
			if c.tagv[j] == 0 {
				continue
			}
			if c.tagv[j] != c.tags[j]<<1|1 {
				return fmt.Errorf("set %d way %d: tagv %#x does not encode tag %#x",
					s, w, c.tagv[j], c.tags[j])
			}
			if c.owner[j] < 0 || int(c.owner[j]) >= c.cfg.NumThreads {
				return fmt.Errorf("set %d way %d: owner %d out of range", s, w, c.owner[j])
			}
			counts[s*c.cfg.NumThreads+int(c.owner[j])]++
		}
		for t := 0; t < c.cfg.NumThreads; t++ {
			if counts[s*c.cfg.NumThreads+t] != c.ownCount[s*c.cfg.NumThreads+t] {
				return fmt.Errorf("set %d thread %d: ownCount %d, actual %d",
					s, t, c.ownCount[s*c.cfg.NumThreads+t], counts[s*c.cfg.NumThreads+t])
			}
		}
	}
	if c.idxOK {
		entries := 0
		for i, s := range c.idxSlot {
			if s < 0 {
				continue
			}
			entries++
			set := int(s) / c.cfg.Ways
			if c.tagv[s] == 0 || c.idxKeys[i] != c.tags[s]<<c.setBits|uint64(set) {
				return fmt.Errorf("index slot %d: entry (%#x -> line %d) does not match line arrays",
					i, c.idxKeys[i], s)
			}
			if got := c.idxLookup(c.idxKeys[i]); got != s {
				return fmt.Errorf("index lookup %#x: got line %d, table holds %d", c.idxKeys[i], got, s)
			}
		}
		valid := 0
		for _, tv := range c.tagv {
			if tv != 0 {
				valid++
			}
		}
		if entries != valid {
			return fmt.Errorf("index holds %d entries for %d valid lines", entries, valid)
		}
	}
	if c.lruOn {
		for s := 0; s < c.numSets; s++ {
			base := s * c.cfg.Ways
			use := c.lastUse[base : base+c.cfg.Ways]
			n := 0
			prev := int16(-1)
			for w := c.lruTail[s]; w >= 0; w = c.lruPrev[base+int(w)] {
				if c.tagv[base+int(w)] == 0 {
					return fmt.Errorf("set %d: invalid way %d on recency list", s, w)
				}
				if c.lruNext[base+int(w)] != prev {
					return fmt.Errorf("set %d way %d: recency links asymmetric", s, w)
				}
				if prev >= 0 && !(use[prev] < use[w] || (use[prev] == use[w] && prev < w)) {
					return fmt.Errorf("set %d: recency order broken at ways %d,%d", s, prev, w)
				}
				prev = w
				if n++; n > c.cfg.Ways {
					return fmt.Errorf("set %d: recency list cycles", s)
				}
			}
			if c.lruHead[s] != prev {
				return fmt.Errorf("set %d: recency head %d, walk ended at %d", s, c.lruHead[s], prev)
			}
			if int(c.lruLen[s]) != n {
				return fmt.Errorf("set %d: recency length %d, walked %d", s, c.lruLen[s], n)
			}
			valid := 0
			for _, tv := range c.tagv[base : base+c.cfg.Ways] {
				if tv != 0 {
					valid++
				}
			}
			if valid != n {
				return fmt.Errorf("set %d: %d valid lines, %d on recency list", s, valid, n)
			}
		}
	}
	return nil
}
