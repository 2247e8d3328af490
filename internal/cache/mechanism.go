package cache

import (
	"fmt"
	"math/bits"
	"sort"
)

// Mechanism names a partitioning geometry: the unit of capacity a
// partitioned cache hands out and the hardware scheme that enforces it.
// The allocator side of the simulator is geometry-agnostic — it reasons
// about abstract "capacity quanta" — and a Mechanism selects what one
// quantum physically is: a way, an aligned power-of-two group of sets,
// or one way within one cluster of sets.
type Mechanism int

const (
	// MechWays is the paper's Section V scheme: per-thread way targets
	// enforced through replacement, uniformly across all sets. One
	// quantum = one way.
	MechWays Mechanism = iota
	// MechSets is set-index partitioning: each thread owns a contiguous
	// aligned range of set groups selected by fixed index bits, so
	// threads cannot evict each other at all. Capacity is quantized to
	// power-of-two group counts. One quantum = one set group.
	MechSets
	// MechCluster is clustered way-partitioning: sets are grouped into
	// contiguous clusters and way targets are assigned per
	// (cluster, thread), enabling finer-than-ways effective capacity.
	// One quantum = one way in one cluster.
	MechCluster
)

// String returns the mechanism's flag spelling.
func (m Mechanism) String() string {
	switch m {
	case MechWays:
		return "ways"
	case MechSets:
		return "sets"
	case MechCluster:
		return "cluster"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// MarshalText encodes the mechanism by name, so JSON configs and wire
// frames read "sets" rather than a bare integer.
func (m Mechanism) MarshalText() ([]byte, error) {
	switch m {
	case MechWays, MechSets, MechCluster:
		return []byte(m.String()), nil
	}
	return nil, fmt.Errorf("cache: unknown mechanism %d", int(m))
}

// UnmarshalText decodes a mechanism name. The empty string decodes to
// MechWays so configs predating the field keep their meaning.
func (m *Mechanism) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*m = MechWays
		return nil
	}
	p, err := ParseMechanism(string(b))
	if err != nil {
		return err
	}
	*m = p
	return nil
}

// ParseMechanism parses a -mechanism flag value.
func ParseMechanism(s string) (Mechanism, error) {
	switch s {
	case "ways":
		return MechWays, nil
	case "sets":
		return MechSets, nil
	case "cluster":
		return MechCluster, nil
	default:
		return 0, fmt.Errorf("cache: unknown mechanism %q (want ways, sets, or cluster)", s)
	}
}

// Mechanisms returns every mechanism in stable declaration order.
func Mechanisms() []Mechanism {
	return []Mechanism{MechWays, MechSets, MechCluster}
}

// Mechanism returns the geometry this cache partitions by. Every
// way-granular mode — including the shared baselines, whose "quanta"
// are only notional — reports MechWays.
func (c *Cache) Mechanism() Mechanism {
	switch c.mode {
	case PartitionedSets:
		return MechSets
	case PartitionedCluster:
		return MechCluster
	default:
		return MechWays
	}
}

// Quanta returns the number of capacity units the cache's mechanism
// divides among threads.
func (c *Cache) Quanta() int {
	switch c.mode {
	case PartitionedSets:
		return c.cfg.SetGroups
	case PartitionedCluster:
		return c.cfg.Ways * c.cfg.Clusters
	default:
		return c.cfg.Ways
	}
}

// QuantizePow2 apportions `quanta` indivisible units among
// len(desired) claimants such that every claimant receives a positive
// power-of-two count, counts sum exactly to quanta, and counts track
// the relative magnitudes of the (non-negative) desired shares. quanta
// must be a power of two no smaller than len(desired).
//
// Starting from one unit each, the construction repeatedly doubles the
// claimant whose desired/count ratio is largest (ties: smaller count,
// then lower index, so equal desires yield an equal split), skipping
// doublings that would overshoot the total. A feasible doubling always
// exists short of quanta — every count divides the power-of-two total,
// so the remaining gap is at least the smallest count — hence the loop
// terminates with the sum exactly quanta. This is the allocation step
// of set-index partitioning, where capacity comes only in aligned
// power-of-two set groups.
func QuantizePow2(desired []int, quanta int) []int {
	n := len(desired)
	if n == 0 || quanta < n || bits.OnesCount(uint(quanta)) != 1 {
		panic(fmt.Sprintf("cache: cannot quantize %d claimants into %d power-of-two quanta", n, quanta))
	}
	cnt := make([]int, n)
	for i := range cnt {
		cnt[i] = 1
	}
	sum := n
	for sum < quanta {
		best := -1
		for i := 0; i < n; i++ {
			if sum+cnt[i] > quanta {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			// Compare desired[i]/cnt[i] with desired[best]/cnt[best] by
			// cross-multiplication to stay in integers.
			di, db := desired[i]*cnt[best], desired[best]*cnt[i]
			if di > db || (di == db && cnt[i] < cnt[best]) {
				best = i
			}
		}
		sum += cnt[best]
		cnt[best] *= 2
	}
	return cnt
}

// AlignedStarts lays power-of-two counts out contiguously with each
// range starting at a multiple of its own length — the alignment that
// fixed-index-bit group selection requires. Placing claimants in
// descending count order (ties by index) makes every offset a sum of
// counts no smaller than the next range, which gives the alignment for
// free. The returned starts are indexed by claimant.
func AlignedStarts(counts []int) []int {
	n := len(counts)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return counts[order[a]] > counts[order[b]]
	})
	starts := make([]int, n)
	off := 0
	for _, i := range order {
		starts[i] = off
		off += counts[i]
	}
	return starts
}

// SpreadClusterWays expands per-thread cluster-way totals (summing to
// ways*clusters) into a cluster-major per-(cluster, thread) way-target
// matrix in which every cluster's targets sum to exactly `ways`. Each
// thread receives its even share floor(q/clusters) in every cluster
// and its remainder in consecutive clusters around one rotating
// cursor; the remainders sum to a multiple of clusters, so consecutive
// placement lands exactly the same number of extras in every cluster.
func SpreadClusterWays(quanta []int, clusters, ways int) []int {
	nt := len(quanta)
	out := make([]int, clusters*nt)
	cursor := 0
	for t, q := range quanta {
		base, rem := q/clusters, q%clusters
		for cl := 0; cl < clusters; cl++ {
			out[cl*nt+t] = base
		}
		for k := 0; k < rem; k++ {
			out[((cursor+k)%clusters)*nt+t]++
		}
		cursor = (cursor + rem) % clusters
	}
	return out
}

// layoutRebuild validates the target vector against the mode's
// feasibility rules and recomputes the derived placement — set-group
// starts for PartitionedSets, the per-cluster way-target matrix for
// PartitionedCluster. The placement is a pure function of target and
// is deliberately absent from State, like the hash index and recency
// lists; New, SetTargets, and Restore all route through here.
func (c *Cache) layoutRebuild() error {
	switch c.mode {
	case PartitionedSets:
		sum := 0
		for i, t := range c.target {
			if t < 1 || bits.OnesCount(uint(t)) != 1 {
				return fmt.Errorf("cache: set-group target %d for thread %d is not a positive power of two", t, i)
			}
			sum += t
		}
		if sum != c.cfg.SetGroups {
			return fmt.Errorf("cache: set-group targets sum to %d, want %d", sum, c.cfg.SetGroups)
		}
		c.setStart = AlignedStarts(c.target)
	case PartitionedCluster:
		sum := 0
		for i, t := range c.target {
			if t < 0 {
				return fmt.Errorf("cache: negative cluster-way target %d for thread %d", t, i)
			}
			sum += t
		}
		if want := c.cfg.Ways * c.cfg.Clusters; sum != want {
			return fmt.Errorf("cache: cluster-way targets sum to %d, want %d", sum, want)
		}
		c.clusterTarget = SpreadClusterWays(c.target, c.cfg.Clusters, c.cfg.Ways)
	}
	return nil
}
