package core

import (
	"intracache/internal/cache"
	"intracache/internal/sim"
)

// UCPEngine is the throughput-oriented comparison scheme (paper Fig. 21
// and Sec. IV-B): utility-based cache partitioning in the style of
// Suh et al. and Qureshi & Patt. Each interval it reads every thread's
// shadow-tag miss-vs-ways curve and allocates ways greedily to
// whichever thread gains the most additional *hits* from its next way —
// maximising aggregate throughput with no regard for which thread is on
// the application's critical path. That indifference is exactly why the
// paper expects it to underperform for a single multithreaded
// application: the slow (high-CPI) thread executes fewer instructions
// per interval, generates fewer monitored accesses, and is therefore
// systematically out-bid by fast cache-friendly threads.
//
// Every thread keeps at least minWays ways.
type UCPEngine struct{}

// NewUCPEngine returns the engine.
func NewUCPEngine() *UCPEngine { return &UCPEngine{} }

// Name implements Engine.
func (e *UCPEngine) Name() string { return "throughput-ucp" }

// Decide implements Engine.
func (e *UCPEngine) Decide(iv sim.IntervalStats, mon sim.Monitors, current []int) []int {
	n := mon.NumThreads()
	totalWays := mon.Ways()
	floor := minWays
	if floor*n > totalWays {
		floor = totalWays / n
	}

	curves := make([][]uint64, n)
	for t := 0; t < n; t++ {
		curves[t] = mon.MissCurve(t)
		if curves[t] == nil {
			// No monitor attached: fall back to an equal split rather
			// than inventing utilities.
			return cache.EqualSplit(totalWays, n)
		}
	}

	// Greedy marginal-gain allocation: every thread starts at the
	// floor; each remaining way goes to the thread whose miss curve
	// drops the most from its current allocation to the next way.
	ways := make([]int, n)
	for t := range ways {
		ways[t] = floor
	}
	remaining := totalWays - floor*n
	for ; remaining > 0; remaining-- {
		best, bestGain := -1, uint64(0)
		for t := 0; t < n; t++ {
			if ways[t] >= totalWays {
				continue
			}
			gain := curves[t][ways[t]] - curves[t][ways[t]+1]
			if best == -1 || gain > bestGain {
				best, bestGain = t, gain
			}
		}
		if best == -1 {
			break
		}
		ways[best]++
	}
	// Any leftover (all threads saturated, impossible in practice) goes
	// to thread 0 to keep the assignment valid.
	sum := 0
	for _, w := range ways {
		sum += w
	}
	ways[0] += totalWays - sum
	return ways
}
