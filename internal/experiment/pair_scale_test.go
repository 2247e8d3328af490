//go:build !race

package experiment

// The sweep-scale pair differential runs 36 full runs at the default
// geometry; under the race detector that would take minutes, so, like
// the claim tests, it runs only without it (and not under -short).

import (
	"fmt"
	"testing"

	"intracache/internal/core"
	"intracache/internal/workload"
)

// TestPairMatchesSoloSweepScale runs the sweep's pair (shared against
// model-based, 40 sections at the default geometry) for all nine
// benchmarks at 4 and 8 threads. cg's step phase changes thread 2 at
// interval 30, so the pair unlinks that thread mid-run.
func TestPairMatchesSoloSweepScale(t *testing.T) {
	if testing.Short() {
		t.Skip("nine benchmarks at sweep scale; skipped under -short")
	}
	cfg := DefaultConfig()
	cfg.Sections = 40
	for _, n := range []int{4, 8} {
		c := cfg.WithThreads(n)
		for _, prof := range workload.Profiles() {
			t.Run(fmt.Sprintf("%dt/%s", n, prof.Name), func(t *testing.T) {
				t.Parallel()
				solo := pairDiff(t, c, prof, core.PolicyShared, core.PolicyModelBased)
				if prof.Name == "cg" && len(solo[0].Result.Intervals) <= prof.Phase.StepInterval {
					t.Errorf("ran %d intervals, never reaching cg's step at %d",
						len(solo[0].Result.Intervals), prof.Phase.StepInterval)
				}
			})
		}
	}
}
