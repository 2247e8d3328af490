// Quickstart: simulate one multithreaded benchmark under the paper's
// model-based dynamic cache partitioner and print what the runtime
// system did.
package main

import (
	"fmt"
	"log"

	"intracache"
)

func main() {
	cfg := intracache.DefaultConfig()
	cfg.Intervals = 20

	run, err := intracache.Simulate(cfg, "cg", intracache.PolicyModelBased, intracache.ByIntervals)
	if err != nil {
		log.Fatal(err)
	}

	res := run.Result
	fmt.Printf("benchmark %q under %s\n", run.Benchmark, run.Policy)
	fmt.Printf("  wall cycles:     %d\n", res.WallCycles)
	fmt.Printf("  application CPI: %.3f\n", res.AppCPI())
	fmt.Printf("  final partition: %v ways\n", res.FinalTargets)

	// The interval history records the partition each execution
	// interval ran under and the per-thread CPIs the runtime system saw.
	fmt.Println("\ninterval  ways            thread CPIs")
	for _, iv := range res.Intervals {
		if iv.Index > 6 {
			break
		}
		ways := make([]int, len(iv.Threads))
		for t, ts := range iv.Threads {
			ways[t] = ts.WaysAssigned
		}
		fmt.Printf("%8d  %-16s", iv.Index, fmt.Sprint(ways))
		for _, ts := range iv.Threads {
			fmt.Printf("  %5.2f", ts.CPI())
		}
		fmt.Println()
	}
	fmt.Println("\nThe slowest (critical path) thread receives the largest share,")
	fmt.Println("and the overall CPI drops interval over interval.")
}
