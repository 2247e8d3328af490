package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Simulation runs are single-threaded and independent of one another,
// so sweeps and the figure drivers parallelise perfectly across
// goroutines. Determinism is preserved: each run's result depends only
// on its (profile, policy, config) inputs, and results are collected by
// index.

// SweepPoint is one (label, config) cell of a parameter sweep.
type SweepPoint struct {
	Label string
	Cfg   Config
}

// SweepResult is one sweep cell's outcome.
type SweepResult struct {
	Label          string
	Benchmark      string
	ImprovementPct float64
	BaselineCycles uint64
	DynamicCycles  uint64
	// Attempts counts how many tries the cell took (0 when the result
	// was read back from a journal); Resumed marks journal read-back.
	Attempts int
	Resumed  bool
	Err      error
	// ErrKind classifies Err into the cell error taxonomy (deadline /
	// cancelled / failed); "" when the cell succeeded. See
	// CellErrorKind.
	ErrKind string
}

// forEachIndex applies fn to every index in [0, n) using a bounded
// worker pool and returns one error slot per index. A panicking fn is
// recovered and surfaced as that index's error instead of crashing the
// whole sweep.
func forEachIndex(n, workers int, fn func(i int) error) []error {
	return forEachIndexCtx(context.Background(), n, workers, fn)
}

// forEachIndexCtx is forEachIndex with cancellation: once ctx is
// cancelled no new index is dispatched, in-flight indices finish (their
// fn observes ctx itself if it wants to stop early), and every
// undispatched index's error slot is set to ctx.Err(). workers <= 0 is
// clamped to GOMAXPROCS rather than silently misbehaving.
func forEachIndexCtx(ctx context.Context, n, workers int, fn func(i int) error) []error {
	errs := make([]error, n)
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("experiment: index %d panicked: %v", i, r)
			}
		}()
		errs[i] = fn(i)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				for j := i; j < n; j++ {
					errs[j] = err
				}
				return errs
			}
			call(i)
		}
		return errs
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				call(i)
			}
		}()
	}
	next := 0
dispatch:
	for ; next < n; next++ {
		select {
		case work <- next:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for j := next; j < n; j++ {
			errs[j] = err
		}
	}
	return errs
}
