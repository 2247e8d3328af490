package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// parseSamples extracts every benchmark result from `go test -bench`
// output, in the order the runs appear. A result line looks like
//
//	BenchmarkFig19VsPrivate-4   1   2694531000 ns/op   54.72 missRed%   128 B/op   3 allocs/op
//
// i.e. name, iteration count, then (value, unit) pairs. The -N
// GOMAXPROCS suffix is stripped from the key so results stay
// comparable across machines, but N is kept as the result's Procs:
// parallel benchmarks scale with the core count, so a comparison
// across different GOMAXPROCS is noted in the report. Custom
// b.ReportMetric units are ignored. The k-th sample of a name in one
// output pairs with the k-th sample of that name in another, which is
// how interleaved parent and change runs are compared.
func parseSamples(r io.Reader) (map[string][]benchResult, error) {
	out := make(map[string][]benchResult)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := f[0]
		var res benchResult
		if i := strings.LastIndex(name, "-"); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
				res.Procs = n
			}
		}
		sawNs := false
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q: %w", name, f[i], err)
			}
			switch f[i+1] {
			case "ns/op":
				res.NsPerOp = v
				sawNs = true
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		if !sawNs {
			continue // e.g. a -benchtime=1x line cut short; nothing to gate on
		}
		out[name] = append(out[name], res)
	}
	return out, sc.Err()
}

// parseBench is parseSamples reduced to one result per benchmark: the
// fastest time (the usual benchstat convention for reducing noise) and
// the fewest allocations over its runs. The allocation count is what
// -update records: the parallel drivers' counts vary by a few percent
// between runs with goroutine scheduling, and the minimum is the
// stable end of that spread.
func parseBench(r io.Reader) (map[string]benchResult, error) {
	all, err := parseSamples(r)
	if err != nil {
		return nil, err
	}
	out := make(map[string]benchResult, len(all))
	for name, runs := range all {
		best := runs[0]
		for _, res := range runs[1:] {
			if res.NsPerOp < best.NsPerOp {
				best.NsPerOp, best.Procs = res.NsPerOp, res.Procs
			}
			best.AllocsPerOp = min(best.AllocsPerOp, res.AllocsPerOp)
		}
		out[name] = best
	}
	return out, nil
}
