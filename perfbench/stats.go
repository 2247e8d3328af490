package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile (q in [0,1]) of xs,
// sorting a copy; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value (the mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// mean is the arithmetic mean; 0 for no samples.
func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS returns freed memory to the OS and restarts the
// kernel's peak-RSS (VmHWM) count, so max_rss_mb covers the measured
// phase rather than the benchmark's own input preparation. Where the
// kernel refuses, the peak stays the process lifetime's.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// goStats is a snapshot of the Go runtime's allocation and GC CPU
// counters; the difference of two snapshots covers the work between.
type goStats struct {
	allocBytes, mallocs uint64
	gcCPU, totalCPU     float64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	g := goStats{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs}
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = samples[1].Value.Float64()
	}
	return g
}

// runtimeMetrics turns the difference between two snapshots into the
// runtime.* metrics; batches > 0 adds allocations per ingest batch.
func runtimeMetrics(m map[string]float64, before, after goStats, batches int) {
	m["runtime.alloc_mb"] = float64(after.allocBytes-before.allocBytes) / (1 << 20)
	m["runtime.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	if batches > 0 {
		m["runtime.allocs_per_batch"] = float64(after.mallocs-before.mallocs) / float64(batches)
	}
}

// provenance identifies where and on what a result was measured.
type provenance struct {
	Workload     string
	Seed         uint64
	Seconds      float64
	Traced       bool
	GOMAXPROCS   int
	NumCPU       int
	GoVersion    string
	CPUModel     string
	Commit       string // from .git when the checkout has one, else "unknown"
	SourceDigest string // sha256 prefix over the checkout's Go sources
}

func collectProvenance(b *bench) provenance {
	return provenance{
		Workload:     b.workload,
		Seed:         b.seed,
		Seconds:      b.seconds.Seconds(),
		Traced:       b.traced,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		Commit:       gitCommit("."),
		SourceDigest: sourceDigest("."),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the checkout's .git directory without
// running git; a checkout without one reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file and go.mod under root (paths and
// contents, in walk order), skipping .git and .bench_build, so results
// from checkouts without git history still name the code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digest accumulates lines into a sha256 over an output's identity.
type digest struct{ buf bytes.Buffer }

func (d *digest) line(s string) {
	d.buf.WriteString(s)
	d.buf.WriteByte('\n')
}

func (d *digest) sum() string {
	s := sha256.Sum256(d.buf.Bytes())
	return hex.EncodeToString(s[:])[:16]
}
