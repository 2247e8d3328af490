package sim

import (
	"testing"

	"intracache/internal/cache"
	"intracache/internal/mem"
	"intracache/internal/trace"
	"intracache/internal/xrand"
)

// testParams builds a small, fast configuration: 4 threads, 2 KiB L1,
// 64 KiB 16-way shared L2.
func testParams(org L2Organization) Params {
	return Params{
		NumThreads: 4,
		L1:         cache.Config{SizeBytes: 2048, Ways: 4, LineBytes: 64, NumThreads: 1},
		L2:         cache.Config{SizeBytes: 64 * 1024, Ways: 16, LineBytes: 64, NumThreads: 4},
		L2Org:      org,
		BaseCycles: 1, L2HitCycles: 10, MemCycles: 120,
		SectionInstructions:  5000,
		IntervalInstructions: 8000,
	}
}

// specFor returns a thread spec with the given private working-set KB.
func specFor(thread int, wsKB int) trace.ThreadSpec {
	return trace.ThreadSpec{
		MemRatio:     0.4,
		WriteRatio:   0.2,
		PrivateBase:  uint64(thread+1) << 32,
		PrivateBytes: uint64(wsKB) * 1024,
		ZipfAlpha:    0.5,
		SharedBase:   1 << 40,
		SharedBytes:  8 * 1024,
		SharedWeight: 0.1,
		LineBytes:    64,
	}
}

func makeGens(t *testing.T, seed uint64, wsKB []int) []trace.Source {
	t.Helper()
	root := xrand.New(seed)
	gens := make([]trace.Source, len(wsKB))
	for i, ws := range wsKB {
		g, err := trace.NewThread(specFor(i, ws), root.Split())
		if err != nil {
			t.Fatal(err)
		}
		gens[i] = g
	}
	return gens
}

func TestParamsValidate(t *testing.T) {
	good := testParams(L2Shared)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	mod := func(f func(*Params)) Params {
		p := testParams(L2Shared)
		f(&p)
		return p
	}
	bad := map[string]Params{
		"threads=0":       mod(func(p *Params) { p.NumThreads = 0 }),
		"bad L1":          mod(func(p *Params) { p.L1.Ways = 0 }),
		"bad L2":          mod(func(p *Params) { p.L2.SizeBytes = 0 }),
		"L2 thread count": mod(func(p *Params) { p.L2.NumThreads = 2 }),
		"base cycles":     mod(func(p *Params) { p.BaseCycles = 0 }),
		"section instr":   mod(func(p *Params) { p.SectionInstructions = 0 }),
		"interval instr":  mod(func(p *Params) { p.IntervalInstructions = 0 }),
		"negative umon":   mod(func(p *Params) { p.UMONSampleStride = -1 }),
		"private indivisible": mod(func(p *Params) {
			p.L2Org = L2PrivatePerCore
			p.NumThreads = 3
			p.L2.NumThreads = 3
		}),
	}
	for name, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestMechanismParamsValidate checks that ways, with or without the
// way-mask ablation, is the one valid partitioned L2, and that the
// removed set-index and clustered geometries are refused, not ignored.
func TestMechanismParamsValidate(t *testing.T) {
	ways := testParams(L2Partitioned)
	if err := ways.Validate(); err != nil {
		t.Fatalf("ways rejected: %v", err)
	}
	mask := testParams(L2Partitioned)
	mask.MaskPartitioning = true
	if err := mask.Validate(); err != nil {
		t.Fatalf("ways + MaskPartitioning rejected: %v", err)
	}
	mod := func(f func(*Params)) Params {
		p := testParams(L2Partitioned)
		f(&p)
		return p
	}
	for name, p := range map[string]Params{
		"mechanism sets":    mod(func(p *Params) { p.Mechanism = 1 }),
		"mechanism cluster": mod(func(p *Params) { p.Mechanism = 2 }),
		"unknown mechanism": mod(func(p *Params) { p.Mechanism = 7 }),
		"L2 set groups":     mod(func(p *Params) { p.L2.SetGroups = 4 }),
		"L2 clusters":       mod(func(p *Params) { p.L2.Clusters = 4 }),
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestNewGeneratorCountMismatch(t *testing.T) {
	gens := makeGens(t, 1, []int{16, 16})
	if _, err := New(testParams(L2Shared), gens, nil, nil); err == nil {
		t.Error("2 generators for 4 threads accepted")
	}
}

func TestOrganizationString(t *testing.T) {
	if L2Shared.String() != "shared" || L2Partitioned.String() != "partitioned" ||
		L2PrivatePerCore.String() != "private" {
		t.Error("organization names wrong")
	}
	if L2Organization(9).String() != "L2Organization(9)" {
		t.Error("unknown organization name wrong")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		s, err := New(testParams(L2Shared), makeGens(t, 5, []int{16, 32, 48, 64}), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s.RunSections(4)
	}
	a, b := run(), run()
	if a.WallCycles != b.WallCycles || a.TotalInstr != b.TotalInstr {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
	for i := range a.ThreadCycles {
		if a.ThreadCycles[i] != b.ThreadCycles[i] {
			t.Fatalf("thread %d cycles differ", i)
		}
	}
}

func TestBarrierSemantics(t *testing.T) {
	p := testParams(L2Shared)
	s, err := New(p, makeGens(t, 7, []int{8, 16, 64, 128}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunSections(3)
	if res.Barriers != 3 {
		t.Errorf("barriers = %d, want 3", res.Barriers)
	}
	// After the final barrier all threads sit at the same wall clock.
	for i, c := range res.ThreadCycles {
		if c != res.WallCycles {
			t.Errorf("thread %d cycles %d != wall %d", i, c, res.WallCycles)
		}
	}
	// Every thread retired exactly 3 sections of instructions.
	for i, n := range res.ThreadInstr {
		if n != 3*p.SectionInstructions {
			t.Errorf("thread %d instructions %d, want %d", i, n, 3*p.SectionInstructions)
		}
	}
	// The thread with the biggest working set should be the critical
	// path: everyone else accumulated stall time, it accumulated the least.
	minStall, minIdx := res.ThreadStall[0], 0
	for i, st := range res.ThreadStall {
		if st < minStall {
			minStall, minIdx = st, i
		}
	}
	if minIdx != 3 {
		t.Errorf("critical thread (least stall) is %d, want 3 (largest WS); stalls %v",
			minIdx, res.ThreadStall)
	}
}

func TestBiggerWorkingSetHigherCPI(t *testing.T) {
	s, err := New(testParams(L2Shared), makeGens(t, 9, []int{8, 8, 8, 256}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunIntervals(6)
	last := res.Intervals[len(res.Intervals)-1]
	cpi3 := last.Threads[3].CPI()
	for i := 0; i < 3; i++ {
		if c := last.Threads[i].CPI(); c >= cpi3 {
			t.Errorf("thread %d CPI %.2f >= big-WS thread CPI %.2f", i, c, cpi3)
		}
	}
	if last.OverallCPI() != cpi3 {
		t.Errorf("OverallCPI %.2f != max thread CPI %.2f", last.OverallCPI(), cpi3)
	}
}

func TestRunIntervalsCount(t *testing.T) {
	s, err := New(testParams(L2Shared), makeGens(t, 11, []int{16, 16, 16, 16}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunIntervals(7)
	if len(res.Intervals) != 7 {
		t.Fatalf("intervals = %d, want 7", len(res.Intervals))
	}
	for i, iv := range res.Intervals {
		if iv.Index != i {
			t.Errorf("interval %d has index %d", i, iv.Index)
		}
		var sum uint64
		for _, th := range iv.Threads {
			sum += th.Instructions
		}
		if sum != s.Params().IntervalInstructions {
			t.Errorf("interval %d holds %d instructions, want %d",
				i, sum, s.Params().IntervalInstructions)
		}
	}
}

// fixedController always requests the same targets.
type fixedController struct {
	targets []int
	calls   int
}

func (f *fixedController) OnInterval(IntervalStats, Monitors) []int {
	f.calls++
	return f.targets
}

func TestControllerTargetsApplied(t *testing.T) {
	ctl := &fixedController{targets: []int{10, 2, 2, 2}}
	s, err := New(testParams(L2Partitioned), makeGens(t, 13, []int{16, 16, 16, 16}), ctl, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunIntervals(3)
	if ctl.calls != 3 {
		t.Errorf("controller called %d times, want 3", ctl.calls)
	}
	got := s.Targets()
	for i, w := range ctl.targets {
		if got[i] != w {
			t.Fatalf("targets = %v, want %v", got, ctl.targets)
		}
	}
	// WaysAssigned in interval 1+ reflects the controller's decision
	// made at the end of interval 0.
	if res.Intervals[1].Threads[0].WaysAssigned != 10 {
		t.Errorf("interval 1 thread 0 ways = %d, want 10",
			res.Intervals[1].Threads[0].WaysAssigned)
	}
	// Interval 0 ran with the initial equal split.
	if res.Intervals[0].Threads[0].WaysAssigned != 4 {
		t.Errorf("interval 0 thread 0 ways = %d, want 4",
			res.Intervals[0].Threads[0].WaysAssigned)
	}
	if res.FinalTargets == nil || res.FinalTargets[0] != 10 {
		t.Errorf("FinalTargets = %v", res.FinalTargets)
	}
}

func TestControllerOnSharedOrgPanics(t *testing.T) {
	ctl := &fixedController{targets: []int{10, 2, 2, 2}}
	s, err := New(testParams(L2Shared), makeGens(t, 15, []int{16, 16, 16, 16}), ctl, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("controller targets on shared org did not panic")
		}
	}()
	s.RunIntervals(1)
}

func TestPrivateOrgNoInterThreadHits(t *testing.T) {
	p := testParams(L2PrivatePerCore)
	s, err := New(p, makeGens(t, 17, []int{16, 16, 16, 16}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.RunSections(3)
	st := s.L2CacheStats().Totals()
	if st.InterThreadHits != 0 || st.InterThreadEvictons != 0 {
		t.Errorf("private L2 recorded inter-thread interactions: %+v", st)
	}
	if s.Targets() != nil {
		t.Error("private org reports targets")
	}
}

func TestSharedOrgSeesInterThreadHits(t *testing.T) {
	s, err := New(testParams(L2Shared), makeGens(t, 19, []int{16, 16, 16, 16}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.RunSections(3)
	st := s.L2CacheStats().Totals()
	if st.InterThreadHits == 0 {
		t.Error("shared L2 with a shared region recorded no inter-thread hits")
	}
}

func TestUMONAttachment(t *testing.T) {
	p := testParams(L2Partitioned)
	p.UMONSampleStride = 2
	s, err := New(p, makeGens(t, 21, []int{16, 64, 16, 16}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.RunIntervals(2)
	curve := s.MissCurve(1)
	if curve == nil || len(curve) != p.L2.Ways+1 {
		t.Fatalf("MissCurve = %v", curve)
	}
	if curve[0] == 0 {
		t.Error("UMON recorded nothing for an active thread")
	}
	noMon, err := New(testParams(L2Shared), makeGens(t, 21, []int{16, 16, 16, 16}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if noMon.MissCurve(0) != nil {
		t.Error("MissCurve non-nil without UMON")
	}
}

func TestPhaseFuncInvoked(t *testing.T) {
	seen := map[int]bool{}
	phase := func(thread, interval int) (float64, float64) {
		seen[interval] = true
		return 1 + float64(interval%3), 1
	}
	s, err := New(testParams(L2Shared), makeGens(t, 23, []int{16, 16, 16, 16}), nil, phase)
	if err != nil {
		t.Fatal(err)
	}
	s.RunIntervals(4)
	for iv := 0; iv <= 4; iv++ {
		if !seen[iv] {
			t.Errorf("phase func never called for interval %d", iv)
		}
	}
}

func TestThreadIntervalStatsCPI(t *testing.T) {
	st := ThreadIntervalStats{Instructions: 100, ActiveCycles: 250}
	if got := st.CPI(); got != 2.5 {
		t.Errorf("CPI = %v, want 2.5", got)
	}
	if got := (ThreadIntervalStats{}).CPI(); got != 0 {
		t.Errorf("empty CPI = %v, want 0", got)
	}
}

func TestAppCPI(t *testing.T) {
	r := Result{WallCycles: 1000, TotalInstr: 400, ThreadInstr: make([]uint64, 4)}
	if got := r.AppCPI(); got != 10 {
		t.Errorf("AppCPI = %v, want 10 (1000 cycles / 100 per-thread instr)", got)
	}
	if got := (Result{ThreadInstr: make([]uint64, 4)}).AppCPI(); got != 0 {
		t.Errorf("empty AppCPI = %v, want 0", got)
	}
}

func TestStatsConservation(t *testing.T) {
	s, err := New(testParams(L2Shared), makeGens(t, 29, []int{16, 32, 64, 128}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunIntervals(5)
	for _, iv := range res.Intervals {
		for th, ts := range iv.Threads {
			if ts.L2Hits+ts.L2Misses != ts.L2Accesses {
				t.Errorf("interval %d thread %d: hits %d + misses %d != accesses %d",
					iv.Index, th, ts.L2Hits, ts.L2Misses, ts.L2Accesses)
			}
			if ts.L2Accesses > ts.L1Misses {
				t.Errorf("interval %d thread %d: more L2 accesses than L1 misses", iv.Index, th)
			}
		}
	}
}

func TestPartitionedVsSharedSameWork(t *testing.T) {
	// Same workload under different organizations must retire identical
	// instruction counts (work is fixed; only timing differs).
	resShared := func() Result {
		s, err := New(testParams(L2Shared), makeGens(t, 31, []int{16, 32, 64, 128}), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s.RunSections(4)
	}()
	resPart := func() Result {
		s, err := New(testParams(L2Partitioned), makeGens(t, 31, []int{16, 32, 64, 128}), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s.RunSections(4)
	}()
	if resShared.TotalInstr != resPart.TotalInstr {
		t.Errorf("instruction counts differ: %d vs %d", resShared.TotalInstr, resPart.TotalInstr)
	}
}

func BenchmarkSimStep(b *testing.B) {
	p := testParams(L2Partitioned)
	p.UMONSampleStride = 8
	root := xrand.New(1)
	gens := make([]trace.Source, 4)
	for i := range gens {
		g, err := trace.NewThread(specFor(i, 32*(i+1)), root.Split())
		if err != nil {
			b.Fatal(err)
		}
		gens[i] = g
	}
	s, err := New(p, gens, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.advance() {
			s.releaseBarrier()
		}
	}
}

func TestDRAMModelAttached(t *testing.T) {
	p := testParams(L2Shared)
	dram := mem.DefaultConfig()
	p.DRAM = &dram
	s, err := New(p, makeGens(t, 33, []int{64, 64, 64, 64}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunSections(2)
	st := s.DRAMStats()
	if st.Accesses == 0 {
		t.Fatal("DRAM model saw no accesses")
	}
	var l2Misses uint64
	for _, ts := range res.L2Stats.Threads {
		l2Misses += ts.Misses
	}
	if st.Accesses != l2Misses {
		t.Errorf("DRAM accesses %d != L2 misses %d", st.Accesses, l2Misses)
	}
	if st.RowHits+st.RowMisses != st.Accesses {
		t.Errorf("DRAM stats inconsistent: %+v", st)
	}
}

func TestDRAMChangesTiming(t *testing.T) {
	flat, err := New(testParams(L2Shared), makeGens(t, 35, []int{64, 64, 64, 64}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	flatRes := flat.RunSections(2)

	p := testParams(L2Shared)
	dram := mem.DefaultConfig()
	p.DRAM = &dram
	banked, err := New(p, makeGens(t, 35, []int{64, 64, 64, 64}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bankedRes := banked.RunSections(2)

	// Same work, different timing model.
	if flatRes.TotalInstr != bankedRes.TotalInstr {
		t.Errorf("work differs: %d vs %d", flatRes.TotalInstr, bankedRes.TotalInstr)
	}
	if flatRes.WallCycles == bankedRes.WallCycles {
		t.Error("banked DRAM produced identical timing to flat latency")
	}
}

func TestDRAMStatsWithoutModel(t *testing.T) {
	s, err := New(testParams(L2Shared), makeGens(t, 37, []int{16, 16, 16, 16}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.RunSections(1)
	if st := s.DRAMStats(); st.Accesses != 0 {
		t.Errorf("flat model reports DRAM stats: %+v", st)
	}
}

func TestSwapThreadsValidation(t *testing.T) {
	s, err := New(testParams(L2Shared), makeGens(t, 39, []int{16, 16, 16, 16}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SwapThreads(0, 4); err == nil {
		t.Error("out-of-range swap accepted")
	}
	if err := s.SwapThreads(-1, 0); err == nil {
		t.Error("negative swap accepted")
	}
	if err := s.SwapThreads(0, 1); err != nil {
		t.Errorf("valid swap rejected: %v", err)
	}
}

func TestSwapThreadsMovesWorkload(t *testing.T) {
	// Thread 3 has a much larger working set; after swapping it with
	// thread 0, core 0 should become the high-miss core.
	s, err := New(testParams(L2Shared), makeGens(t, 41, []int{8, 8, 8, 256}), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pre := s.RunIntervals(4)
	last := pre.Intervals[len(pre.Intervals)-1]
	if last.Threads[3].L2Misses <= last.Threads[0].L2Misses {
		t.Fatalf("setup wrong: core 3 should miss most before the swap")
	}
	if err := s.SwapThreads(0, 3); err != nil {
		t.Fatal(err)
	}
	post := s.RunIntervals(8)
	lastPost := post.Intervals[len(post.Intervals)-1]
	if lastPost.Threads[0].L2Misses <= lastPost.Threads[3].L2Misses {
		t.Errorf("after swap, core 0 misses %d <= core 3's %d",
			lastPost.Threads[0].L2Misses, lastPost.Threads[3].L2Misses)
	}
}
