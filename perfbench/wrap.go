package main

import (
	"time"

	"intracache/internal/cache"
	"intracache/internal/core"
	"intracache/internal/experiment"
	"intracache/internal/sim"
	"intracache/internal/trace"
	"intracache/internal/workload"
)

// This file assembles a (benchmark, policy, config) simulation from the
// layers' public constructors exactly as experiment.RunOneCtx does with
// CLI defaults, with timing wrappers at the trace, controller and
// monitor boundaries. The wrappers forward every optional capability
// the simulator probes for (trace.RunSource, sim.HealthReporter), so a
// wrapped run takes the same code paths and returns the same
// sim.Result; wrap_test.go pins that.

// genSampleEvery is how often (a power of two) the trace wrapper times
// a NextRun call. Timing every call would cost more than the call; the
// sampled mean, less the timer's own cost, estimates the rest.
const genSampleEvery = 16

// runStats is one wrapped run's layer measurements.
type runStats struct {
	policy  core.Policy
	runTime time.Duration
	res     sim.Result

	genCalls, genSampled uint64
	genSampledTime       time.Duration
	instructions         uint64

	decide    []time.Duration // per OnInterval call, MissCurve time excluded
	ctlTime   time.Duration   // OnInterval time, MissCurve included
	missCurve time.Duration
}

// genTime estimates the run's time inside the trace source.
func (s *runStats) genTime(timerCost time.Duration) time.Duration {
	if s.genSampled == 0 {
		return 0
	}
	per := s.genSampledTime/time.Duration(s.genSampled) - timerCost
	if per < 0 {
		per = 0
	}
	return per * time.Duration(s.genCalls)
}

// timedSource wraps a trace source, counting instructions and timing a
// sample of NextRun calls.
type timedSource struct {
	src trace.RunSource
	st  *runStats
}

func (t *timedSource) Next() trace.Instr {
	t.st.instructions++
	return t.src.Next()
}

func (t *timedSource) SetPhase(wsScale, streamScale float64) { t.src.SetPhase(wsScale, streamScale) }

func (t *timedSource) NextRun(max uint64) (uint64, trace.Instr) {
	t.st.genCalls++
	var n uint64
	var in trace.Instr
	if t.st.genCalls%genSampleEvery != 0 {
		n, in = t.src.NextRun(max)
	} else {
		t0 := time.Now()
		n, in = t.src.NextRun(max)
		t.st.genSampledTime += time.Since(t0)
		t.st.genSampled++
	}
	t.st.instructions += n
	if in.IsMem {
		t.st.instructions++
	}
	return n, in
}

// timedController wraps a controller, timing each OnInterval call and,
// through timedMonitors, the MissCurve reads inside it.
type timedController struct {
	inner sim.Controller
	mon   timedMonitors
	st    *runStats
}

func (c *timedController) OnInterval(iv sim.IntervalStats, mon sim.Monitors) []int {
	c.mon.inner = mon
	c.mon.spent = 0
	t0 := time.Now()
	out := c.inner.OnInterval(iv, &c.mon)
	d := time.Since(t0)
	c.st.ctlTime += d
	c.st.missCurve += c.mon.spent
	c.st.decide = append(c.st.decide, d-c.mon.spent)
	return out
}

// ControllerHealth forwards sim.HealthReporter; an inner controller
// without it reports "", as the simulator records for it unwrapped.
func (c *timedController) ControllerHealth() string {
	if h, ok := c.inner.(sim.HealthReporter); ok {
		return h.ControllerHealth()
	}
	return ""
}

type timedMonitors struct {
	inner sim.Monitors
	spent time.Duration
}

func (m *timedMonitors) MissCurve(thread int) []uint64 {
	t0 := time.Now()
	c := m.inner.MissCurve(thread)
	m.spent += time.Since(t0)
	return c
}

func (m *timedMonitors) Ways() int       { return m.inner.Ways() }
func (m *timedMonitors) NumThreads() int { return m.inner.NumThreads() }

// simParams mirrors experiment.Config's unexported simParams for the
// fields the benchmark's configurations set.
func simParams(c experiment.Config, pol core.Policy) sim.Params {
	p := sim.Params{
		NumThreads: c.NumThreads,
		L1: cache.Config{
			SizeBytes: c.L1KB * 1024, Ways: c.L1Ways,
			LineBytes: c.LineBytes, NumThreads: 1,
		},
		L2: cache.Config{
			SizeBytes: c.L2KB * 1024, Ways: c.L2Ways,
			LineBytes: c.LineBytes, NumThreads: c.NumThreads,
			SetGroups: c.SetGroups, Clusters: c.Clusters,
		},
		L2Org:                core.L2OrgFor(pol),
		Mechanism:            c.Mechanism,
		BaseCycles:           c.BaseCycles,
		L2HitCycles:          c.L2HitCycles,
		MemCycles:            c.MemCycles,
		SectionInstructions:  c.SectionInstructions,
		IntervalInstructions: c.IntervalInstructions,
	}
	if pol.NeedsUMON() {
		p.UMONSampleStride = c.UMONStride
		if p.UMONSampleStride <= 0 {
			p.UMONSampleStride = 4
		}
	}
	return p
}

// newRun builds one BySections run with every source passed through
// wrap (nil: bare generators) and the controller through wrapCtl (nil:
// unwrapped). It returns the simulator ready for its first instruction.
func newRun(cfg experiment.Config, prof workload.Profile, pol core.Policy,
	wrap func(trace.RunSource) trace.Source, wrapCtl func(sim.Controller) sim.Controller) (*sim.Simulator, error) {
	gens, err := prof.Generators(cfg.NumThreads, cfg.LineBytes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ctl, _, err := core.ControllerFor(pol)
	if err != nil {
		return nil, err
	}
	if ctl != nil && wrapCtl != nil {
		ctl = wrapCtl(ctl)
	}
	srcs := trace.Sources(gens)
	if wrap != nil {
		for i, g := range gens {
			srcs[i] = wrap(g)
		}
	}
	return sim.New(simParams(cfg, pol), srcs, ctl, prof.PhaseFunc(cfg.NumThreads))
}

// tracedRun runs one wrapped simulation and returns its measurements.
func tracedRun(cfg experiment.Config, prof workload.Profile, pol core.Policy) (*runStats, error) {
	st := &runStats{policy: pol}
	s, err := newRun(cfg, prof, pol,
		func(g trace.RunSource) trace.Source { return &timedSource{src: g, st: st} },
		func(c sim.Controller) sim.Controller { return &timedController{inner: c, st: st} })
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	st.res = s.RunSections(cfg.Sections)
	st.runTime = time.Since(t0)
	return st, nil
}

// timerCost is the median cost of one time.Now/time.Since pair, which
// the sampled trace timing subtracts.
func timerCost() time.Duration {
	ds := make([]float64, 0, 20000)
	for i := 0; i < cap(ds); i++ {
		t0 := time.Now()
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds))
}

// simLayerMetrics folds wrapped runs into the trace/sim/cache/umon/core
// per-layer metrics.
func simLayerMetrics(m map[string]float64, runs []*runStats, tc time.Duration) {
	var gen, self, ctl, miss, decideSum time.Duration
	var instr, simInstr, intervals, l2acc, l2miss uint64
	var decide []float64
	policyCtl := map[core.Policy]time.Duration{}
	policyRun := map[core.Policy]time.Duration{}
	for _, r := range runs {
		g := r.genTime(tc)
		gen += g
		ctl += r.ctlTime
		miss += r.missCurve
		self += r.runTime - g - r.ctlTime
		instr += r.instructions
		simInstr += r.res.TotalInstr
		intervals += uint64(len(r.res.Intervals))
		tot := r.res.L2Stats.Totals()
		l2acc += tot.Accesses
		l2miss += tot.Misses
		for _, d := range r.decide {
			decide = append(decide, float64(d)/1e3)
			decideSum += d
		}
		policyCtl[r.policy] += r.ctlTime
		policyRun[r.policy] += r.runTime
	}
	m["trace.gen_s"] = gen.Seconds()
	m["trace.instructions"] = float64(instr)
	m["trace.gen_ns_per_instr"] = ratio(float64(gen), float64(instr))
	m["sim.runs"] = float64(len(runs))
	m["sim.instructions"] = float64(simInstr)
	m["sim.intervals"] = float64(intervals)
	m["sim.self_s"] = self.Seconds()
	m["sim.self_ns_per_instr"] = ratio(float64(self), float64(simInstr))
	m["cache.l2_accesses"] = float64(l2acc)
	m["cache.l2_miss_ratio"] = ratio(float64(l2miss), float64(l2acc))
	m["umon.misscurve_s"] = miss.Seconds()
	m["core.decide_s"] = decideSum.Seconds()
	m["core.decide_calls"] = float64(len(decide))
	m["core.decide_us_p50"] = quantile(decide, 0.50)
	m["core.decide_us_p99"] = quantile(decide, 0.99)
	for _, pol := range []core.Policy{core.PolicyModelBased, core.PolicyThroughputUCP} {
		m["core.decide_share."+pol.String()] = ratio(float64(policyCtl[pol]), float64(policyRun[pol]))
	}
}
