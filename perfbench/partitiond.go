package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"intracache/internal/fault"
	"intracache/internal/service"
	"intracache/internal/service/loadgen"
)

// The partitiond workload runs the daemon's real stack in-process: a
// one-shard service.Sharded behind service.NewServer on a loopback
// listener, restored from a pre-built fleet checkpoint, with a ticker
// calling Tick and SaveCheckpoint as cmd/partitiond serve does. Load
// comes from a loadgen fleet over two client connections.
//
// Each unit restores a fresh server and posts the same fixed set of
// sealed batches closed-loop, then decides them all. Per-app decisions
// are a pure function of each app's sample sequence, but which tick
// decides which samples depends on timing, so the output check compares
// every app's final allocation, processed-sample count and rung against
// a reference service fed the same batches with deterministic ticks.
const (
	fleetApps       = 1024
	warmSteps       = 8                      // fleet steps baked into the checkpoint
	unitRounds      = 8                      // batches per app per unit
	conns           = 2                      // client connections, one sender goroutine each
	unitTick        = time.Second            // cmd/partitiond -tick default
	loadTick        = 100 * time.Millisecond // tick of the open-loop phases
	checkpointEvery = 60                     // ticks between checkpoints, cmd/partitiond's default
	faultFraction   = 0.05
	watchEvery      = 8 // apps with index%watchEvery == 0 are read and watched
	readEvery       = 4 // every readEvery-th reference-phase request is a GET /alloc
	refRate         = 4000.0
	refDuration     = 3 * time.Second
	rampStep        = time.Second
	sloP99          = 100 * time.Millisecond // cmd/partitiond -slo-p99 default
)

// rampRates are the fixed offered rates (batches/s) of the step ramp.
var rampRates = []float64{4000, 8000, 12000, 16000, 20000, 24000, 28000, 32000, 36000, 40000}

// fleet is the workload's generated input.
type fleet struct {
	ckpt    string
	apps    []string
	bodies  [][]byte // sealed unit batches, round by round
	owner   []int    // app index of each body
	samples int64    // samples in one unit
	want    string   // digest of the reference service's final state
}

func prepareFleet(seed uint64, dir string) (*fleet, error) {
	gen, err := loadgen.New(loadgen.Config{Apps: fleetApps, Seed: seed, FaultFraction: faultFraction,
		Fault: fault.Plan{CPINoise: 0.5, DropRate: 0.2}})
	if err != nil {
		return nil, err
	}
	svc := service.NewSharded(service.Options{}, 1, 0)
	for s := 0; s < warmSteps; s++ {
		for _, bt := range gen.Step() {
			if r := svc.Ingest(bt); r.Rejected != "" {
				return nil, fmt.Errorf("warm-up batch for %s rejected: %s", bt.App, r.Reason)
			}
		}
		svc.Tick(0)
	}
	f := &fleet{ckpt: filepath.Join(dir, "fleet.ckpt")}
	if err := svc.SaveCheckpoint(f.ckpt); err != nil {
		return nil, err
	}
	index := map[string]int{}
	for i, a := range gen.Apps {
		f.apps = append(f.apps, a.Name)
		index[a.Name] = i
	}
	var batches []service.Batch
	for r := 0; r < unitRounds; r++ {
		for _, bt := range gen.Step() {
			body, err := service.SealJSON(bt)
			if err != nil {
				return nil, err
			}
			f.bodies = append(f.bodies, body)
			f.owner = append(f.owner, index[bt.App])
			f.samples += int64(len(bt.Samples))
			batches = append(batches, bt)
		}
	}
	ref := service.NewSharded(service.Options{}, 1, 0)
	if err := ref.LoadCheckpoint(f.ckpt); err != nil {
		return nil, err
	}
	for _, bt := range batches {
		if r := ref.Ingest(bt); r.Rejected != "" || r.Dropped > 0 {
			return nil, fmt.Errorf("reference ingest for %s: rejected %q, dropped %d", bt.App, r.Rejected, r.Dropped)
		}
	}
	for len(ref.Tick(0)) > 0 {
	}
	f.want = allocDigest(ref, f.apps)
	return f, nil
}

// allocDigest hashes every app's timing-independent final state.
func allocDigest(be service.Backend, apps []string) string {
	var d digest
	for _, app := range apps {
		a, ok := be.Allocation(app)
		d.line(fmt.Sprintf("%s %t %v %d %s", app, ok, a.Alloc, a.Interval, a.Rung))
	}
	return d.sum()
}

// svcTrace collects the service layer's timings from the wrappers.
type svcTrace struct {
	mu                           sync.Mutex
	httpIngest, ingest, allocGet []time.Duration
	tick                         []time.Duration
	decisions                    int
	save, restore                []time.Duration
}

func (t *svcTrace) add(list *[]time.Duration, d time.Duration) {
	t.mu.Lock()
	*list = append(*list, d)
	t.mu.Unlock()
}

// resetPhase drops the per-request timings, keeping checkpoint and
// restore timings, which span the whole run.
func (t *svcTrace) resetPhase() {
	t.mu.Lock()
	t.httpIngest, t.ingest, t.allocGet, t.tick, t.decisions = nil, nil, nil, nil, 0
	t.mu.Unlock()
}

// tracedBackend times the service calls the HTTP layer and the ticker
// make; every other Backend method is forwarded untouched.
type tracedBackend struct {
	service.Backend
	tr *svcTrace
}

func (b *tracedBackend) Ingest(bt service.Batch) service.IngestReply {
	t0 := time.Now()
	r := b.Backend.Ingest(bt)
	b.tr.add(&b.tr.ingest, time.Since(t0))
	return r
}

func (b *tracedBackend) Tick(budget time.Duration) []service.Decision {
	t0 := time.Now()
	ds := b.Backend.Tick(budget)
	d := time.Since(t0)
	b.tr.mu.Lock()
	b.tr.tick = append(b.tr.tick, d)
	b.tr.decisions += len(ds)
	b.tr.mu.Unlock()
	return ds
}

func (b *tracedBackend) SaveCheckpoint(path string) error {
	t0 := time.Now()
	err := b.Backend.SaveCheckpoint(path)
	b.tr.add(&b.tr.save, time.Since(t0))
	return err
}

// tracedHandler times whole requests at the HTTP handler boundary.
type tracedHandler struct {
	inner http.Handler
	tr    *svcTrace
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	h.inner.ServeHTTP(w, r)
	d := time.Since(t0)
	switch {
	case r.URL.Path == "/ingest":
		h.tr.add(&h.tr.httpIngest, d)
	case r.URL.Path == "/alloc" && r.URL.Query().Get("watch") == "":
		h.tr.add(&h.tr.allocGet, d)
	}
}

type tickSpan struct{ start, end time.Time }

// liveServer is one running daemon stack.
type liveServer struct {
	svc    *service.Sharded
	be     service.Backend
	srv    *http.Server
	url    string
	ckpt   string
	period time.Duration

	processed, accepted atomic.Int64 // samples

	stop   chan struct{}
	done   chan struct{}
	served chan error

	mu      sync.Mutex
	ticks   map[uint64]tickSpan // by service tick number, ticks that decided
	tickDur []time.Duration     // every tick, in order
	backlog []int64             // accepted-processed after every tick
	saveErr error
}

// startServer restores the fleet checkpoint into a fresh stack ticking
// every period and returns once /readyz answers 200.
func startServer(f *fleet, dir string, tr *svcTrace, client *http.Client, period time.Duration) (*liveServer, error) {
	svc := service.NewSharded(service.Options{}, 1, 0)
	t0 := time.Now()
	if err := svc.LoadCheckpoint(f.ckpt); err != nil {
		return nil, err
	}
	ls := &liveServer{svc: svc, be: svc, ckpt: filepath.Join(dir, "live.ckpt"), period: period,
		stop: make(chan struct{}), done: make(chan struct{}), served: make(chan error, 1),
		ticks: map[uint64]tickSpan{}}
	if tr != nil {
		tr.add(&tr.restore, time.Since(t0))
		ls.be = &tracedBackend{Backend: svc, tr: tr}
	}
	h, err := service.NewServer(ls.be)
	if err != nil {
		return nil, err
	}
	var handler http.Handler = h
	if tr != nil {
		handler = &tracedHandler{inner: h, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls.srv = &http.Server{Handler: handler}
	ls.url = "http://" + ln.Addr().String()
	go func() { ls.served <- ls.srv.Serve(ln) }()
	go ls.tickLoop()
	h.SetReady(true)
	for i := 0; ; i++ {
		resp, err := client.Get(ls.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ls, nil
			}
		}
		if i == 1000 {
			ls.close()
			return nil, fmt.Errorf("server not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains the stack as cmd/partitiond does (wake watchers, stop
// serving, stop the ticker, one final tick and checkpoint) and waits
// for its goroutines.
func (ls *liveServer) close() error {
	ls.be.StartDraining()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.srv.Shutdown(ctx)
	<-ls.served
	close(ls.stop)
	<-ls.done
	ls.tick()
	if serr := ls.be.SaveCheckpoint(ls.ckpt); err == nil {
		err = serr
	}
	if err == nil {
		ls.mu.Lock()
		err = ls.saveErr
		ls.mu.Unlock()
	}
	return err
}

func (ls *liveServer) tickLoop() {
	defer close(ls.done)
	tk := time.NewTicker(ls.period)
	defer tk.Stop()
	for n := 1; ; n++ {
		select {
		case <-ls.stop:
			return
		case <-tk.C:
		}
		ls.tick()
		if n%checkpointEvery == 0 {
			if err := ls.be.SaveCheckpoint(ls.ckpt); err != nil {
				ls.mu.Lock()
				ls.saveErr = err
				ls.mu.Unlock()
			}
		}
	}
}

func (ls *liveServer) tick() {
	start := time.Now()
	ds := ls.be.Tick(0)
	end := time.Now()
	var n int64
	for _, d := range ds {
		n += int64(d.Samples)
	}
	processed := ls.processed.Add(n)
	ls.mu.Lock()
	if len(ds) > 0 {
		ls.ticks[ds[0].Tick] = tickSpan{start, end}
	}
	ls.tickDur = append(ls.tickDur, end.Sub(start))
	ls.backlog = append(ls.backlog, ls.accepted.Load()-processed)
	ls.mu.Unlock()
}

// drain ticks until every accepted sample has been decided.
func (ls *liveServer) drain() error {
	limit := time.Now().Add(30 * time.Second)
	for ls.processed.Load() < ls.accepted.Load() {
		if time.Now().After(limit) {
			return fmt.Errorf("drain: %d of %d samples decided", ls.processed.Load(), ls.accepted.Load())
		}
		ls.tick()
	}
	return nil
}

// post sends one sealed batch; a non-200 answer or a rejection is an
// error, and accepted samples are counted for drain.
func (ls *liveServer) post(client *http.Client, body []byte) (service.IngestReply, error) {
	var rep service.IngestReply
	resp, err := client.Post(ls.url+"/ingest", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return rep, err
	}
	if err := service.UnsealJSON(data, &rep); err != nil {
		return rep, fmt.Errorf("ingest: status %d: %v", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || rep.Rejected != "" {
		return rep, fmt.Errorf("ingest: status %d: %s %s", resp.StatusCode, rep.Rejected, rep.Reason)
	}
	ls.accepted.Add(int64(rep.Accepted))
	return rep, nil
}

func (ls *liveServer) getAlloc(client *http.Client, app string) error {
	resp, err := client.Get(ls.url + "/alloc?app=" + url.QueryEscape(app))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("alloc %s: status %d", app, resp.StatusCode)
	}
	return nil
}

// closedLoop posts every unit batch, each connection sending its apps'
// batches in order and the next only after the previous reply. It
// returns the failed posts.
func (ls *liveServer) closedLoop(f *fleet, client *http.Client) int {
	var wg sync.WaitGroup
	var failed atomic.Int64
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, body := range f.bodies {
				if f.owner[i]%conns != c {
					continue
				}
				if rep, err := ls.post(client, body); err != nil || rep.Dropped > 0 {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(failed.Load())
}

// openOut is one open-loop phase's client-side record.
type openOut struct {
	ingestMs, lagMs   []float64
	attempted, failed int
	dropped           int
}

type event struct {
	at   time.Duration
	body int    // index into fleet.bodies, or -1 for a read
	app  string // read target
}

// openLoop offers rate requests per second for d: every readEvery-th
// request reads a watched app when reads is non-empty, the rest post
// unit batches cyclically from *cursor. Each request is timed from when
// it was due, so a stalled connection charges its wait to every later
// request; lag is how late each request actually started.
func (ls *liveServer) openLoop(f *fleet, client *http.Client, rate float64, d time.Duration,
	reads []string, cursor *int) openOut {
	n := int(rate * d.Seconds())
	per := make([][]event, conns)
	for i := 0; i < n; i++ {
		at := time.Duration(float64(i) / rate * float64(time.Second))
		if len(reads) > 0 && i%readEvery == readEvery-1 {
			k := (i / readEvery) % len(reads)
			per[k%conns] = append(per[k%conns], event{at: at, body: -1, app: reads[k]})
			continue
		}
		j := *cursor % len(f.bodies)
		*cursor++
		c := f.owner[j] % conns
		per[c] = append(per[c], event{at: at, body: j})
	}
	var mu sync.Mutex
	var out openOut
	var wg sync.WaitGroup
	start := time.Now().Add(2 * time.Millisecond)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ingest, lag []float64
			failed, dropped := 0, 0
			for _, ev := range per[c] {
				due := start.Add(ev.at)
				if w := time.Until(due); w > 0 {
					time.Sleep(w)
				}
				lag = append(lag, float64(time.Since(due))/1e6)
				if ev.body < 0 {
					if err := ls.getAlloc(client, ev.app); err != nil {
						failed++
					}
					continue
				}
				rep, err := ls.post(client, f.bodies[ev.body])
				ingest = append(ingest, float64(time.Since(due))/1e6)
				if err != nil {
					failed++
				}
				dropped += rep.Dropped
			}
			mu.Lock()
			out.ingestMs = append(out.ingestMs, ingest...)
			out.lagMs = append(out.lagMs, lag...)
			out.attempted += len(per[c])
			out.failed += failed
			out.dropped += dropped
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

type wake struct {
	tick    uint64
	at      time.Time
	changed bool
}

// watchApps parks one in-process AllocationWatch caller per app until
// ctx ends; the returned function waits for them and returns every
// wake.
func watchApps(ctx context.Context, be service.Backend, apps []string) func() []wake {
	var mu sync.Mutex
	var wakes []wake
	var wg sync.WaitGroup
	for _, app := range apps {
		cur, _ := be.Allocation(app)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				a, err := be.AllocationWatch(ctx, app, cur.Epoch)
				if err != nil {
					return
				}
				w := wake{tick: a.Tick, at: time.Now(), changed: !slices.Equal(a.Alloc, cur.Alloc)}
				mu.Lock()
				wakes = append(wakes, w)
				mu.Unlock()
				cur = a
			}
		}()
	}
	return func() []wake {
		wg.Wait()
		return wakes
	}
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// unitOut is one closed-loop unit's record.
type unitOut struct {
	setup, wall, cpu  float64
	attempted, failed int
	digest            string
}

// runUnit restores a server (set-up), posts the unit closed-loop and
// decides every sample (the timed work). The server is returned still
// running; the caller closes it.
func runUnit(f *fleet, dir string, tr *svcTrace, client *http.Client) (unitOut, *liveServer, error) {
	// Start each restore from a collected heap, as a fresh daemon
	// process would.
	runtime.GC()
	t0 := time.Now()
	ls, err := startServer(f, dir, tr, client, unitTick)
	if err != nil {
		return unitOut{}, nil, err
	}
	u := unitOut{setup: time.Since(t0).Seconds(), attempted: len(f.bodies)}
	c0, w0 := cpuSeconds(), time.Now()
	u.failed = ls.closedLoop(f, client)
	if err := ls.drain(); err != nil {
		ls.close()
		return u, nil, err
	}
	u.wall = time.Since(w0).Seconds()
	u.cpu = cpuSeconds() - c0
	u.digest = allocDigest(ls.be, f.apps)
	return u, ls, nil
}

func runPartitiond(b *bench) (*result, error) {
	res := newResult()
	f, err := prepareFleet(b.seed, b.work)
	if err != nil {
		return nil, err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	var setups, walls, cpus []float64
	unit := func(tr *svcTrace) (unitOut, *liveServer, error) {
		u, ls, err := runUnit(f, b.work, tr, client)
		if err != nil {
			return u, nil, err
		}
		res.attempted += u.attempted
		res.failed += u.failed
		if u.digest != f.want {
			res.problem("final allocations differ from the reference service (digest %s, want %s)", u.digest, f.want)
		}
		return u, ls, nil
	}
	closeUnit := func(ls *liveServer) error {
		err := ls.close()
		client.CloseIdleConnections()
		return err
	}

	if !b.traced {
		resetPeakRSS()
		for i := 0; i < minUnits || time.Now().Before(b.deadline()); i++ {
			u, ls, err := unit(nil)
			if err != nil {
				return nil, err
			}
			if err := closeUnit(ls); err != nil {
				return nil, err
			}
			setups = append(setups, u.setup)
			walls = append(walls, u.wall)
			cpus = append(cpus, u.cpu)
		}
		res.metrics["wall_s"] = median(walls)
		res.metrics["cpu_s"] = median(cpus)
		res.metrics["setup_s"] = median(setups)
		res.metrics["max_rss_mb"] = peakRSSMB()
		res.notes["wall_s"] = walls
		res.notes["setup_s"] = setups
		res.notes["digest"] = f.want
		return res, nil
	}

	m := res.metrics
	g0 := readGoStats()
	uu, ls, err := unit(nil)
	if err != nil {
		return nil, err
	}
	runtimeMetrics(m, g0, readGoStats(), len(f.bodies))
	if err := closeUnit(ls); err != nil {
		return nil, err
	}

	tr := &svcTrace{}
	ut, ls, err := unit(tr)
	if err != nil {
		return nil, err
	}
	m["bench.traced_overhead_frac"] = ut.wall/uu.wall - 1
	res.notes["untraced_wall_s"] = uu.wall
	res.notes["traced_wall_s"] = ut.wall
	if err := closeUnit(ls); err != nil {
		return nil, err
	}

	// Reference rate: open-loop writes and reads, with watchers, on a
	// stack ticking often enough that decisions keep up with the ramp.
	runtime.GC()
	ls, err = startServer(f, b.work, tr, client, loadTick)
	if err != nil {
		return nil, err
	}
	tr.resetPhase()
	st0 := ls.svc.SnapshotStats()
	p0, a0 := ls.processed.Load(), ls.accepted.Load()
	var watched []string
	for i, app := range f.apps {
		if i%watchEvery == 0 {
			watched = append(watched, app)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	wait := watchApps(ctx, ls.be, watched)
	cursor := 0
	ref := ls.openLoop(f, client, refRate, refDuration, watched, &cursor)
	derr := ls.drain()
	cancel()
	wakes := wait()
	if derr != nil {
		ls.close()
		return nil, derr
	}
	res.attempted += ref.attempted
	res.failed += ref.failed
	st1 := ls.svc.SnapshotStats()
	serviceMetrics(m, ls, tr, ref, wakes, st0, st1,
		float64(ls.processed.Load()-p0), float64(ls.accepted.Load()-a0))

	steps := ls.ramp(f, client, &cursor)
	res.notes["ramp"] = steps
	for _, s := range steps {
		res.attempted += s.Attempted
		res.failed += s.Failed
		if s.Pass {
			m["partitiond.max_batches_per_s"] = s.Rate
		}
	}
	if err := closeUnit(ls); err != nil {
		return nil, err
	}
	if fi, err := os.Stat(ls.ckpt); err == nil {
		m["service.checkpoint_bytes"] = float64(fi.Size())
	}
	tr.mu.Lock()
	m["service.checkpoint_save_ms_p99"] = quantile(msOf(tr.save), 0.99)
	m["service.restore_s"] = median(secondsOf(tr.restore))
	tr.mu.Unlock()
	return res, nil
}

// serviceMetrics computes the reference phase's partitiond.* and
// service.* metrics.
func serviceMetrics(m map[string]float64, ls *liveServer, tr *svcTrace, ref openOut, wakes []wake,
	st0, st1 service.Stats, processed, accepted float64) {
	m["partitiond.ingest_p50_ms"] = quantile(ref.ingestMs, 0.50)
	m["partitiond.ingest_p99_ms"] = quantile(ref.ingestMs, 0.99)
	m["bench.gen_lag_p99_ms"] = quantile(ref.lagMs, 0.99)

	ls.mu.Lock()
	var decision, wakeUs []float64
	changed := 0
	for _, w := range wakes {
		span, ok := ls.ticks[w.tick]
		if !ok {
			continue
		}
		wakeUs = append(wakeUs, max(0, float64(w.at.Sub(span.end))/1e3))
		if w.changed {
			changed++
			decision = append(decision, float64(w.at.Sub(span.start))/1e6)
		}
	}
	ls.mu.Unlock()
	m["partitiond.decision_p99_ms"] = quantile(decision, 0.99)
	m["service.watch_wake_us_p99"] = quantile(wakeUs, 0.99)
	m["service.watch_changed_frac"] = ratio(float64(changed), float64(len(wakes)))

	tr.mu.Lock()
	httpUs, ingUs := usOf(tr.httpIngest), usOf(tr.ingest)
	m["service.http_ingest_us_p50"] = quantile(httpUs, 0.50)
	m["service.http_ingest_us_p99"] = quantile(httpUs, 0.99)
	m["service.ingest_us_p50"] = quantile(ingUs, 0.50)
	m["service.ingest_us_p99"] = quantile(ingUs, 0.99)
	if len(httpUs) > 0 && len(httpUs) == len(ingUs) {
		m["service.envelope_us_mean"] = (sum(httpUs) - sum(ingUs)) / float64(len(httpUs))
	}
	m["service.alloc_get_us_p99"] = quantile(usOf(tr.allocGet), 0.99)
	tickMs := msOf(tr.tick)
	m["service.tick_ms_p50"] = quantile(tickMs, 0.50)
	m["service.tick_ms_p99"] = quantile(tickMs, 0.99)
	m["service.decide_us_per_session"] = ratio(sum(tickMs)*1e3, float64(tr.decisions))
	tr.mu.Unlock()

	decisions := float64(st1.Decisions - st0.Decisions)
	m["service.samples_used_frac"] = ratio(processed, accepted)
	m["service.dropped_oldest"] = float64(st1.DroppedOldest - st0.DroppedOldest)
	m["service.dropped_pressure"] = float64(st1.DroppedPressure - st0.DroppedPressure)
	m["service.last_good_deadline"] = float64(st1.LastGoodDeadline - st0.LastGoodDeadline)
	m["service.rung_model_frac"] = ratio(float64(st1.RungModel-st0.RungModel), decisions)
}

// rampResult is one step of the rate ramp.
type rampResult struct {
	Rate              float64
	Attempted, Failed int
	IngestP99Ms       float64
	MaxTickMs         float64
	MaxBacklog, Limit int64
	Dropped           int
	Pass              bool
}

// ramp offers each rampRates rate for rampStep and stops after the
// first rate that misses the SLO: ingest p99 above sloP99, a failed
// request, a tick longer than its period, a dropped sample, or a
// backlog beyond two periods of arrivals after any tick.
func (ls *liveServer) ramp(f *fleet, client *http.Client, cursor *int) []rampResult {
	samplesPerBatch := float64(f.samples) / float64(len(f.bodies))
	var out []rampResult
	for _, rate := range rampRates {
		ls.mu.Lock()
		i0 := len(ls.tickDur)
		ls.mu.Unlock()
		o := ls.openLoop(f, client, rate, rampStep, nil, cursor)
		ls.mu.Lock()
		durs := append([]time.Duration(nil), ls.tickDur[i0:]...)
		backlog := append([]int64(nil), ls.backlog[i0:]...)
		ls.mu.Unlock()
		r := rampResult{Rate: rate, Attempted: o.attempted, Failed: o.failed, Dropped: o.dropped,
			IngestP99Ms: quantile(o.ingestMs, 0.99),
			Limit:       int64(2 * rate * ls.period.Seconds() * samplesPerBatch)}
		for _, d := range durs {
			r.MaxTickMs = max(r.MaxTickMs, float64(d)/1e6)
		}
		for _, b := range backlog {
			r.MaxBacklog = max(r.MaxBacklog, b)
		}
		r.Pass = o.failed == 0 && o.dropped == 0 && r.IngestP99Ms <= float64(sloP99)/1e6 &&
			r.MaxTickMs <= float64(ls.period)/1e6 && r.MaxBacklog <= r.Limit
		out = append(out, r)
		if !r.Pass || ls.drain() != nil {
			break
		}
	}
	return out
}

func usOf(ds []time.Duration) []float64 { return scaled(ds, 1e3) }
func msOf(ds []time.Duration) []float64 { return scaled(ds, 1e6) }
func secondsOf(ds []time.Duration) []float64 {
	return scaled(ds, 1e9)
}

func scaled(ds []time.Duration, unit float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / unit
	}
	return out
}
