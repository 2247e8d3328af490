package dsweep

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"intracache/internal/checkpoint"
	"intracache/internal/core"
	"intracache/internal/experiment"
	"intracache/internal/fault"
)

// ServeOptions configures the worker side of the protocol.
type ServeOptions struct {
	// Chaos injects execution faults into this worker (testing and the
	// -chaos flag only); the zero plan serves faithfully.
	Chaos fault.ExecPlan
	// JournalPath, when non-empty, journals every computed record
	// locally *before* it is sent, so a worker that dies between
	// compute and reply leaves its work recoverable: the coordinator
	// reads dead workers' journals back and merges them at the end.
	JournalPath string
	// HeartbeatEvery throttles progress heartbeats (default 250ms). It
	// must be comfortably below the coordinator's lease.
	HeartbeatEvery time.Duration
	// Exit overrides os.Exit for in-process test workers (a chaos kill
	// terminates the worker through it).
	Exit func(code int)
	// Drain, when non-nil, makes Serve return cleanly (nil error) once
	// the channel is closed — after the in-flight task, if any, has
	// been computed, journaled, and replied to. This is how a stdio
	// worker turns SIGTERM into a graceful exit: finish the cell the
	// coordinator is waiting on, never start another.
	Drain <-chan struct{}
	// Log receives worker-side diagnostics; nil discards them.
	Log func(format string, args ...interface{})
}

// Serve runs the worker side of the protocol over r/w until the stream
// ends. It answers PING with PONG and executes TASK frames one at a
// time, streaming HB heartbeats while a cell computes and finishing
// each task with exactly one RES frame. A close of opts.Drain ends the
// loop cleanly between frames — tasks are handled synchronously, so an
// in-flight cell always finishes (computed, journaled, replied) before
// the drain is noticed.
func Serve(ctx context.Context, r io.Reader, w io.Writer, opts ServeOptions) error {
	srv, err := newServer(opts)
	if err != nil {
		return err
	}
	defer srv.close()
	bw := bufio.NewWriter(w)

	// Frames are read on a side goroutine so the loop can select on the
	// drain signal while blocked waiting for the coordinator's next
	// frame. When Serve returns mid-stream the goroutine stays blocked
	// on its unbuffered send; that is fine — every Serve caller exits
	// the process (or closes r, unblocking readFrame) right after.
	type frameMsg struct {
		kind    string
		payload []byte
		err     error
	}
	frames := make(chan frameMsg)
	go func() {
		sc := newFrameScanner(r)
		for {
			kind, payload, err := readFrame(sc)
			frames <- frameMsg{kind: kind, payload: payload, err: err}
			if err != nil {
				return
			}
		}
	}()

	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-opts.Drain:
			return nil
		case m := <-frames:
			if m.err == io.EOF {
				return nil
			}
			if m.err != nil {
				return m.err
			}
			switch m.kind {
			case framePing:
				if err := writeFrame(bw, framePong, nil); err != nil {
					return err
				}
				if err := bw.Flush(); err != nil {
					return err
				}
			case frameTask:
				var t Task
				if err := unsealJSON(m.payload, &t); err != nil {
					return fmt.Errorf("dsweep: undecodable task: %w", err)
				}
				if err := srv.runTask(ctx, &t, bw); err != nil {
					return err
				}
			default:
				return fmt.Errorf("dsweep: unexpected %q frame from coordinator", m.kind)
			}
		}
	}
}

// ServeStdio serves on the process's stdin/stdout — the `-worker
// stdio` mode of cmd/sweep, and what ExecWorker launches.
func ServeStdio(ctx context.Context, opts ServeOptions) error {
	return Serve(ctx, os.Stdin, os.Stdout, opts)
}

// server holds per-worker state shared across tasks: the chaos
// injector and the lazily opened local journal.
type server struct {
	opts ServeOptions
	inj  *fault.ExecInjector // nil without chaos

	jr   *checkpoint.Journal
	jrFP string
}

func newServer(opts ServeOptions) (*server, error) {
	s := &server{opts: opts}
	if !opts.Chaos.IsZero() {
		var err error
		s.inj, err = fault.NewExecInjector(opts.Chaos)
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *server) close() {
	if s.jr != nil {
		s.jr.Close()
		s.jr = nil
	}
}

func (s *server) logf(format string, args ...interface{}) {
	if s.opts.Log != nil {
		s.opts.Log(format, args...)
	}
}

// exit terminates the worker (a chaos kill). The journal is closed
// first so a flushed record survives the death — the "killed between
// journal append and reply" case the coordinator's recovery path
// exists for.
func (s *server) exit(code int) {
	s.close()
	if s.opts.Exit != nil {
		s.opts.Exit(code)
		panic("dsweep: ServeOptions.Exit returned")
	}
	os.Exit(code)
}

// journal returns the worker-local journal for the sweep fingerprint,
// opening or reopening it as needed. Journal trouble degrades to
// journal-less operation rather than failing the task.
func (s *server) journal(fp string) *checkpoint.Journal {
	if s.opts.JournalPath == "" {
		return nil
	}
	if s.jr != nil && s.jrFP == fp {
		return s.jr
	}
	s.close()
	jr, _, err := checkpoint.OpenJournal(s.opts.JournalPath, fp)
	if err != nil {
		s.logf("dsweep worker: journal %s: %v", s.opts.JournalPath, err)
		return nil
	}
	s.jr, s.jrFP = jr, fp
	return jr
}

// chaosTriggerTicks is how many progress ticks a kill or hang waits
// before firing, so those faults land mid-cell (after partial work)
// rather than degenerating into a clean never-started dispatch.
const chaosTriggerTicks = 2

// runTask executes one task and writes its RES frame. The returned
// error is transport-level only (a dead coordinator); cell failures
// travel inside the Result.
func (s *server) runTask(ctx context.Context, t *Task, bw *bufio.Writer) error {
	f := fault.ExecNone
	if s.inj != nil {
		f = s.inj.Draw(t.Key, t.Attempt)
		if f != fault.ExecNone {
			s.logf("dsweep worker: chaos %s on %s attempt %d", f, t.Key, t.Attempt)
		}
	}
	if f == fault.ExecSlowStart {
		select {
		case <-time.After(s.inj.SlowStart()):
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	cellCtx, cancelCell := context.WithCancel(ctx)
	defer cancelCell()
	beat := s.beatFunc(bw, cancelCell)
	ticks := 0
	onProgress := func() {
		ticks++
		if ticks == chaosTriggerTicks {
			switch f {
			case fault.ExecKill:
				s.exit(3)
			case fault.ExecHang:
				// Hang silently mid-cell: no heartbeats, no reply, and
				// the connection stays open — the case only the
				// coordinator's lease can catch. Unblocks (and aborts
				// the cell) only when the serve context dies.
				<-ctx.Done()
				cancelCell()
			}
		}
		if f == fault.ExecHang && ticks >= chaosTriggerTicks {
			return
		}
		beat()
	}

	res := Result{Key: t.Key, Attempt: t.Attempt, Fingerprint: t.Fingerprint}
	rec, err := s.compute(cellCtx, t, onProgress)
	if err != nil {
		res.ErrKind = experiment.CellErrorKind(err)
		res.Err = err.Error()
	} else {
		res.Record = rec
		if jr := s.journal(t.Fingerprint); jr != nil {
			// Journal before replying: death on the reply path must not
			// lose the result.
			if jerr := jr.Append(t.Key, rec); jerr != nil {
				s.logf("dsweep worker: journal append %s: %v", t.Key, jerr)
			}
		}
	}

	payload, err := sealJSON(res)
	if err != nil {
		return err
	}
	switch f {
	case fault.ExecCorrupt:
		payload = fault.CorruptPayload(payload, t.Key)
	case fault.ExecTruncate:
		payload = fault.TruncatePayload(payload, t.Key)
	}
	if err := writeFrame(bw, frameResult, payload); err != nil {
		return err
	}
	return bw.Flush()
}

// compute runs the cell through the shared compute path. Retry stays
// coordinator-side (Attempts left zero = one try), so every retry is a
// fresh dispatch with a fresh chaos draw and lease.
func (s *server) compute(ctx context.Context, t *Task, onProgress func()) (experiment.CellRecord, error) {
	baseline, err := core.ParsePolicy(t.Baseline)
	if err != nil {
		return experiment.CellRecord{}, err
	}
	candidate, err := core.ParsePolicy(t.Candidate)
	if err != nil {
		return experiment.CellRecord{}, err
	}
	rec, _, err := experiment.RunSweepCell(ctx, t.Key, t.Cfg, t.Benchmark,
		baseline, candidate,
		experiment.CellOptions{Timeout: t.Timeout, StallTimeout: t.StallTimeout},
		onProgress)
	return rec, err
}

// beatFunc returns a throttled heartbeat emitter. A failed heartbeat
// write means the coordinator is gone, so it cancels the cell instead
// of computing a result nobody will read.
func (s *server) beatFunc(bw *bufio.Writer, cancel context.CancelFunc) func() {
	every := s.opts.HeartbeatEvery
	if every <= 0 {
		every = 250 * time.Millisecond
	}
	var last time.Time
	return func() {
		now := time.Now()
		if !last.IsZero() && now.Sub(last) < every {
			return
		}
		last = now
		if err := writeFrame(bw, frameBeat, nil); err != nil {
			cancel()
			return
		}
		if err := bw.Flush(); err != nil {
			cancel()
		}
	}
}
