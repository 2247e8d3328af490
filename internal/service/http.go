package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"intracache/internal/checkpoint"
)

// Wire format: ingest bodies and replies are JSON sealed in the same
// CRC64 envelope dsweep uses for cell payloads (checkpoint.Seal), so a
// truncated or bit-flipped batch is detected before a single field is
// interpreted. SealJSON/UnsealJSON are exported for clients — the load
// generator, partitiond's selftest, and external telemetry agents.

// SealJSON marshals v and wraps it in the checkpoint envelope.
func SealJSON(v interface{}) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return checkpoint.Seal(payload), nil
}

// UnsealJSON validates an envelope and unmarshals its payload into v.
func UnsealJSON(data []byte, v interface{}) error {
	payload, err := checkpoint.Unseal(data)
	if err != nil {
		return err
	}
	return json.Unmarshal(payload, v)
}

// maxBodyBytes bounds one ingest request body, mirroring the dsweep
// HTTP worker's cell cap: no legitimate batch comes near it, and it
// stops a confused client from ballooning the daemon's memory.
const maxBodyBytes = 8 << 20

// Server exposes a Backend (the single-lock Service or the Sharded
// fan-out — the handlers cannot tell) over HTTP:
//
//	POST /ingest   sealed JSON Batch → sealed JSON IngestReply
//	GET  /alloc    ?app= → JSON Allocation
//	GET  /alloc    ?app=&watch=1&epoch=N → long-poll: JSON Allocation
//	               once the session's epoch exceeds N, 204 on timeout
//	GET  /stats    → JSON Stats (with latency percentiles)
//	GET  /healthz  → 200 "ok" | 503 "draining"
//	GET  /readyz   → 200 "ready" | 503 "draining" / "starting"
//
// Status codes map rejection kinds: 503 draining, 400 malformed or
// shape-mismatch, 429 session-limit; an accepted batch (even one that
// dropped older samples) is 200 with the reply detailing the drops.
//
// The watch form is the push path: a client holds one idle request
// open instead of polling, passes back the Epoch from each response,
// and is answered the moment a decision actually changes its
// allocation or rung. A 204 means "no change within the poll window;
// ask again with the same epoch" — it is also what every parked
// watcher receives the instant a drain starts, so graceful shutdown
// never waits out idle long-polls.
type Server struct {
	svc   Backend
	mux   *http.ServeMux
	ready atomic.Bool
}

// NewServer wraps svc. The server starts not-ready; the owner calls
// SetReady(true) once listeners and tickers are up.
func NewServer(svc Backend) (*Server, error) {
	if svc == nil {
		return nil, fmt.Errorf("service: nil service")
	}
	s := &Server{svc: svc, mux: http.NewServeMux()}
	s.mux.HandleFunc("/ingest", s.handleIngest)
	s.mux.HandleFunc("/alloc", s.handleAlloc)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetReady flips the /readyz gate.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > maxBodyBytes {
		http.Error(w, "batch exceeds 8 MiB", http.StatusRequestEntityTooLarge)
		return
	}
	var batch Batch
	if err := UnsealJSON(body, &batch); err != nil {
		// An undecodable envelope is malformed telemetry too — count it
		// so the taxonomy sees wire-level corruption, not just
		// structural badness.
		s.svc.CountWireReject()
		writeSealed(w, http.StatusBadRequest, IngestReply{
			Rejected: RejectMalformed, Reason: "envelope: " + err.Error()})
		return
	}
	reply := s.svc.Ingest(batch)
	status := http.StatusOK
	switch reply.Rejected {
	case RejectDraining:
		status = http.StatusServiceUnavailable
	case RejectSessionLimit:
		status = http.StatusTooManyRequests
	case RejectMalformed, RejectMismatch:
		status = http.StatusBadRequest
	}
	writeSealed(w, status, reply)
}

func writeSealed(w http.ResponseWriter, status int, v interface{}) {
	data, err := SealJSON(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(status)
	w.Write(data)
}

// Watch long-poll bounds: a request may ask for a shorter window via
// ?timeout=, but never a longer one — the cap bounds how long one idle
// connection can sit parked. (A drain does not wait for these windows:
// StartDraining wakes every parked watcher immediately.)
const (
	defaultWatchWait = 30 * time.Second
	maxWatchWait     = 60 * time.Second
)

func (s *Server) handleAlloc(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	app := q.Get("app")
	if app == "" {
		http.Error(w, "missing app parameter", http.StatusBadRequest)
		return
	}
	if q.Get("watch") == "" {
		alloc, ok := s.svc.Allocation(app)
		if !ok {
			http.Error(w, "unknown application", http.StatusNotFound)
			return
		}
		writeJSON(w, alloc)
		return
	}

	since, wait, err := parseWatchQuery(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	alloc, werr := s.svc.AllocationWatch(ctx, app, since)
	switch {
	case werr == nil:
		writeJSON(w, alloc)
	case errors.Is(werr, ErrUnknownApp):
		http.Error(w, "unknown application", http.StatusNotFound)
	case errors.Is(werr, ErrDraining):
		// Drain started: the watcher is woken immediately (instead of
		// stalling shutdown for its whole poll window) and told to
		// re-poll — its load balancer will route the retry elsewhere.
		w.WriteHeader(http.StatusNoContent)
	default:
		// Poll window expired (or the client went away) with no change:
		// 204 tells the client to re-poll with the same epoch.
		w.WriteHeader(http.StatusNoContent)
	}
}

// parseWatchQuery reads a long-poll's parameters: answer as soon as
// the session's epoch exceeds ?epoch= (0 when absent: return the
// current allocation immediately), waiting at most ?timeout=, which
// defaults to defaultWatchWait and is capped at maxWatchWait.
func parseWatchQuery(q url.Values) (since uint64, wait time.Duration, err error) {
	if ev := q.Get("epoch"); ev != "" {
		if since, err = strconv.ParseUint(ev, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("bad epoch parameter: %w", err)
		}
	}
	wait = defaultWatchWait
	if tv := q.Get("timeout"); tv != "" {
		d, err := time.ParseDuration(tv)
		if err != nil || d <= 0 {
			return 0, 0, errors.New("bad timeout parameter")
		}
		wait = d
	}
	if wait > maxWatchWait {
		wait = maxWatchWait
	}
	return since, wait, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, s.svc.SnapshotStats())
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.svc.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.svc.Draining():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case !s.ready.Load():
		http.Error(w, "starting", http.StatusServiceUnavailable)
	default:
		w.Write([]byte("ready\n"))
	}
}
