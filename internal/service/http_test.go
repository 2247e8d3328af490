package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"testing/iotest"
	"time"
)

func newTestServer(t *testing.T, opts Options) (*Server, *Service, *httptest.Server) {
	t.Helper()
	svc := New(opts)
	srv, err := NewServer(svc)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, svc, hs
}

func postIngest(t *testing.T, url string, b Batch) (int, IngestReply) {
	t.Helper()
	body, err := SealJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/ingest", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var reply IngestReply
	if err := UnsealJSON(data, &reply); err != nil {
		t.Fatalf("unsealing reply (%d: %q): %v", resp.StatusCode, data, err)
	}
	return resp.StatusCode, reply
}

func TestHTTPIngestRoundTrip(t *testing.T) {
	_, svc, hs := newTestServer(t, Options{})
	code, reply := postIngest(t, hs.URL, mkBatch("web-01", 4, 16, 3, 7))
	if code != http.StatusOK || reply.Accepted != 3 || reply.Rejected != "" {
		t.Fatalf("ingest: code=%d reply=%+v", code, reply)
	}
	svc.Tick(0)

	resp, err := http.Get(hs.URL + "/alloc?app=web-01")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var alloc Allocation
	if err := json.NewDecoder(resp.Body).Decode(&alloc); err != nil {
		t.Fatal(err)
	}
	if alloc.App != "web-01" || len(alloc.Alloc) != 4 || alloc.Rung == "" {
		t.Fatalf("alloc: %+v", alloc)
	}
}

func TestHTTPStatusCodesByRejection(t *testing.T) {
	_, svc, hs := newTestServer(t, Options{MaxSessions: 1})
	if code, _ := postIngest(t, hs.URL, mkBatch("a", 2, 8, 1, 0)); code != http.StatusOK {
		t.Fatalf("first ingest code=%d", code)
	}
	if code, r := postIngest(t, hs.URL, mkBatch("b", 2, 8, 1, 0)); code != http.StatusTooManyRequests || r.Rejected != RejectSessionLimit {
		t.Fatalf("session limit: code=%d reply=%+v", code, r)
	}
	if code, r := postIngest(t, hs.URL, mkBatch("a", 4, 8, 1, 0)); code != http.StatusBadRequest || r.Rejected != RejectMismatch {
		t.Fatalf("mismatch: code=%d reply=%+v", code, r)
	}
	if code, r := postIngest(t, hs.URL, mkBatch("", 2, 8, 1, 0)); code != http.StatusBadRequest || r.Rejected != RejectMalformed {
		t.Fatalf("malformed: code=%d reply=%+v", code, r)
	}
	svc.StartDraining()
	if code, r := postIngest(t, hs.URL, mkBatch("a", 2, 8, 1, 0)); code != http.StatusServiceUnavailable || r.Rejected != RejectDraining {
		t.Fatalf("draining: code=%d reply=%+v", code, r)
	}
}

func TestHTTPCorruptEnvelopeRejected(t *testing.T) {
	_, svc, hs := newTestServer(t, Options{})
	body, _ := SealJSON(mkBatch("a", 2, 8, 1, 0))
	body[len(body)-1] ^= 0xff // flip a payload bit: CRC must catch it
	resp, err := http.Post(hs.URL+"/ingest", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt envelope: code=%d, want 400", resp.StatusCode)
	}
	if st := svc.SnapshotStats(); st.RejectedMalformed != 1 {
		t.Fatalf("wire corruption not in taxonomy: %+v", st)
	}
	if st := svc.SnapshotStats(); st.Sessions != 0 {
		t.Fatal("corrupt envelope created a session")
	}
}

// TestHTTPBodyRejectsCounted pins the two ingest rejections that come
// before the envelope is read: an oversized body (413) and a body that
// fails mid-read (400). Both answer with a sealed malformed IngestReply
// and count as wire rejects.
func TestHTTPBodyRejectsCounted(t *testing.T) {
	srv, svc, hs := newTestServer(t, Options{})
	resp, err := http.Post(hs.URL+"/ingest", "application/octet-stream",
		bytes.NewReader(make([]byte, maxBodyBytes+1)))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var reply IngestReply
	if err := UnsealJSON(data, &reply); err != nil {
		t.Fatalf("oversized body: reply %q is not sealed: %v", data, err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || reply.Rejected != RejectMalformed {
		t.Fatalf("oversized body: code=%d reply=%+v", resp.StatusCode, reply)
	}
	if st := svc.SnapshotStats(); st.RejectedMalformed != 1 {
		t.Fatalf("oversized body not in taxonomy: %+v", st)
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", io.MultiReader(
		bytes.NewReader([]byte("ICKP")), iotest.ErrReader(errors.New("connection reset")))))
	reply = IngestReply{}
	if err := UnsealJSON(rec.Body.Bytes(), &reply); err != nil {
		t.Fatalf("unreadable body: reply %q is not sealed: %v", rec.Body.Bytes(), err)
	}
	if rec.Code != http.StatusBadRequest || reply.Rejected != RejectMalformed ||
		reply.Reason != "reading body: connection reset" {
		t.Fatalf("unreadable body: code=%d reply=%+v", rec.Code, reply)
	}
	if st := svc.SnapshotStats(); st.RejectedMalformed != 2 || st.Sessions != 0 {
		t.Fatalf("unreadable body not in taxonomy: %+v", st)
	}
}

func TestHTTPHealthAndReadyProbes(t *testing.T) {
	srv, svc, hs := newTestServer(t, Options{})
	get := func(path string) (int, string) {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", code)
	}
	// Not ready until the owner says so.
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !bytes.Contains([]byte(body), []byte("starting")) {
		t.Fatalf("readyz before SetReady: %d %q", code, body)
	}
	srv.SetReady(true)
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after SetReady: %d", code)
	}
	svc.StartDraining()
	if code, body := get("/healthz"); code != http.StatusServiceUnavailable || !bytes.Contains([]byte(body), []byte("draining")) {
		t.Fatalf("healthz while draining: %d %q", code, body)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !bytes.Contains([]byte(body), []byte("draining")) {
		t.Fatalf("readyz while draining: %d %q", code, body)
	}
}

// TestHTTPAllocWatch pins the push path end to end: immediate answer
// for a stale epoch, 204 on poll-window expiry, wake-up on the next
// decision that changes the allocation, 404 for unknown apps, and 400
// for a garbage epoch.
func TestHTTPAllocWatch(t *testing.T) {
	_, svc, hs := newTestServer(t, Options{})
	postIngest(t, hs.URL, mkBatch("web-01", 4, 16, 2, 7))

	get := func(url string) (int, Allocation) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var alloc Allocation
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&alloc); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, alloc
	}

	// Stale epoch: immediate 200 with the creation-epoch allocation.
	code, alloc := get(hs.URL + "/alloc?app=web-01&watch=1&epoch=0")
	if code != http.StatusOK || alloc.Epoch != 1 {
		t.Fatalf("stale-epoch watch: %d %+v", code, alloc)
	}

	// Current epoch + short window, no decisions: 204, re-poll signal.
	if code, _ := get(hs.URL + "/alloc?app=web-01&watch=1&epoch=1&timeout=50ms"); code != http.StatusNoContent {
		t.Fatalf("expired watch: code=%d, want 204", code)
	}

	// Parked watcher answered by the next tick's allocation change.
	type res struct {
		code  int
		alloc Allocation
	}
	got := make(chan res, 1)
	go func() {
		c, a := get(hs.URL + "/alloc?app=web-01&watch=1&epoch=1&timeout=5s")
		got <- res{c, a}
	}()
	time.Sleep(20 * time.Millisecond) // let the watcher park
	svc.Tick(0)
	select {
	case r := <-got:
		if r.code != http.StatusOK || r.alloc.Epoch < 2 {
			t.Fatalf("woken watch: %d %+v", r.code, r.alloc)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("HTTP watcher never woke after a decision")
	}

	if code, _ := get(hs.URL + "/alloc?app=ghost&watch=1&epoch=0"); code != http.StatusNotFound {
		t.Fatalf("unknown app watch: code=%d, want 404", code)
	}
	if code, _ := get(hs.URL + "/alloc?app=web-01&watch=1&epoch=banana"); code != http.StatusBadRequest {
		t.Fatalf("bad epoch: code=%d, want 400", code)
	}
	if code, _ := get(hs.URL + "/alloc?app=web-01&watch=1&epoch=1&timeout=banana"); code != http.StatusBadRequest {
		t.Fatalf("bad timeout: code=%d, want 400", code)
	}

	// A parked watcher is answered 204 the instant a drain starts — it
	// must not sit out its whole poll window and stall Shutdown.
	cur, _ := svc.Allocation("web-01")
	go func() {
		c, a := get(fmt.Sprintf("%s/alloc?app=web-01&watch=1&epoch=%d&timeout=30s", hs.URL, cur.Epoch))
		got <- res{c, a}
	}()
	time.Sleep(20 * time.Millisecond) // let the watcher park
	start := time.Now()
	svc.StartDraining()
	select {
	case r := <-got:
		if r.code != http.StatusNoContent {
			t.Fatalf("drained watch: code=%d, want 204", r.code)
		}
		if since := time.Since(start); since > 2*time.Second {
			t.Fatalf("drained watch took %v, want immediate", since)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("HTTP watcher never woke on drain")
	}
}

// TestHTTPServerOverSharded smokes the same handlers over the sharded
// backend — the HTTP layer is shard-blind by construction.
func TestHTTPServerOverSharded(t *testing.T) {
	sh := NewSharded(Options{}, 4, 2)
	srv, err := NewServer(sh)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	if code, reply := postIngest(t, hs.URL, mkBatch("web-01", 4, 16, 3, 7)); code != http.StatusOK || reply.Accepted != 3 {
		t.Fatalf("sharded ingest: code=%d reply=%+v", code, reply)
	}
	sh.Tick(0)
	resp, err := http.Get(hs.URL + "/alloc?app=web-01&watch=1&epoch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var alloc Allocation
	if err := json.NewDecoder(resp.Body).Decode(&alloc); err != nil {
		t.Fatal(err)
	}
	if alloc.App != "web-01" || alloc.Epoch < 2 {
		t.Fatalf("sharded watch alloc: %+v", alloc)
	}
	resp, err = http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 1 || st.Decisions != 1 {
		t.Fatalf("sharded stats over HTTP: %+v", st)
	}
}

func TestHTTPStatsEndpoint(t *testing.T) {
	_, svc, hs := newTestServer(t, Options{})
	postIngest(t, hs.URL, mkBatch("a", 2, 8, 2, 0))
	svc.Tick(0)
	resp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 1 || st.Decisions != 1 || st.SamplesAccepted != 2 {
		t.Fatalf("stats: %+v", st)
	}
}
