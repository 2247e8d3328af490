package dsweep

import (
	"bufio"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"intracache/internal/checkpoint"
	"intracache/internal/experiment"
)

// The wire protocol is deliberately tiny: newline-delimited frames of
// "KIND base64(payload)\n" flowing over a byte stream (a subprocess's
// stdin/stdout, or a streamed HTTP response body). Payloads travel
// inside the checkpoint CRC64 envelope, which is what makes the chaos
// harness honest: a corrupted or truncated result fails Unseal on the
// coordinator and is handled as a cell failure — it is never merged.

const (
	frameTask   = "TASK" // coordinator -> worker: one sealed Task
	frameResult = "RES"  // worker -> coordinator: one sealed Result
	frameBeat   = "HB"   // worker -> coordinator: progress heartbeat
	framePing   = "PING" // coordinator -> worker: liveness probe
	framePong   = "PONG" // worker -> coordinator: probe reply
)

// Task is one cell dispatch: everything a worker needs to compute the
// cell from scratch, so workers are stateless between tasks.
type Task struct {
	Key       string
	Index     int
	Label     string
	Benchmark string
	Baseline  string
	Candidate string
	// Fingerprint is the sweep fingerprint; the worker echoes it in the
	// Result and stamps its local journal with it, so state from a
	// different sweep can never be mixed in.
	Fingerprint string
	// Attempt is the coordinator's global 1-based dispatch count for
	// this cell. Chaos injection keys off (cell, attempt), which is how
	// a chaos run stays reproducible across re-dispatches.
	Attempt int
	Cfg     experiment.Config
	// Per-attempt bounds, enforced worker-side by the same runCell
	// machinery the in-process sweep uses.
	Timeout      time.Duration
	StallTimeout time.Duration
}

// Result is a worker's reply to one Task.
type Result struct {
	Key         string
	Attempt     int
	Fingerprint string
	Record      experiment.CellRecord
	// ErrKind and Err carry a failed cell's taxonomy across the process
	// boundary as strings; the coordinator rebuilds a matchable error
	// with experiment.KindError. Both empty on success.
	ErrKind string
	Err     string
}

func (r Result) failed() bool { return r.ErrKind != "" || r.Err != "" }

// sealJSON wraps a JSON-encoded value in the checkpoint envelope.
func sealJSON(v interface{}) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return checkpoint.Seal(raw), nil
}

// unsealJSON verifies the envelope and decodes the payload. Callers
// decide what an integrity failure means (for a Result it is
// experiment.ErrResultCorrupt).
func unsealJSON(data []byte, v interface{}) error {
	raw, err := checkpoint.Unseal(data)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// writeFrame emits one frame as a single line. An empty payload frame
// is just the kind, so probes and heartbeats stay one-word lines.
func writeFrame(w io.Writer, kind string, payload []byte) error {
	if len(payload) == 0 {
		_, err := fmt.Fprintf(w, "%s\n", kind)
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", kind, base64.StdEncoding.EncodeToString(payload))
	return err
}

// newFrameScanner builds a line scanner sized for sealed task payloads
// (a Config is small, but base64 plus headroom wants more than the
// bufio default).
func newFrameScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	return sc
}

// readFrame reads the next frame; io.EOF means the stream ended
// cleanly between frames.
func readFrame(sc *bufio.Scanner) (kind string, payload []byte, err error) {
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return "", nil, err
		}
		return "", nil, io.EOF
	}
	kind, b64, _ := strings.Cut(sc.Text(), " ")
	if kind == "" {
		return "", nil, fmt.Errorf("dsweep: empty frame")
	}
	if b64 == "" {
		return kind, nil, nil
	}
	payload, err = base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return "", nil, fmt.Errorf("dsweep: undecodable %s frame: %w", kind, err)
	}
	return kind, payload, nil
}
