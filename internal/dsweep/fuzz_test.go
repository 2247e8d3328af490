package dsweep

import (
	"bytes"
	"io"
	"testing"

	"intracache/internal/checkpoint"
	"intracache/internal/experiment"
)

// FuzzReadFrame feeds arbitrary bytes to the frame reader the way a
// coordinator or worker meets a hostile or corrupted stream: every
// frame readFrame accepts is decoded with unsealJSON into both a Task
// and a Result, which must fail cleanly or succeed, never panic. The
// payload is also sealed as-is so the JSON decoding behind the CRC
// check sees arbitrary input too. Independently, writeFrame followed by
// readFrame must round-trip any payload under every frame kind.
func FuzzReadFrame(f *testing.F) {
	task, err := sealJSON(Task{Key: "k", Index: 1, Label: "l2-256", Benchmark: "cg",
		Baseline: "shared", Candidate: "model-based", Attempt: 1, Cfg: experiment.QuickConfig()})
	if err != nil {
		f.Fatal(err)
	}
	res, err := sealJSON(Result{Key: "k", Attempt: 1, ErrKind: "failed", Err: "boom"})
	if err != nil {
		f.Fatal(err)
	}
	var stream bytes.Buffer
	for _, fr := range []struct {
		kind    string
		payload []byte
	}{{framePing, nil}, {frameTask, task}, {frameBeat, nil}, {frameResult, res}} {
		if err := writeFrame(&stream, fr.kind, fr.payload); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(stream.Bytes(), task)
	f.Add([]byte("RES !!!not-base64\n"), res)
	f.Add([]byte("\nPONG\n"), []byte(nil))
	f.Add([]byte("TASK e30=\n"), []byte("{}"))
	f.Add([]byte(nil), []byte(`{"Cfg":{"Fault":{},"Mechanism":"bogus"}}`))

	f.Fuzz(func(t *testing.T, data, payload []byte) {
		sc := newFrameScanner(bytes.NewReader(data))
		for {
			kind, p, err := readFrame(sc)
			if err != nil {
				break
			}
			if kind == "" {
				t.Fatal("readFrame accepted a frame with an empty kind")
			}
			var tk Task
			_ = unsealJSON(p, &tk)
			var r Result
			_ = unsealJSON(p, &r)
		}
		var tk Task
		_ = unsealJSON(checkpoint.Seal(payload), &tk)
		var r Result
		_ = unsealJSON(checkpoint.Seal(payload), &r)

		kinds := []string{frameTask, frameResult, frameBeat, framePing, framePong}
		kind := kinds[len(data)%len(kinds)]
		var buf bytes.Buffer
		if err := writeFrame(&buf, kind, payload); err != nil {
			t.Fatal(err)
		}
		sc = newFrameScanner(&buf)
		gotKind, got, err := readFrame(sc)
		if err != nil {
			t.Fatalf("round trip of a %d-byte %s frame: %v", len(payload), kind, err)
		}
		if gotKind != kind || !bytes.Equal(got, payload) {
			t.Fatalf("round trip: got %s %q, want %s %q", gotKind, got, kind, payload)
		}
		if _, _, err := readFrame(sc); err != io.EOF {
			t.Fatalf("round trip left trailing input: %v", err)
		}
	})
}
