package checkpoint

import (
	"bytes"
	"path/filepath"
	"testing"
)

func testSnapshot() *Snapshot {
	return &Snapshot{
		Meta: Meta{
			Benchmark:   "cg",
			Policy:      "model-based",
			Fingerprint: "cfg1{test}",
			Mode:        "intervals",
			Total:       50,
			CreatedUnix: 12345,
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	data, err := Encode(testSnapshot())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	snap, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if snap.Meta != testSnapshot().Meta {
		t.Fatalf("meta round trip: got %+v", snap.Meta)
	}
}

func TestEncodeNil(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Fatal("Encode(nil) succeeded")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	data, err := Encode(testSnapshot())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for n := 0; n < len(data); n += 7 {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("Decode accepted %d of %d bytes", n, len(data))
		}
	}
}

func TestDecodeRejectsBitFlips(t *testing.T) {
	data, err := Encode(testSnapshot())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for i := 0; i < len(data); i += 5 {
		flipped := bytes.Clone(data)
		flipped[i] ^= 0x10
		if _, err := Decode(flipped); err == nil {
			t.Fatalf("Decode accepted a bit flip at offset %d", i)
		}
	}
}

func TestDecodeRejectsWrongVersion(t *testing.T) {
	data, err := Encode(testSnapshot())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	data[4] = version + 1
	if _, err := Decode(data); err == nil {
		t.Fatal("Decode accepted a wrong version")
	}
}

func TestDecodeRejectsAbsurdLength(t *testing.T) {
	data, err := Encode(testSnapshot())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Claim a payload far beyond the limit without supplying it: must be
	// rejected on the length field, not by attempting the allocation.
	data[5], data[6], data[7], data[8] = 0xff, 0xff, 0xff, 0xff
	data[9], data[10], data[11], data[12] = 0xff, 0x00, 0x00, 0x00
	if _, err := Decode(data); err == nil {
		t.Fatal("Decode accepted an absurd length claim")
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.ickp")
	want := testSnapshot()
	if err := Save(path, want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Meta != want.Meta {
		t.Fatalf("Load meta: got %+v want %+v", got.Meta, want.Meta)
	}
}

func TestSaveStampsCreated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.ickp")
	snap := testSnapshot()
	snap.Meta.CreatedUnix = 0
	if err := Save(path, snap); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Meta.CreatedUnix == 0 {
		t.Fatal("Save did not stamp CreatedUnix")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.ickp")); err == nil {
		t.Fatal("Load of a missing file succeeded")
	}
}

// FuzzLoadCheckpoint pins the promise that no input — truncated,
// bit-flipped, wrong version, or arbitrary garbage — makes checkpoint
// loading panic: it either decodes or returns an error.
func FuzzLoadCheckpoint(f *testing.F) {
	valid, err := Encode(testSnapshot())
	if err != nil {
		f.Fatalf("Encode: %v", err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(valid[:len(valid)/2])
	truncHeader := bytes.Clone(valid[:headerLen])
	f.Add(truncHeader)
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-1] ^= 0xff
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err == nil && snap == nil {
			t.Fatal("Decode returned neither a snapshot nor an error")
		}
	})
}

func TestSealUnsealRoundTripAndCorruption(t *testing.T) {
	payload := []byte(`{"Key":"cell/3","ImprovementPct":12.5}`)
	sealed := Seal(payload)
	got, err := Unseal(sealed)
	if err != nil {
		t.Fatalf("Unseal: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("Unseal = %q, want %q", got, payload)
	}
	// A flipped payload bit must be caught by the CRC.
	flipped := append([]byte(nil), sealed...)
	flipped[len(flipped)-1] ^= 0x40
	if _, err := Unseal(flipped); err == nil {
		t.Fatal("Unseal accepted a corrupted payload")
	}
	// Truncation must be caught by the length field.
	if _, err := Unseal(sealed[:len(sealed)-3]); err == nil {
		t.Fatal("Unseal accepted a truncated payload")
	}
	if _, err := Unseal(sealed[:5]); err == nil {
		t.Fatal("Unseal accepted a sub-header payload")
	}
}
