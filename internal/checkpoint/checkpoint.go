// Package checkpoint makes long simulations restartable. It serializes
// a run's full mutable state — simulator (caches, monitors, DRAM,
// per-thread cursors and RNG streams, interval history), runtime-system
// and engine state (including the ResilientEngine's health rung and
// hysteresis window), and fault-injector state — into a versioned,
// checksummed envelope written atomically, and it keeps an append-only
// journal of completed sweep cells so an interrupted sweep resumes
// where it stopped instead of from zero.
//
// The binding invariant, pinned by tests in internal/experiment: a run
// checkpointed at any execution-interval boundary and resumed from that
// file produces a bit-identical sim.Result to the same run executed
// straight through.
//
// Simulator snapshots are gob payloads: a resume reads one once, at
// the start of a run that then simulates for seconds to hours, and gob
// needs no code per field. The envelope itself is codec-agnostic
// (SaveSealed, LoadSealed). The partitiond service seals its own
// binary encoding of its session table instead of gob, because its
// restore is the daemon's downtime: no application gets a decision
// until it finishes (internal/service, codec.go).
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc64"
	"os"
	"time"

	"intracache/internal/atomicfile"
	"intracache/internal/core"
	"intracache/internal/fault"
	"intracache/internal/sim"
)

// Envelope layout (version 1):
//
//	offset 0  magic "ICKP"
//	offset 4  version byte
//	offset 5  payload length, 8 bytes little-endian
//	offset 13 CRC64-ECMA of the payload, 8 bytes little-endian
//	offset 21 payload: gob-encoded Snapshot, or the owner's own payload
//
// The checksum covers only the payload; the header fields are validated
// structurally. Gob is used for the Snapshot payload because restore
// needs exact value round-trips (float64s bit-for-bit), not a stable
// wire format: a checkpoint is only ever read back by the same binary
// family that wrote it.
const (
	magic     = "ICKP"
	version   = 1
	headerLen = 4 + 1 + 8 + 8

	// maxPayload rejects absurd length fields before allocating: no
	// simulator state in this repository comes near 1 GiB.
	maxPayload = 1 << 30
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Meta identifies what a snapshot belongs to, so a resume can refuse a
// checkpoint taken under a different experiment setup. Fingerprint is
// an opaque string the owner derives from its full configuration.
type Meta struct {
	Benchmark   string
	Policy      string
	Fingerprint string
	Mode        string // "intervals" or "sections"
	Total       int    // requested run length in Mode units
	CreatedUnix int64  // capture wall time; informational only
}

// Snapshot is everything needed to resume a run at an interval
// boundary. Runtime and Fault are nil for policies without a runtime
// system / runs without fault injection.
type Snapshot struct {
	Meta    Meta
	Sim     sim.State
	Runtime *core.RuntimeSystemState
	Fault   *fault.State
}

// Seal wraps an arbitrary payload in the envelope: magic, version,
// length, CRC64-ECMA, payload. The same framing protects checkpoint
// snapshots on disk and partitiond ingest batches on the wire — any
// truncation or bit flip is caught by Unseal before the payload is
// interpreted.
func Seal(payload []byte) []byte {
	out := make([]byte, headerLen+len(payload))
	copy(out, magic)
	out[4] = version
	binary.LittleEndian.PutUint64(out[5:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(out[13:], crc64.Checksum(payload, crcTable))
	copy(out[headerLen:], payload)
	return out
}

// Unseal validates an envelope and returns its payload. Truncated,
// bit-flipped, or wrong-version inputs return errors; no input panics.
func Unseal(data []byte) ([]byte, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("checkpoint: %d bytes is shorter than the %d-byte header", len(data), headerLen)
	}
	if string(data[:4]) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", data[:4])
	}
	if data[4] != version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (want %d)", data[4], version)
	}
	plen := binary.LittleEndian.Uint64(data[5:])
	if plen > maxPayload {
		return nil, fmt.Errorf("checkpoint: payload length %d exceeds limit", plen)
	}
	if uint64(len(data)-headerLen) != plen {
		return nil, fmt.Errorf("checkpoint: payload is %d bytes, header claims %d", len(data)-headerLen, plen)
	}
	want := binary.LittleEndian.Uint64(data[13:])
	payload := data[headerLen:]
	if got := crc64.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("checkpoint: checksum mismatch (file %016x, computed %016x)", want, got)
	}
	return payload, nil
}

// Encode serializes a snapshot into the enveloped binary form.
func Encode(snap *Snapshot) ([]byte, error) {
	if snap == nil {
		return nil, fmt.Errorf("checkpoint: nil snapshot")
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snap); err != nil {
		return nil, fmt.Errorf("checkpoint: encoding: %w", err)
	}
	return Seal(payload.Bytes()), nil
}

// Decode parses and validates an enveloped snapshot.
func Decode(data []byte) (*Snapshot, error) {
	payload, err := Unseal(data)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("checkpoint: decoding payload: %w", err)
	}
	return &snap, nil
}

// Save writes a snapshot to path atomically (temp file + rename), so a
// crash mid-write leaves the previous checkpoint intact.
func Save(path string, snap *Snapshot) error {
	if snap.Meta.CreatedUnix == 0 {
		snap.Meta.CreatedUnix = time.Now().Unix()
	}
	data, err := Encode(snap)
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(path, data, 0o644)
}

// Load reads and validates a snapshot from path.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return Decode(data)
}

// SaveSealed seals payload in the CRC64 envelope and writes it
// atomically. It is the generic sibling of Save for owners whose state
// is not a simulator Snapshot and that bring their own payload codec —
// the partitiond service checkpoints its session table through it.
func SaveSealed(path string, payload []byte) error {
	return atomicfile.WriteFile(path, Seal(payload), 0o644)
}

// LoadSealed reads a SaveSealed file and returns its payload once the
// envelope has been validated.
func LoadSealed(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return Unseal(data)
}

// SaveGob gob-encodes an arbitrary value and writes it with SaveSealed.
func SaveGob(path string, v interface{}) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return fmt.Errorf("checkpoint: encoding: %w", err)
	}
	return SaveSealed(path, payload.Bytes())
}

// LoadGob reads a SaveGob file, validates the envelope, and decodes
// the payload into v (which must be a pointer).
func LoadGob(path string, v interface{}) error {
	payload, err := LoadSealed(path)
	if err != nil {
		return err
	}
	return DecodeGob(payload, v)
}

// DecodeGob decodes an unsealed SaveGob payload into v (which must be
// a pointer).
func DecodeGob(payload []byte, v interface{}) error {
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("checkpoint: decoding payload: %w", err)
	}
	return nil
}
