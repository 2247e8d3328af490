package service

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"intracache/internal/checkpoint"
	"intracache/internal/core"
)

// fill sets every exported field reachable from v to a non-zero value.
// Numbers come from *next, so no two fields are equal, and span several
// varint lengths and both signs; bools are true; slices and maps get
// two elements; pointers point at filled values. A kind it does not
// know fails the test: a new field of such a kind needs the filler and
// the codec extended together.
func fill(t *testing.T, v reflect.Value, next *int64) {
	t.Helper()
	*next++
	n := *next
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		x := n * 1_000_003
		if n%2 == 0 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Uint64:
		v.SetUint(uint64(n) * 0x9E3779B97F4A7C15)
	case reflect.Float64:
		v.SetFloat(float64(n) * math.Pi)
	case reflect.String:
		v.SetString(fmt.Sprintf("field-%d", n))
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fill(t, s.Index(i), next)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			e := reflect.New(v.Type().Elem()).Elem()
			fill(t, k, next)
			fill(t, e, next)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(t, p.Elem(), next)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), next)
			}
		}
	default:
		t.Fatalf("fill: %s has kind %s", v.Type(), v.Kind())
	}
}

func filledState(t *testing.T) State {
	var st State
	var next int64
	fill(t, reflect.ValueOf(&st).Elem(), &next)
	return st
}

func gobRoundTrip(t *testing.T, st State) State {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		t.Fatal(err)
	}
	var out State
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func binaryRoundTrip(t *testing.T, st State) State {
	t.Helper()
	out, err := decodeState(encodeState(nil, &st))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStateCodecMatchesGob holds the binary codec to gob on states
// whose every exported field is set, so a field the codec does not
// carry shows up as a difference: gob carries every field.
func TestStateCodecMatchesGob(t *testing.T) {
	filled := filledState(t)
	if got := binaryRoundTrip(t, filled); !reflect.DeepEqual(got, filled) {
		t.Fatalf("binary round trip changed a filled state:\n got %+v\nwant %+v", got, filled)
	}
	cases := []struct {
		name   string
		mutate func(st *State)
	}{
		{"filled", func(*State) {}},
		{"model engine only", func(st *State) { st.Sessions[0].Runtime.Engine.Resilient = nil }},
		{"resilient engine only", func(st *State) {
			st.Sessions[1].Runtime.Engine.Model = nil
			st.Sessions[1].Runtime.Engine.Stateless = false
		}},
		{"stateless engine", func(st *State) {
			st.Sessions[0].Runtime.Engine = core.EngineSnapshot{Stateless: true}
		}},
		{"empty non-nil slices and maps", func(st *State) {
			st.Order = []string{}
			ss := &st.Sessions[0]
			ss.Queue, ss.Current = []Sample{}, []int{}
			r := ss.Runtime.Engine.Resilient
			r.Ring, r.HaveGood = []bool{}, []bool{}
			r.Model.Models[0].Points, r.Model.Models[0].Stamps = map[int]float64{}, map[int]int{}
		}},
		{"zero", func(st *State) { *st = State{} }},
		{"zero sessions", func(st *State) { *st = State{Sessions: make([]SessionState, 3)} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := filledState(t)
			tc.mutate(&st)
			if got, want := binaryRoundTrip(t, st), gobRoundTrip(t, st); !reflect.DeepEqual(got, want) {
				t.Fatalf("binary round trip\n %+v\ngob round trip\n %+v", got, want)
			}
		})
	}
}

// TestStateCodecBitExactFloats checks that float64s come back with the
// same bits, NaN payloads and negative zero included.
func TestStateCodecBitExactFloats(t *testing.T) {
	bits := []uint64{
		0x7ff8000000000001, // quiet NaN with a payload
		0xfff0000000000001, // signalling NaN, sign set
		1 << 63,            // -0
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
		1, // smallest subnormal
		math.Float64bits(math.MaxFloat64),
		math.Float64bits(1.0 / 3),
	}
	points := map[int]float64{}
	for i, b := range bits {
		points[i-3] = math.Float64frombits(b)
	}
	st := State{Order: []string{"a"}, Sessions: []SessionState{{App: "a", Runtime: core.RuntimeSystemState{
		Engine: core.EngineSnapshot{Model: &core.ModelEngineState{Models: []core.CPIModelState{{Points: points}}}},
	}}}}
	got, err := decodeState(encodeState(nil, &st))
	if err != nil {
		t.Fatal(err)
	}
	rt := got.Sessions[0].Runtime
	for i, b := range bits {
		if g := math.Float64bits(rt.Engine.Model.Models[0].Points[i-3]); g != b {
			t.Errorf("point %d: bits %#x, want %#x", i-3, g, b)
		}
	}
}

// smallState is a real service's state: three sessions, one of them
// on a fallback rung, with samples still queued.
func smallState(t *testing.T) State {
	t.Helper()
	svc := New(Options{})
	legacyWarmup(t, svc)
	legacyStep(t, svc, 3)
	st, err := svc.State()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// v1Payload is a version 1 payload of one empty session, with draining
// as its Draining byte and one entry in the session's decision log.
func v1Payload(draining byte) []byte {
	v2 := encodeState(nil, &State{Order: []string{"a"}, Sessions: []SessionState{{App: "a"}}})
	head := len(stateMagic) + 1
	e := encoder{b: append([]byte(stateMagic), 1)}
	e.b = append(e.b, v2[head:head+2]...) // Tick and RR, one byte each
	e.b = append(e.b, draining)
	e.b = append(e.b, v2[head+2:len(v2)-1]...) // up to the engine flags
	e.uint(1)                                  // the log: one decision,
	e.int(7)                                   // its interval,
	e.uint(1)                                  // CPIs
	e.f64(1.5)
	e.ints([]int{3, 5}) // and targets
	e.int(0)            // InvalidAssignments
	return e.b
}

// TestDecodeStateRefuses feeds the decoder damaged payloads. Each must
// be refused with an error: the CRC envelope has already passed, so
// the decoder is the only guard.
func TestDecodeStateRefuses(t *testing.T) {
	st := smallState(t)
	good := encodeState(nil, &st)
	if _, err := decodeState(good); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(good); n++ {
		if _, err := decodeState(good[:n]); err == nil {
			t.Fatalf("accepted the payload cut to %d of %d bytes", n, len(good))
		}
	}
	v1 := v1Payload(1)
	if _, err := decodeState(v1); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(v1); n++ {
		if _, err := decodeState(v1[:n]); err == nil {
			t.Fatalf("accepted the version 1 payload cut to %d of %d bytes", n, len(v1))
		}
	}
	header := func(rest ...byte) []byte { return append(append([]byte(stateMagic), stateVersion), rest...) }
	engineFlags := func(flags byte) []byte {
		p := encodeState(nil, &State{Sessions: []SessionState{{}}})
		p[len(p)-2] = flags // then InvalidAssignments
		return p
	}
	cases := []struct {
		name, want string
		payload    []byte
	}{
		{"trailing byte", "trailing", append(append([]byte(nil), good...), 0)},
		{"unknown version", "version 3", append([]byte(stateMagic+"\x03"), good[len(stateMagic)+1:]...)},
		{"version 0", "version 0", append([]byte(stateMagic+"\x00"), good[len(stateMagic)+1:]...)},
		{"no version", "version -1", []byte(stateMagic)},
		{"bool byte 2", "bool byte 2", v1Payload(2)},
		{"count past the end", "exceeds", header(0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f)},
		{"string past the end", "exceeds", header(0, 0, 1, 9, 'a')},
		{"varint overflow", "varint", header(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)},
		{"unknown engine flag", "engine flags", engineFlags(8)},
		{"version 1 cut inside a log entry", "exceeds", v1[:len(v1)-6]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeState(tc.payload)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one mentioning %q", err, tc.want)
			}
			// A payload with the magic is never handed to gob.
			if _, cerr := decodeCheckpoint(tc.payload); cerr == nil || cerr.Error() != err.Error() {
				t.Fatalf("decodeCheckpoint error %v, want %v", cerr, err)
			}
		})
	}

	t.Run("unsorted model points", func(t *testing.T) {
		var e encoder
		e.uint(1)          // one model
		e.mapLen(false, 2) // two points, keys 2 then 1
		e.int(2)
		e.f64(1)
		e.int(1)
		e.f64(1)
		e.mapLen(true, 0) // no stamps
		e.int(0)          // interval
		d := decoder{b: e.b}
		var m core.ModelEngineState
		d.modelEngine(&m)
		if d.err == nil || !strings.Contains(d.err.Error(), "not increasing") {
			t.Fatalf("error %v, want a key-order refusal", d.err)
		}
	})
}

// Binary checkpoints written by the two versions of the encoding.
var (
	binaryFixtureV1 = filepath.Join("testdata", "state-v1.ckpt")
	binaryFixtureV2 = filepath.Join("testdata", "state-v2.ckpt")
)

// TestLoadCheckpointBinaryFixture pins both versions of the binary
// encoding: a file each wrote still loads and decides as it did when it
// was written.
//
// testdata/state-vN.ckpt was generated, by the version N encoder, by
// calling from a test in this package
//
//	svc := New(Options{})
//	legacyWarmup(t, svc)
//	legacyStep(t, svc, 3)
//	svc.SaveCheckpoint("testdata/state-vN.ckpt")
//
// so it holds the legacy fixture's sessions with step 3's samples still
// queued. A tick and then steps 4 and 5 make the decisions of
// legacyNextTicks, which the straight-through run in
// TestLoadCheckpointLegacyPhaseDetectorFields makes too.
func TestLoadCheckpointBinaryFixture(t *testing.T) {
	var states []State
	var payload []byte
	for _, path := range []string{binaryFixtureV1, binaryFixtureV2} {
		var err error
		if payload, err = checkpoint.LoadSealed(path); err != nil {
			t.Fatal(err)
		}
		if !isBinaryState(payload) {
			t.Fatalf("%s is not in the binary encoding", path)
		}
		st, err := decodeState(payload)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		states = append(states, st)
		restored := New(Options{})
		if err := restored.LoadCheckpoint(path); err != nil {
			t.Fatal(err)
		}
		var got []legacyDecision
		for step := 3; step < 6; step++ {
			if step > 3 {
				legacyStep(t, restored, step)
			}
			for _, d := range restored.Tick(0) {
				got = append(got, legacyDecision{d.App, d.Rung, d.Alloc})
			}
		}
		if !reflect.DeepEqual(got, legacyNextTicks) {
			t.Errorf("restored %s decided\n%+v\nwant\n%+v", path, got, legacyNextTicks)
		}
	}
	// payload is the version 2 fixture's, the last one read.
	v1, v2 := states[0], states[1]
	if again := encodeState(nil, &v2); !bytes.Equal(again, payload) {
		t.Error("re-encoding the decoded version 2 fixture changed its bytes")
	}
	if got := binaryRoundTrip(t, v1); !reflect.DeepEqual(got, v1) {
		t.Errorf("re-encoded version 1 fixture decodes to\n %+v\nwant\n %+v", got, v1)
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Errorf("the two fixtures of one recipe decode to\n %+v\nand\n %+v", v1, v2)
	}
}

// TestSaveCheckpointWritesBinary checks that a save writes the binary
// encoding and that a gob checkpoint of the same state restores to the
// same service, at one shard; more shards refuse either file.
func TestSaveCheckpointWritesBinary(t *testing.T) {
	dir := t.TempDir()
	svc := New(Options{})
	legacyWarmup(t, svc)
	legacyStep(t, svc, 3)
	bin := filepath.Join(dir, "bin.ckpt")
	if err := svc.SaveCheckpoint(bin); err != nil {
		t.Fatal(err)
	}
	if payload, err := checkpoint.LoadSealed(bin); err != nil || !isBinaryState(payload) {
		t.Fatalf("SaveCheckpoint did not write the binary encoding (err %v)", err)
	}
	st, err := svc.State()
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "gob.ckpt")
	if err := checkpoint.SaveGob(old, &st); err != nil {
		t.Fatal(err)
	}
	var restored []State
	for _, path := range []string{bin, old} {
		one := NewSharded(Options{}, 1, 1)
		if err := one.LoadCheckpoint(path); err != nil {
			t.Fatalf("%s at one shard: %v", filepath.Base(path), err)
		}
		got, err := one.shards[0].State()
		if err != nil {
			t.Fatal(err)
		}
		restored = append(restored, got)
		err = NewSharded(Options{}, 4, 2).LoadCheckpoint(path)
		if err == nil || !strings.Contains(err.Error(), "unsharded checkpoint (3 sessions)") || !strings.Contains(err.Error(), "-shards 1") {
			t.Errorf("%s at four shards: %v", filepath.Base(path), err)
		}
	}
	if !reflect.DeepEqual(restored[0], restored[1]) {
		t.Errorf("binary checkpoint restored\n %+v\ngob checkpoint restored\n %+v", restored[0], restored[1])
	}
}
