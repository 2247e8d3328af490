package service

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"intracache/internal/checkpoint"
	"intracache/internal/core"
	"intracache/internal/sim"
)

// The service checkpoint payload (inside the checkpoint package's CRC64
// envelope) is a hand-written binary encoding of State. Restore time is
// the daemon's downtime, and reflective gob decoding was three quarters
// of it, so the session table gets a codec that decodes in one pass
// without reflection.
//
// Layout, version 2: the magic "PDST", a version byte, then State's
// fields in declaration order, recursively, with
//
//	uint64, uint    unsigned varint
//	int             zigzag varint
//	float64         8 bytes little-endian, IEEE 754 bits (bit-exact)
//	bool            one byte, 0 or 1
//	string          unsigned varint length, bytes
//	slice           unsigned varint count, elements; a count of 0
//	                decodes as nil, as gob does
//	map[int]T       0 for nil, else 1 + count, then (key, value) pairs
//	                in strictly increasing key order; gob too keeps an
//	                empty map apart from nil
//	EngineSnapshot  one flags byte (1 Stateless, 2 Model, 4 Resilient),
//	                then the ModelEngineState and the
//	                ResilientEngineState that are present
//
// The decoder checks every count against the bytes left before it
// allocates, and refuses unknown versions, unknown flag bits, bools
// other than 0 and 1, unsorted map keys and trailing bytes.
//
// Version 1 had two more fields, neither of which steers a decision: a
// Draining bool after RR, and each session's runtime decision log
// between its engine state and InvalidAssignments (a count, then per
// entry an int interval, a []float64 of CPIs and an []int of targets).
// The decoder still reads version 1 and skips both, with the checks it
// makes on every other field.
//
// Payloads without the magic are the gob encoding every checkpoint had
// before this one; decodeCheckpoint still reads them. A gob stream
// cannot start with the magic: its first message defines a type, so
// its second byte starts a negative type id, which gob writes as an
// odd byte or a 0xF8–0xFF length prefix, never "D".
const (
	stateMagic   = "PDST"
	stateVersion = 2
)

// EngineSnapshot flag bits.
const (
	engineStateless = 1 << iota
	engineModel
	engineResilient
)

// Shortest encodings, which bound how many elements the bytes left can
// hold: a sim.ThreadIntervalStats is eight varints, a SessionState
// fourteen one-byte fields (its engine flags included; a version 1
// session has one more, its log count).
const (
	threadStatsMinLen = 8
	sessionMinLen     = 14
)

// encodeState appends the binary encoding of st to b.
func encodeState(b []byte, st *State) []byte {
	e := encoder{b: b}
	e.b = append(e.b, stateMagic...)
	e.b = append(e.b, stateVersion)
	e.uint(st.Tick)
	e.int(st.RR)
	e.uint(uint64(len(st.Order)))
	for _, app := range st.Order {
		e.str(app)
	}
	e.stats(&st.Stats)
	e.uint(uint64(len(st.Sessions)))
	for i := range st.Sessions {
		e.session(&st.Sessions[i])
	}
	return e.b
}

// isBinaryState reports whether an unsealed checkpoint payload is in
// the binary encoding rather than gob.
func isBinaryState(p []byte) bool { return bytes.HasPrefix(p, []byte(stateMagic)) }

// decodeState decodes an encodeState payload.
func decodeState(p []byte) (State, error) {
	if !isBinaryState(p) {
		return State{}, fmt.Errorf("service: checkpoint payload does not start with %q", stateMagic)
	}
	p = p[len(stateMagic):]
	if len(p) == 0 || p[0] < 1 || p[0] > stateVersion {
		v := -1
		if len(p) > 0 {
			v = int(p[0])
		}
		return State{}, fmt.Errorf("service: checkpoint encoding version %d, this binary reads 1 to %d", v, stateVersion)
	}
	d := decoder{b: p[1:], version: p[0]}
	var st State
	st.Tick = d.uint()
	st.RR = d.int()
	if d.version == 1 {
		d.bool() // Draining
	}
	if n := d.count(1); n > 0 {
		st.Order = make([]string, n)
		for i := range st.Order {
			st.Order[i] = d.str()
		}
	}
	d.stats(&st.Stats)
	if n := d.count(sessionMinLen); n > 0 {
		st.Sessions = make([]SessionState, n)
		for i := range st.Sessions {
			var app string
			if i < len(st.Order) {
				app = st.Order[i]
			}
			d.session(&st.Sessions[i], app)
		}
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return State{}, d.err
	}
	return st, nil
}

// decodeCheckpoint decodes an unsealed SaveCheckpoint payload in
// either format: the binary encoding, or gob for files written before
// it.
func decodeCheckpoint(payload []byte) (State, error) {
	if isBinaryState(payload) {
		return decodeState(payload)
	}
	var st State
	if err := checkpoint.DecodeGob(payload, &st); err != nil {
		return State{}, err
	}
	return st, nil
}

type encoder struct {
	b    []byte
	keys []int // scratch for sorting map keys
}

func (e *encoder) uint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) int(v int)     { e.b = binary.AppendVarint(e.b, int64(v)) }

func (e *encoder) f64(v float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

func (e *encoder) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *encoder) str(s string) {
	e.uint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) ints(v []int) {
	e.uint(uint64(len(v)))
	for _, x := range v {
		e.int(x)
	}
}

func (e *encoder) bools(v []bool) {
	e.uint(uint64(len(v)))
	for _, x := range v {
		e.bool(x)
	}
}

func (e *encoder) threadStats(v []sim.ThreadIntervalStats) {
	e.uint(uint64(len(v)))
	for i := range v {
		t := &v[i]
		e.uint(t.Instructions)
		e.uint(t.ActiveCycles)
		e.uint(t.StallCycles)
		e.uint(t.L1Misses)
		e.uint(t.L2Accesses)
		e.uint(t.L2Hits)
		e.uint(t.L2Misses)
		e.int(t.WaysAssigned)
	}
}

func (e *encoder) stats(s *Stats) {
	e.int(s.Sessions)
	e.int(s.PeakSessions)
	e.uint(s.Ticks)
	e.uint(s.BatchesAccepted)
	e.uint(s.BatchesRejected)
	e.uint(s.RejectedDraining)
	e.uint(s.RejectedSessionLimit)
	e.uint(s.RejectedMalformed)
	e.uint(s.RejectedMismatch)
	e.uint(s.SamplesAccepted)
	e.uint(s.DroppedOldest)
	e.uint(s.DroppedPressure)
	e.uint(s.Decisions)
	e.uint(s.RungModel)
	e.uint(s.RungProportional)
	e.uint(s.RungStatic)
	e.uint(s.LastGoodDeadline)
	e.uint(s.LastGoodPressure)
	e.int(s.EngineDemotions)
	e.int(s.EnginePromotions)
	e.uint(s.EngineRejectedSamples)
	e.int(s.InvalidAssignments)
	e.int(int(s.LatencyP50))
	e.int(int(s.LatencyP99))
	e.int(s.LatencySamples)
}

func (e *encoder) session(ss *SessionState) {
	e.str(ss.App)
	e.int(ss.Threads)
	e.int(ss.Ways)
	e.uint(uint64(len(ss.Queue)))
	for i := range ss.Queue {
		e.int(ss.Queue[i].Interval)
		e.threadStats(ss.Queue[i].Threads)
	}
	e.ints(ss.Current)
	e.int(ss.Interval)
	e.str(ss.LastRung)
	e.uint(ss.LastTick)
	e.uint(ss.Epoch)
	e.uint(ss.DroppedOldest)
	e.uint(ss.DroppedPressure)
	e.uint(ss.Mismatches)
	e.runtime(&ss.Runtime)
}

func (e *encoder) runtime(r *core.RuntimeSystemState) {
	var flags byte
	if r.Engine.Stateless {
		flags |= engineStateless
	}
	if r.Engine.Model != nil {
		flags |= engineModel
	}
	if r.Engine.Resilient != nil {
		flags |= engineResilient
	}
	e.b = append(e.b, flags)
	if r.Engine.Model != nil {
		e.modelEngine(r.Engine.Model)
	}
	if r.Engine.Resilient != nil {
		e.resilient(r.Engine.Resilient)
	}
	e.int(r.InvalidAssignments)
}

func (e *encoder) modelEngine(m *core.ModelEngineState) {
	e.uint(uint64(len(m.Models)))
	for i := range m.Models {
		ms := &m.Models[i]
		e.mapLen(ms.Points == nil, len(ms.Points))
		e.keys = sortedKeys(e.keys, ms.Points)
		for _, k := range e.keys {
			e.int(k)
			e.f64(ms.Points[k])
		}
		e.mapLen(ms.Stamps == nil, len(ms.Stamps))
		e.keys = sortedKeys(e.keys, ms.Stamps)
		for _, k := range e.keys {
			e.int(k)
			e.int(ms.Stamps[k])
		}
	}
	e.int(m.Interval)
}

func (e *encoder) mapLen(isNil bool, n int) {
	if isNil {
		e.uint(0)
	} else {
		e.uint(1 + uint64(n))
	}
}

// sortedKeys returns m's keys in increasing order, in keys' storage.
func sortedKeys[V any](keys []int, m map[int]V) []int {
	keys = keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func (e *encoder) resilient(r *core.ResilientEngineState) {
	e.modelEngine(&r.Model)
	e.int(int(r.Health))
	e.bools(r.Ring)
	e.int(r.Pos)
	e.int(r.Filled)
	e.int(r.SinceChange)
	e.threadStats(r.LastReported)
	e.bool(r.HaveReported)
	e.threadStats(r.LastGood)
	e.bools(r.HaveGood)
	e.bool(r.ResetSplit)
	e.int(r.Demotions)
	e.int(r.Promotions)
	e.uint(r.Rejected)
}

// decoder reads an encodeState payload. The first error sticks: every
// later read returns a zero value and every count 0, so decoding runs
// to the end without allocating and decodeState reports that error.
//
// Decoded slices are carved from shared chunks, one per element type,
// so a session costs a few allocations rather than one per slice.
type decoder struct {
	b       []byte
	err     error
	version byte

	ints    []int
	bools   []bool
	threads []sim.ThreadIntervalStats
	models  []core.CPIModelState
}

// chunkLen is the element count of one carve chunk.
const chunkLen = 1024

// carve returns n zeroed elements cut from *chunk, which it refills
// when too short. The result is capped at n, so appending to it copies
// instead of writing into the next caller's elements.
func carve[T any](chunk *[]T, n int) []T {
	if n > len(*chunk) {
		*chunk = make([]T, max(n, chunkLen))
	}
	s := (*chunk)[:n:n]
	*chunk = (*chunk)[n:]
	return s
}

func (d *decoder) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("service: decoding checkpoint: "+format, args...)
	}
	d.b = nil
}

func (d *decoder) uint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad unsigned varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int {
	v, n := binary.Varint(d.b)
	if n <= 0 || int64(int(v)) != v {
		d.fail("bad signed varint")
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *decoder) f64() float64 {
	if len(d.b) < 8 {
		d.fail("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *decoder) bool() bool {
	if len(d.b) == 0 {
		d.fail("truncated bool")
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	if v > 1 {
		d.fail("bool byte %d", v)
	}
	return v == 1
}

// count reads a slice length and checks it against the bytes left,
// given that one element encodes in at least minLen bytes, so the
// caller can allocate it without trusting the input.
func (d *decoder) count(minLen int) int { return d.checkCount(d.uint(), minLen) }

// mapLen reads a map's length, checked as count checks it; ok is false
// for a nil map.
func (d *decoder) mapLen(minLen int) (n int, ok bool) {
	v := d.uint()
	if v == 0 {
		return 0, false
	}
	return d.checkCount(v-1, minLen), d.err == nil
}

func (d *decoder) checkCount(n uint64, minLen int) int {
	if n > uint64(len(d.b)/minLen) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

// strBytes reads a string's bytes without copying them.
func (d *decoder) strBytes() []byte {
	n := d.uint()
	if n > uint64(len(d.b)) {
		d.fail("string length %d exceeds the %d bytes left", n, len(d.b))
		return nil
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}

func (d *decoder) str() string { return string(d.strBytes()) }

func (d *decoder) intSlice() []int {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	v := carve(&d.ints, n)
	for i := range v {
		v[i] = d.int()
	}
	return v
}

func (d *decoder) boolSlice() []bool {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	v := carve(&d.bools, n)
	for i := range v {
		v[i] = d.bool()
	}
	return v
}

func (d *decoder) threadStats() []sim.ThreadIntervalStats {
	n := d.count(threadStatsMinLen)
	if n == 0 {
		return nil
	}
	v := carve(&d.threads, n)
	for i := range v {
		t := &v[i]
		t.Instructions = d.uint()
		t.ActiveCycles = d.uint()
		t.StallCycles = d.uint()
		t.L1Misses = d.uint()
		t.L2Accesses = d.uint()
		t.L2Hits = d.uint()
		t.L2Misses = d.uint()
		t.WaysAssigned = d.int()
	}
	return v
}

func (d *decoder) stats(s *Stats) {
	s.Sessions = d.int()
	s.PeakSessions = d.int()
	s.Ticks = d.uint()
	s.BatchesAccepted = d.uint()
	s.BatchesRejected = d.uint()
	s.RejectedDraining = d.uint()
	s.RejectedSessionLimit = d.uint()
	s.RejectedMalformed = d.uint()
	s.RejectedMismatch = d.uint()
	s.SamplesAccepted = d.uint()
	s.DroppedOldest = d.uint()
	s.DroppedPressure = d.uint()
	s.Decisions = d.uint()
	s.RungModel = d.uint()
	s.RungProportional = d.uint()
	s.RungStatic = d.uint()
	s.LastGoodDeadline = d.uint()
	s.LastGoodPressure = d.uint()
	s.EngineDemotions = d.int()
	s.EnginePromotions = d.int()
	s.EngineRejectedSamples = d.uint()
	s.InvalidAssignments = d.int()
	s.LatencyP50 = time.Duration(d.int())
	s.LatencyP99 = time.Duration(d.int())
	s.LatencySamples = d.int()
}

// session decodes one session. Its App and LastRung almost always
// repeat a string the decoder already holds — its order entry, a rung
// name — and then share it instead of allocating a copy.
func (d *decoder) session(ss *SessionState, orderApp string) {
	if app := d.strBytes(); string(app) == orderApp {
		ss.App = orderApp
	} else {
		ss.App = string(app)
	}
	ss.Threads = d.int()
	ss.Ways = d.int()
	if n := d.count(2); n > 0 {
		ss.Queue = make([]Sample, n)
		for i := range ss.Queue {
			ss.Queue[i].Interval = d.int()
			ss.Queue[i].Threads = d.threadStats()
		}
	}
	ss.Current = d.intSlice()
	ss.Interval = d.int()
	ss.LastRung = internRung(d.strBytes())
	ss.LastTick = d.uint()
	ss.Epoch = d.uint()
	ss.DroppedOldest = d.uint()
	ss.DroppedPressure = d.uint()
	ss.Mismatches = d.uint()
	d.runtime(&ss.Runtime)
}

func internRung(b []byte) string {
	for _, r := range [...]string{"model", "proportional", "static", RungLastGood} {
		if string(b) == r {
			return r
		}
	}
	return string(b)
}

func (d *decoder) runtime(r *core.RuntimeSystemState) {
	if len(d.b) == 0 {
		d.fail("truncated engine flags")
		return
	}
	flags := d.b[0]
	d.b = d.b[1:]
	if flags&^(engineStateless|engineModel|engineResilient) != 0 {
		d.fail("engine flags %#x", flags)
		return
	}
	r.Engine.Stateless = flags&engineStateless != 0
	if flags&engineModel != 0 {
		r.Engine.Model = new(core.ModelEngineState)
		d.modelEngine(r.Engine.Model)
	}
	if flags&engineResilient != 0 {
		r.Engine.Resilient = new(core.ResilientEngineState)
		d.resilient(r.Engine.Resilient)
	}
	if d.version == 1 {
		d.skipLog()
	}
	r.InvalidAssignments = d.int()
}

// skipLog reads past a version 1 decision log.
func (d *decoder) skipLog() {
	// A decision is at least its interval and two counts.
	for n := d.count(3); n > 0; n-- {
		d.int()
		cpis := d.count(8)
		d.b = d.b[8*cpis:]
		for m := d.count(1); m > 0; m-- {
			d.int()
		}
	}
}

func (d *decoder) modelEngine(m *core.ModelEngineState) {
	// A model is at least its two map counts.
	if n := d.count(2); n > 0 {
		m.Models = carve(&d.models, n)
		for i := range m.Models {
			ms := &m.Models[i]
			if n, ok := d.mapLen(1 + 8); ok {
				ms.Points = make(map[int]float64, n)
				prev := 0
				for j := 0; j < n; j++ {
					k := d.int()
					if j > 0 && k <= prev {
						d.fail("model point keys not increasing (%d after %d)", k, prev)
					}
					prev = k
					ms.Points[k] = d.f64()
				}
			}
			if n, ok := d.mapLen(1 + 1); ok {
				ms.Stamps = make(map[int]int, n)
				prev := 0
				for j := 0; j < n; j++ {
					k := d.int()
					if j > 0 && k <= prev {
						d.fail("model stamp keys not increasing (%d after %d)", k, prev)
					}
					prev = k
					ms.Stamps[k] = d.int()
				}
			}
		}
	}
	m.Interval = d.int()
}

func (d *decoder) resilient(r *core.ResilientEngineState) {
	d.modelEngine(&r.Model)
	r.Health = core.Health(d.int())
	r.Ring = d.boolSlice()
	r.Pos = d.int()
	r.Filled = d.int()
	r.SinceChange = d.int()
	r.LastReported = d.threadStats()
	r.HaveReported = d.bool()
	r.LastGood = d.threadStats()
	r.HaveGood = d.boolSlice()
	r.ResetSplit = d.bool()
	r.Demotions = d.int()
	r.Promotions = d.int()
	r.Rejected = d.uint()
}
