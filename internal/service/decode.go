package service

import (
	"encoding/json"
	"math"
	"sync"

	"intracache/internal/sim"
)

// decodeBatch decodes one ingest payload into *b exactly as
// json.Unmarshal into a fresh Batch would: same accepted inputs, same
// decoded values, same error text.
//
// The common case is a payload json.Marshal(Batch) produced, and that
// shape is decoded here by a single-pass byte scanner with no
// reflection: exact-case keys, escape-free ASCII strings, plain decimal
// integers, JSON whitespace anywhere between tokens, every key at most
// once. All samples' threads share one backing array, and the scratch
// the scanner collects them in is pooled, so a batch costs three
// allocations however many samples it carries (the App string,
// Samples, and the threads). Anything outside that shape — a key in
// another case, an unknown or duplicate key, an escape, non-ASCII
// bytes, null, a fraction or exponent, an overflowing integer, trailing
// bytes — falls back to json.Unmarshal into a fresh Batch, which decides
// whether the payload is valid and what it means. FuzzDecodeBatch pins
// the two paths to each other.
func decodeBatch(payload []byte, b *Batch) error {
	s := scannerPool.Get().(*batchScanner)
	s.buf, s.pos = payload, 0
	ok := s.decode(b)
	s.release()
	if ok {
		return nil
	}
	// Decoding into a local keeps b from escaping, so a caller's Batch
	// can stay on its stack when the scanner succeeds.
	var fallback Batch
	err := json.Unmarshal(payload, &fallback)
	*b = fallback
	return err
}

// maxPooledThreads bounds the thread scratch a pooled scanner keeps, so
// one outsized batch does not pin its buffers for the daemon's lifetime.
const maxPooledThreads = 4096

var scannerPool = sync.Pool{New: func() any { return new(batchScanner) }}

// batchScanner holds one decode's cursor and the scratch its samples
// and threads collect in before they are copied out at exact size.
type batchScanner struct {
	buf     []byte
	pos     int
	samples []sampleSpan
	threads []sim.ThreadIntervalStats
}

// sampleSpan is one decoded sample: its interval and its threads'
// range in the scanner's thread scratch.
type sampleSpan struct {
	interval   int
	start, end int
	hasThreads bool // the sample carried a Threads key (an empty array is not a nil slice)
}

func (s *batchScanner) release() {
	s.buf = nil
	if cap(s.threads) > maxPooledThreads {
		return
	}
	s.samples, s.threads = s.samples[:0], s.threads[:0]
	scannerPool.Put(s)
}

// decode scans s.buf as a canonical Batch and stores it in *b,
// reporting false (with *b untouched) when the payload falls outside
// the scanner's shape.
func (s *batchScanner) decode(b *Batch) bool {
	var (
		app           []byte
		threads, ways int
		hasSamples    bool
		seen          uint8
	)
	ok := s.object(func(key []byte) bool {
		var bit uint8
		var ok bool
		switch string(key) {
		case "App":
			bit = 1
			app, ok = s.str()
		case "Threads":
			bit = 2
			threads, ok = s.int()
		case "Ways":
			bit = 4
			ways, ok = s.int()
		case "Samples":
			bit = 8
			ok = s.array(s.sample)
			hasSamples = true
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		return ok
	})
	if !ok || !s.end() {
		return false
	}

	out := Batch{App: string(app), Threads: threads, Ways: ways}
	if hasSamples {
		all := make([]sim.ThreadIntervalStats, len(s.threads))
		copy(all, s.threads)
		out.Samples = make([]Sample, len(s.samples))
		for i, sp := range s.samples {
			out.Samples[i].Interval = sp.interval
			if sp.hasThreads {
				out.Samples[i].Threads = all[sp.start:sp.end:sp.end]
			}
		}
	}
	*b = out
	return true
}

// sample scans one Sample object into the scratch.
func (s *batchScanner) sample() bool {
	sp := sampleSpan{start: len(s.threads)}
	var seen uint8
	ok := s.object(func(key []byte) bool {
		var bit uint8
		var ok bool
		switch string(key) {
		case "Interval":
			bit = 1
			sp.interval, ok = s.int()
		case "Threads":
			bit = 2
			ok = s.array(s.thread)
			sp.hasThreads = true
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
		return ok
	})
	sp.end = len(s.threads)
	s.samples = append(s.samples, sp)
	return ok
}

// thread scans one sim.ThreadIntervalStats object into the scratch.
func (s *batchScanner) thread() bool {
	s.threads = append(s.threads, sim.ThreadIntervalStats{})
	t := &s.threads[len(s.threads)-1]
	var seen uint8
	return s.object(func(key []byte) bool {
		var bit uint8
		var field *uint64
		switch string(key) {
		case "Instructions":
			bit, field = 1, &t.Instructions
		case "ActiveCycles":
			bit, field = 2, &t.ActiveCycles
		case "StallCycles":
			bit, field = 4, &t.StallCycles
		case "L1Misses":
			bit, field = 8, &t.L1Misses
		case "L2Accesses":
			bit, field = 16, &t.L2Accesses
		case "L2Hits":
			bit, field = 32, &t.L2Hits
		case "L2Misses":
			bit, field = 64, &t.L2Misses
		case "WaysAssigned":
			bit = 128
		}
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		var ok bool
		if field != nil {
			*field, ok = s.uint()
		} else {
			t.WaysAssigned, ok = s.int()
		}
		return ok
	})
}

// object scans {"key": value, ...}. member is called with the cursor
// on each value and must consume it, reporting false for a key it does
// not know, a key it has seen before, or a value it cannot scan.
func (s *batchScanner) object(member func(key []byte) bool) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.consume(':') || !member(key) {
			return false
		}
		if !s.consume(',') {
			return s.consume('}')
		}
	}
}

// array scans [elem, ...], calling elem with the cursor on each element.
func (s *batchScanner) array(elem func() bool) bool {
	if !s.consume('[') {
		return false
	}
	if s.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.consume(',') {
			return s.consume(']')
		}
	}
}

// ws skips JSON whitespace.
func (s *batchScanner) ws() {
	for s.pos < len(s.buf) {
		switch s.buf[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// consume skips whitespace and then the byte c, reporting whether c was next.
func (s *batchScanner) consume(c byte) bool {
	s.ws()
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *batchScanner) end() bool {
	s.ws()
	return s.pos == len(s.buf)
}

// str scans a string with no escapes, control bytes or non-ASCII bytes
// and returns its contents, aliasing the payload.
func (s *batchScanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.pos
	for ; s.pos < len(s.buf); s.pos++ {
		switch c := s.buf[s.pos]; {
		case c == '"':
			s.pos++
			return s.buf[start : s.pos-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// uint scans a plain non-negative decimal integer that fits in a uint64.
func (s *batchScanner) uint() (uint64, bool) {
	s.ws()
	return s.digits()
}

// int scans a plain decimal integer with an optional minus sign that
// fits in an int.
func (s *batchScanner) int() (int, bool) {
	s.ws()
	neg := s.pos < len(s.buf) && s.buf[s.pos] == '-'
	if neg {
		s.pos++
	}
	v, ok := s.digits()
	switch {
	case !ok:
		return 0, false
	case neg && v <= uint64(math.MaxInt)+1:
		return int(-v), true
	case !neg && v <= math.MaxInt:
		return int(v), true
	}
	return 0, false
}

// digits scans the digits of an integer: no fraction, exponent or
// leading zero, and no overflow of uint64. A digit right after a
// leading 0 is left for the caller's delimiter check to refuse.
func (s *batchScanner) digits() (uint64, bool) {
	start := s.pos
	if s.pos < len(s.buf) && s.buf[s.pos] == '0' {
		s.pos++
		return 0, true
	}
	var v uint64
	for ; s.pos < len(s.buf); s.pos++ {
		c := s.buf[s.pos]
		if c < '0' || c > '9' {
			break
		}
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, s.pos > start
}
