package trace

import "math/bits"

// Window holds a stretch of one thread's instruction stream as packed
// records, so that two consumers can read it at their own pace: the
// one that runs ahead pulls new instructions from the source and notes
// them (Note), the other replays them (Replay), each through its own
// Cursor. Trim drops what both have passed.
//
// A record is one uint32: one memory access and the non-memory gap
// before it. Bit 0 is the write flag; bits 1–2 name one of up to three
// address regions of 2^22 lines each, taken in the order the stream
// first touches them (a generated thread uses three: private, stream
// and shared); bits 3–9 hold the gap; bits 10–31 hold the line's
// offset in its region. A gap too long for its field is kept in a side
// list (gap field all ones), and so is an address that is not
// line-aligned or lies outside the three regions (region field 3).
// Non-memory instructions noted after the last record are counted, not
// stored, and may be replayed too.
type Window struct {
	lineShift uint
	regions   [winRegions]uint64 // line >> winOffBits of each region in use
	nregions  int
	recs      []uint32
	gaps      []uint64 // gaps of records whose gap field is winGapEsc
	wide      []uint64 // addresses of records whose region field is winWide
	pend      uint64   // non-memory instructions noted after the last record
}

// Cursor is one consumer's position in a Window: the next record, the
// side-list entries that record uses if its gap or address did not fit,
// and how much of the record's gap (or, past the last record, of the
// pending non-memory instructions) it has consumed.
type Cursor struct {
	pos, gapPos, widePos int
	inGap                uint64
}

const (
	winRegions = 3
	winWide    = winRegions // region field of an address kept in wide
	winGapBits = 7
	winGapEsc  = 1<<winGapBits - 1 // gap field of a gap kept in gaps
	winOffBits = 22
	winOffMask = 1<<winOffBits - 1
)

// NewWindow returns an empty window for addresses of lineBytes-byte
// lines.
func NewWindow(lineBytes int) *Window {
	w := &Window{}
	if lineBytes > 0 && bits.OnesCount(uint(lineBytes)) == 1 {
		w.lineShift = uint(bits.TrailingZeros(uint(lineBytes)))
	}
	return w
}

// Len returns the number of records the window holds.
func (w *Window) Len() int { return len(w.recs) }

// AtEnd reports whether c has consumed everything noted so far.
func (w *Window) AtEnd(c *Cursor) bool { return c.pos == len(w.recs) && c.inGap == w.pend }

// Note records a run that the consumer at c, which must be at the end
// of the window, just took from the source: n non-memory instructions
// followed, when in.IsMem, by the access in. c moves past it.
func (w *Window) Note(c *Cursor, n uint64, in Instr) {
	if !in.IsMem {
		w.pend += n
		c.inGap = w.pend
		return
	}
	gap := w.pend + n
	w.pend = 0
	r := uint32(winGapEsc) << 3
	if gap < winGapEsc {
		r = uint32(gap) << 3
	} else {
		w.gaps = append(w.gaps, gap)
	}
	if slot, off, ok := w.region(in.Addr); ok {
		r |= slot<<1 | off<<10
	} else {
		r |= winWide << 1
		w.wide = append(w.wide, in.Addr)
	}
	if in.Write {
		r |= 1
	}
	w.recs = append(w.recs, r)
	*c = Cursor{pos: len(w.recs), gapPos: len(w.gaps), widePos: len(w.wide)}
}

// region returns the region slot and line offset of addr, taking a free
// slot for a region not seen before, or ok false when addr does not fit
// a record.
func (w *Window) region(addr uint64) (slot, off uint32, ok bool) {
	line := addr >> w.lineShift
	if line<<w.lineShift != addr {
		return 0, 0, false
	}
	tag := line >> winOffBits
	for i := 0; i < w.nregions; i++ {
		if w.regions[i] == tag {
			return uint32(i), uint32(line & winOffMask), true
		}
	}
	if w.nregions == winRegions {
		return 0, 0, false
	}
	w.regions[w.nregions] = tag
	w.nregions++
	return uint32(w.nregions - 1), uint32(line & winOffMask), true
}

// Replay consumes up to max noted instructions at c with the RunSource
// contract: the count of leading non-memory instructions and, when the
// run ended on a memory access, that access. A run that reaches the end
// of the window stops there, short of max and without an access.
func (w *Window) Replay(c *Cursor, max uint64) (nonMem uint64, in Instr) {
	if c.pos == len(w.recs) {
		take := min(max, w.pend-c.inGap)
		c.inGap += take
		return take, Instr{}
	}
	r := w.recs[c.pos]
	gap := uint64(r >> 3 & winGapEsc)
	if gap == winGapEsc {
		gap = w.gaps[c.gapPos]
	}
	rest := gap - c.inGap
	if rest >= max {
		// The run ends inside the gap, or at its end just before the
		// access.
		c.inGap += max
		return max, Instr{}
	}
	if gap >= winGapEsc {
		c.gapPos++
	}
	c.pos++
	c.inGap = 0
	var addr uint64
	if slot := r >> 1 & 3; slot == winWide {
		addr = w.wide[c.widePos]
		c.widePos++
	} else {
		addr = (w.regions[slot]<<winOffBits | uint64(r>>10)) << w.lineShift
	}
	return rest, Instr{IsMem: true, Write: r&1 != 0, Addr: addr}
}

// Trim drops every record both a and b have passed, keeping the
// window's storage, and moves the cursors to match.
func (w *Window) Trim(a, b *Cursor) {
	k := min(a.pos, b.pos)
	if k == len(w.recs) {
		// Both are past the last record: the pending instructions both
		// consumed go too.
		g := min(a.inGap, b.inGap)
		w.pend -= g
		a.inGap -= g
		b.inGap -= g
	}
	kg, kw := min(a.gapPos, b.gapPos), min(a.widePos, b.widePos)
	w.recs = w.recs[:copy(w.recs, w.recs[k:])]
	w.gaps = w.gaps[:copy(w.gaps, w.gaps[kg:])]
	w.wide = w.wide[:copy(w.wide, w.wide[kw:])]
	for _, c := range []*Cursor{a, b} {
		c.pos -= k
		c.gapPos -= kg
		c.widePos -= kw
	}
}
