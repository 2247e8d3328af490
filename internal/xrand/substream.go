package xrand

// O(1) substreams. Jump() advances a generator by 2^128 draws and
// thereby partitions one seed's period into 2^128 disjoint blocks, but
// reaching block i by calling Jump i times costs O(i). The xoshiro256
// state update is linear over GF(2) — the next state is a fixed 256×256
// bit matrix T applied to the current state — so any power of the
// update can be precomputed as a matrix and applied in O(1): this file
// memoizes T^(2^(128+k)) for k < 64, so Substream lands on block i by
// composing the bits of i, without replay.
//
// The table is built lazily from Jump itself (applying Jump to the 256
// basis states yields T^(2^128) column by column) and squared 63 times:
// ~60 matrix multiplications (~30 ms once per process), paid only by
// callers that need random access to a block. Sequential substream
// traversal (block i, then i+1) is cheaper via a copy plus one Jump,
// and never touches the table.

import (
	"math/bits"
	"sync"
)

// gfMat is a 256×256 GF(2) matrix stored by columns: cols[j] is the
// image of basis state j, so M·s is the XOR of cols[j] over the set
// bits j of s.
type gfMat struct {
	cols [256][4]uint64
}

// apply returns M·s.
func (m *gfMat) apply(s [4]uint64) [4]uint64 {
	var out [4]uint64
	for w, word := range s {
		for word != 0 {
			col := &m.cols[w<<6|bits.TrailingZeros64(word)]
			out[0] ^= col[0]
			out[1] ^= col[1]
			out[2] ^= col[2]
			out[3] ^= col[3]
			word &= word - 1
		}
	}
	return out
}

// square returns M·M (the only product the table build needs).
func (m *gfMat) square() *gfMat {
	var out gfMat
	for j := range out.cols {
		out.cols[j] = m.apply(m.cols[j])
	}
	return &out
}

// powerTable memoizes the 64 square powers of one base matrix.
type powerTable struct {
	once sync.Once
	pows [64]*gfMat // pows[k] = base^(2^k)
}

func (t *powerTable) build(base func() *gfMat) *powerTable {
	t.once.Do(func() {
		t.pows[0] = base()
		for k := 1; k < 64; k++ {
			t.pows[k] = t.pows[k-1].square()
		}
	})
	return t
}

// applyPower applies base^n to s by composing the set bits of n.
func (t *powerTable) applyPower(s [4]uint64, n uint64) [4]uint64 {
	for k := 0; n != 0; k++ {
		if n&1 != 0 {
			s = t.pows[k].apply(s)
		}
		n >>= 1
	}
	return s
}

// substreamTable holds T^(2^(128+k)): T^(2^128) built from the
// production Jump applied to the basis states, so Substream(i) is
// exactly i Jumps by construction.
var substreamTable powerTable

func jumpMatrix() *gfMat {
	var m gfMat
	for j := range m.cols {
		var r Rand
		r.s[j>>6] = 1 << (uint(j) & 63)
		r.Jump()
		m.cols[j] = r.s
	}
	return &m
}

// Substream returns a new generator positioned at block i of the stream
// partition Jump defines: r's state advanced by exactly i·2^128 draws,
// with r itself left untouched. Substream(0) is a plain copy; adjacent
// substreams are 2^128 draws apart, so the blocks of one seed are
// provably disjoint for any workload that draws fewer than 2^128 values
// per block.
func (r *Rand) Substream(i uint64) *Rand {
	sub := *r
	if i == 0 {
		return &sub
	}
	sub.s = substreamTable.build(jumpMatrix).applyPower(sub.s, i)
	return &sub
}
