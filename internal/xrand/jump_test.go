package xrand

import (
	"math/bits"
	"sync"
	"testing"
)

// The xoshiro256 state update in Uint64 is linear over GF(2): the next
// state is a fixed 256×256 bit matrix T applied to the current state.
// These tests therefore verify Jump against an independently computed
// reference — T squared 128 times is T^(2^128), the exact operator Jump
// claims to apply — rather than against vectors copied from the
// implementation under test.

// bitVec is a 256-bit state vector, bit i of word i/64 = state bit i.
type bitVec [4]uint64

func (v bitVec) bit(i int) bool { return v[i/64]>>(uint(i)%64)&1 != 0 }

func (v *bitVec) xor(w bitVec) {
	v[0] ^= w[0]
	v[1] ^= w[1]
	v[2] ^= w[2]
	v[3] ^= w[3]
}

// bitMat is a 256×256 GF(2) matrix stored by columns: cols[j] is the
// image of basis vector e_j, so A·v = XOR of cols[j] over set bits j.
type bitMat struct {
	cols [256]bitVec
}

func (a *bitMat) apply(v bitVec) bitVec {
	var out bitVec
	for j := 0; j < 256; j++ {
		if v.bit(j) {
			out.xor(a.cols[j])
		}
	}
	return out
}

func (a *bitMat) mul(b *bitMat) *bitMat {
	var c bitMat
	for j := 0; j < 256; j++ {
		c.cols[j] = a.apply(b.cols[j])
	}
	return &c
}

// stepState is the xoshiro256 state transition, replicated here (state
// update only, no output) so the matrix is built from an independent
// statement of the recurrence.
func stepState(s bitVec) bitVec {
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return s
}

// transitionMatrix builds T column by column from the recurrence.
func transitionMatrix() *bitMat {
	var m bitMat
	for j := 0; j < 256; j++ {
		var e bitVec
		e[j/64] = 1 << (uint(j) % 64)
		m.cols[j] = stepState(e)
	}
	return &m
}

func TestJumpMatchesMatrixPower(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix exponentiation is ~100M word ops")
	}
	// T^(2^128) by 128 squarings.
	p := transitionMatrix()
	for i := 0; i < 128; i++ {
		p = p.mul(p)
	}
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef, 1 << 63} {
		r := New(seed)
		want := p.apply(bitVec(r.State()))
		r.Jump()
		if bitVec(r.State()) != want {
			t.Errorf("seed %#x: Jump state %x, want T^(2^128)·s = %x", seed, r.State(), want)
		}
	}
}

// TestStepStateMatchesUint64 pins the replicated recurrence to the real
// generator, so the matrix oracle cannot silently drift from Uint64.
func TestStepStateMatchesUint64(t *testing.T) {
	r := New(7)
	for i := 0; i < 100; i++ {
		want := stepState(bitVec(r.State()))
		r.Uint64()
		if bitVec(r.State()) != want {
			t.Fatalf("step %d: stepState diverged from Uint64's update", i)
		}
	}
}

// TestJumpedStreamsDisjoint sanity-checks that jumped sub-streams do not
// collide over a short horizon (they cannot, short of a 2^128 overlap).
func TestJumpedStreamsDisjoint(t *testing.T) {
	base := New(99)
	a := *base
	b := *base
	b.Jump()
	seen := make(map[uint64]struct{}, 4096)
	for i := 0; i < 2048; i++ {
		seen[a.Uint64()] = struct{}{}
	}
	collisions := 0
	for i := 0; i < 2048; i++ {
		if _, ok := seen[b.Uint64()]; ok {
			collisions++
		}
	}
	if collisions > 0 {
		t.Errorf("%d collisions between base and jumped stream in 2048 draws", collisions)
	}
}

func TestPurgeZipfCache(t *testing.T) {
	r := New(3)
	z1 := NewZipf(r, 777, 0.9) // unusual size: not shared with other tests
	if _, ok := zipfCache.Load(zipfKey{n: 777, alpha: 0.9}); !ok {
		t.Fatal("NewZipf did not memoize its tables")
	}
	PurgeZipfCache()
	if _, ok := zipfCache.Load(zipfKey{n: 777, alpha: 0.9}); ok {
		t.Fatal("PurgeZipfCache left tables in the cache")
	}
	// Existing samplers keep working from their direct references, and a
	// rebuilt sampler draws the identical stream.
	r2 := New(3)
	z2 := NewZipf(r2, 777, 0.9)
	for i := 0; i < 1000; i++ {
		if a, b := z1.Next(), z2.Next(); a != b {
			t.Fatalf("draw %d: purged-then-rebuilt sampler diverged (%d vs %d)", i, a, b)
		}
	}
}

// TestZipfBuildsOnce races goroutines on a fresh (n, alpha) pair: they
// all miss the memo together, and the tables must be built once and
// shared.
func TestZipfBuildsOnce(t *testing.T) {
	const n, alpha, racers = 50_021, 0.8125, 8    // a pair no other test uses
	zipfCache.Delete(zipfKey{n: n, alpha: alpha}) // fresh under -count too
	before := zipfBuilds.Load()
	start := make(chan struct{})
	zs := make([]*Zipf, racers)
	var wg sync.WaitGroup
	for i := range zs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			zs[i] = NewZipf(New(5), n, alpha)
		}(i)
	}
	close(start)
	wg.Wait()
	if builds := zipfBuilds.Load() - before; builds != 1 {
		t.Errorf("%d goroutines built the (%d, %v) tables %d times, want once", racers, n, alpha, builds)
	}
	for i, z := range zs[1:] {
		if &z.cdf[0] != &zs[0].cdf[0] {
			t.Errorf("sampler %d does not share the first sampler's tables", i+1)
		}
	}
}
