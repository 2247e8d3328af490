package xrand

import (
	"testing"
)

// These tests verify Substream against the same independent GF(2)
// oracle TestJumpMatchesMatrixPower uses: the transition matrix T
// rebuilt from a replicated statement of the recurrence (jump_test.go),
// never from the production tables under test. Disjointness of
// Substream(i) for i up to 2^7 follows from exact state equality with
// T^(i·2^128)·s — substream i IS draw i·2^128 of the base stream, so
// two substreams can only collide if one seed's period self-intersects.

// TestSubstreamMatchesMatrixPower pins Substream exactly: for every
// i up to 2^7, Substream(i)'s state equals (T^(2^128))^i applied to the
// base state, where T^(2^128) comes from the oracle's 128 squarings of
// the independently built transition matrix — not from sampled
// collision checks, and not from the production jump polynomial or
// power tables. Exact equality at every i proves the substreams are
// the disjoint 2^128-draw blocks of one period.
func TestSubstreamMatchesMatrixPower(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix exponentiation is ~100M word ops")
	}
	p := transitionMatrix()
	for i := 0; i < 128; i++ {
		p = p.mul(p)
	}
	base := New(42)
	want := bitVec(base.State())
	for i := uint64(0); i <= 1<<7; i++ {
		sub := base.Substream(i)
		if bitVec(sub.State()) != want {
			t.Fatalf("Substream(%d): state %x, want (T^2^128)^i·s = %x",
				i, sub.State(), [4]uint64(want))
		}
		want = p.apply(want)
	}
	if base.State() != New(42).State() {
		t.Error("Substream mutated its receiver")
	}
}

// TestSubstreamMatchesComposedJumps pins the cheap path sequential
// traversal uses: Substream(i) equals i explicit Jumps.
func TestSubstreamMatchesComposedJumps(t *testing.T) {
	jumped := New(7)
	for i := uint64(0); i < 40; i++ {
		sub := New(7).Substream(i)
		if sub.State() != jumped.State() {
			t.Fatalf("Substream(%d) != %d composed Jumps", i, i)
		}
		jumped.Jump()
	}
}

// TestSubstreamZeroIsCopy: block 0 is the base stream itself and must
// not force a table build.
func TestSubstreamZeroIsCopy(t *testing.T) {
	r := New(5)
	r.Uint64()
	sub := r.Substream(0)
	if sub.State() != r.State() {
		t.Fatal("Substream(0) is not a copy")
	}
	sub.Uint64()
	if sub.State() == r.State() {
		t.Fatal("Substream(0) shares state with its receiver")
	}
}

func BenchmarkSubstream(b *testing.B) {
	r := New(1)
	r.Substream(1) // build the table outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Substream(uint64(i) | 1)
	}
}
