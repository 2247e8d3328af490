package trace

import "fmt"

// SourceState is a serializable snapshot of a trace source's mutable
// state. Exactly one of Gen/Replay is non-nil, matching the dynamic
// type of the source it was captured from. The spec / recorded trace
// itself is deliberately not part of the state: a checkpoint is resumed
// by reconstructing the source from the same configuration and then
// overlaying this snapshot.
type SourceState struct {
	Gen    *GenState
	Replay *ReplayState
}

// GenState snapshots a ThreadGen's mutable state. Base is the RNG
// state the generator was constructed with — the root all chunk
// substreams derive from. It must travel with the snapshot: a restored
// generator re-derives substream k from Base when it crosses a chunk
// boundary, so restoring Rng alone would splice the wrong substreams
// into the stream.
type GenState struct {
	Rng          [4]uint64
	Base         [4]uint64
	WsScale      float64
	StreamScale  float64
	StreamPos    uint64
	StridePos    uint64
	Instructions uint64
}

// ReplayState snapshots a Replayer's cursor.
type ReplayState struct {
	Pos      int
	InGap    uint64
	InTail   bool
	Replayed uint64
}

// StatefulSource is the optional interface a Source implements to
// support checkpoint/resume. Sources that do not implement it cannot be
// checkpointed, but remain valid Sources everywhere else.
type StatefulSource interface {
	Source
	SourceState() SourceState
	RestoreSourceState(SourceState) error
}

var (
	_ StatefulSource = (*ThreadGen)(nil)
	_ StatefulSource = (*Replayer)(nil)
)

// SourceState implements StatefulSource.
func (g *ThreadGen) SourceState() SourceState {
	return SourceState{Gen: &GenState{
		Rng:          g.rng.State(),
		Base:         g.baseState,
		WsScale:      g.wsScale,
		StreamScale:  g.streamScale,
		StreamPos:    g.streamPos,
		StridePos:    g.stridePos,
		Instructions: g.instructions,
	}}
}

// RestoreSourceState implements StatefulSource. The generator must have
// been constructed from the same ThreadSpec the state was captured
// under; the samplers are rebuilt deterministically from the spec and
// the restored phase, then the cursors and RNG are overlaid.
func (g *ThreadGen) RestoreSourceState(st SourceState) error {
	if st.Gen == nil {
		return fmt.Errorf("trace: state is not a generator snapshot")
	}
	s := st.Gen
	if err := g.rng.Restore(s.Rng); err != nil {
		return err
	}
	if s.Base != ([4]uint64{}) {
		g.baseState = s.Base
	}
	// SetPhase rebuilds the region samplers and may clamp stridePos, so
	// the cursors are restored after it.
	g.SetPhase(s.WsScale, s.StreamScale)
	g.streamPos = s.StreamPos
	g.stridePos = s.StridePos
	g.instructions = s.Instructions
	// The snapshot lands mid-chunk (or exactly at a boundary the eager
	// switch already crossed); the cached substream start is stale.
	g.curChunk = s.Instructions / ChunkInstructions
	g.subValid = false
	return nil
}

// CopyFrom puts g in o's exact state, as
// RestoreSourceState(o.SourceState()) does, and also takes o's cached
// start of its current substream, so that g crosses its next chunk
// boundary with one Jump, as o would, instead of rederiving the
// substream from the base state. g and o must share a spec.
func (g *ThreadGen) CopyFrom(o *ThreadGen) error {
	if g.spec != o.spec {
		return fmt.Errorf("trace: CopyFrom between generators of different specs")
	}
	if err := g.RestoreSourceState(o.SourceState()); err != nil {
		return err
	}
	g.subRng, g.subValid = o.subRng, o.subValid
	return nil
}

// SourceState implements StatefulSource.
func (rp *Replayer) SourceState() SourceState {
	return SourceState{Replay: &ReplayState{
		Pos:      rp.pos,
		InGap:    rp.inGap,
		InTail:   rp.inTail,
		Replayed: rp.replayed,
	}}
}

// RestoreSourceState implements StatefulSource. The replayer must hold
// the same recording the state was captured from.
func (rp *Replayer) RestoreSourceState(st SourceState) error {
	if st.Replay == nil {
		return fmt.Errorf("trace: state is not a replayer snapshot")
	}
	s := st.Replay
	if s.Pos < 0 || s.Pos > len(rp.records) {
		return fmt.Errorf("trace: replay position %d out of range [0,%d]", s.Pos, len(rp.records))
	}
	rp.pos = s.Pos
	rp.inGap = s.InGap
	rp.inTail = s.InTail
	rp.replayed = s.Replayed
	return nil
}
