package service

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"intracache/internal/checkpoint"
)

// Sharded scales the service past one lock and one decision goroutine:
// applications are hashed over N independent Service shards, each
// owning its own session table, lock, rotation cursor, latency ring,
// and stats, so ingest for app A never contends with ingest for app B
// in another shard and Tick fans out to a worker pool that decides
// shards concurrently.
//
// The per-session determinism contract survives sharding unchanged
// because it never depended on the global visit order in the first
// place: with tick budget 0, a session's decision is a pure function of
// its own queue and engine state, and every Sharded.Tick ticks every
// shard exactly once, so shard-local tick counters equal the global
// tick count. A session's decision sequence under -shards N is
// therefore byte-identical to the unsharded service given the same
// ingest and tick schedule — the differential tests pin exactly that,
// per app, including across a kill/restart from per-shard checkpoints.
// What sharding deliberately changes is the *interleaving* of the
// global decision stream (Tick returns shard 0's decisions, then shard
// 1's, ...) and the deadline rung's reach (each shard arms its own
// split budget), which is why all cross-run comparisons are per
// session, never stream-positional.
type Sharded struct {
	shards  []*Service
	workers int
	// draining mirrors the shards' flags so Draining() stays a single
	// lock-free load for health probes.
	draining atomic.Bool
}

// ShardIndex maps an application id to its owning shard: stable FNV-1a
// over the id, mod the shard count. It is deliberately a pure exported
// function — checkpoint restore re-verifies session ownership with it,
// and the goldens in sharded_test.go pin it against accidental change
// (a new hash would silently re-home every session on upgrade).
func ShardIndex(app string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(app))
	return int(h.Sum64() % uint64(shards))
}

// NewSharded builds a sharded service: shards independent tick domains
// (clamped to ≥1) ticked by workers concurrent workers (0 = min(shards,
// GOMAXPROCS)). Every shard gets the same Options; shard-level caps
// (MaxSessions, queue bounds) apply per shard, so a sharded service
// admits up to shards×MaxSessions applications.
func NewSharded(opts Options, shards, workers int) *Sharded {
	if shards < 1 {
		shards = 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}
	sh := &Sharded{workers: workers}
	for i := 0; i < shards; i++ {
		sh.shards = append(sh.shards, New(opts))
	}
	return sh
}

// NumShards returns the shard count.
func (sh *Sharded) NumShards() int { return len(sh.shards) }

// shardFor returns the shard owning the app.
func (sh *Sharded) shardFor(app string) *Service {
	return sh.shards[ShardIndex(app, len(sh.shards))]
}

// Ingest routes the batch straight to its owning shard: no other
// shard's lock is touched. A structurally bad batch (including an empty
// app id) is still routed by its hash so the rejection lands in exactly
// one shard's taxonomy.
func (sh *Sharded) Ingest(b Batch) IngestReply {
	return sh.shardFor(b.App).Ingest(b)
}

// CountWireReject accounts a wire-level reject. A corrupt envelope has
// no decodable app id to hash, so it is counted against shard 0 by
// convention; SnapshotStats sums the taxonomy anyway.
func (sh *Sharded) CountWireReject() {
	sh.shards[0].CountWireReject()
}

// Tick runs one decision round on every shard via the worker pool and
// returns the decisions concatenated in shard order (each shard's
// internal order is its own rotation order). budget > 0 is split by
// wave: with W workers over N shards, shards tick in ceil(N/W) serial
// waves, so each shard arms budget/ceil(N/W) as its own deadline and
// the whole round lands within roughly the requested budget. budget <=
// 0 is unbounded — the fully deterministic mode the differentials run
// in, where the split does not exist.
func (sh *Sharded) Tick(budget time.Duration) []Decision {
	n := len(sh.shards)
	if n == 1 {
		return sh.shards[0].Tick(budget)
	}
	per := budget
	if budget > 0 {
		waves := (n + sh.workers - 1) / sh.workers
		per = budget / time.Duration(waves)
	}
	results := make([][]Decision, n)
	if sh.workers == 1 {
		for i, shard := range sh.shards {
			results[i] = shard.Tick(per)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < sh.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i] = sh.shards[i].Tick(per)
				}
			}()
		}
		for i := range sh.shards {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	var out []Decision
	for _, ds := range results {
		out = append(out, ds...)
	}
	return out
}

// Allocation returns the owning shard's view of the session.
func (sh *Sharded) Allocation(app string) (Allocation, bool) {
	return sh.shardFor(app).Allocation(app)
}

// AllocationWatch long-polls on the owning shard's session epoch.
func (sh *Sharded) AllocationWatch(ctx context.Context, app string, sinceEpoch uint64) (Allocation, error) {
	return sh.shardFor(app).AllocationWatch(ctx, app, sinceEpoch)
}

// Apps returns the session ids in shard order, each shard's sessions in
// its own insertion order.
func (sh *Sharded) Apps() []string {
	var out []string
	for _, shard := range sh.shards {
		out = append(out, shard.Apps()...)
	}
	return out
}

// StartDraining flips every shard into shutdown mode.
func (sh *Sharded) StartDraining() {
	sh.draining.Store(true)
	for _, shard := range sh.shards {
		shard.StartDraining()
	}
}

// Draining reports whether StartDraining has been called. Lock-free.
func (sh *Sharded) Draining() bool { return sh.draining.Load() }

// SnapshotStats sums the per-shard taxonomies. Ticks is the maximum
// over shards (all equal — every Tick ticks every shard); PeakSessions
// sums per-shard peaks, which is exact because sessions are never
// evicted (per-shard counts are monotone). Latency percentiles are
// recomputed over all shards' recent-latency rings merged, not averaged
// per shard.
func (sh *Sharded) SnapshotStats() Stats {
	var out Stats
	var lats []float64
	for _, shard := range sh.shards {
		st := shard.SnapshotStats()
		out.Sessions += st.Sessions
		out.PeakSessions += st.PeakSessions
		if st.Ticks > out.Ticks {
			out.Ticks = st.Ticks
		}
		out.BatchesAccepted += st.BatchesAccepted
		out.BatchesRejected += st.BatchesRejected
		out.RejectedDraining += st.RejectedDraining
		out.RejectedSessionLimit += st.RejectedSessionLimit
		out.RejectedMalformed += st.RejectedMalformed
		out.RejectedMismatch += st.RejectedMismatch
		out.SamplesAccepted += st.SamplesAccepted
		out.DroppedOldest += st.DroppedOldest
		out.DroppedPressure += st.DroppedPressure
		out.Decisions += st.Decisions
		out.RungModel += st.RungModel
		out.RungProportional += st.RungProportional
		out.RungStatic += st.RungStatic
		out.LastGoodDeadline += st.LastGoodDeadline
		out.LastGoodPressure += st.LastGoodPressure
		out.EngineDemotions += st.EngineDemotions
		out.EnginePromotions += st.EnginePromotions
		out.EngineRejectedSamples += st.EngineRejectedSamples
		out.InvalidAssignments += st.InvalidAssignments
		lats = append(lats, shard.latencySeconds()...)
	}
	// Percentiles directly over the concatenated samples: funneling N
	// shards' rings through one latRingCap-bounded ring would silently
	// drop earlier shards' samples and bias the result toward the
	// highest-index shards.
	if len(lats) > 0 {
		sort.Float64s(lats)
		out.LatencyP50 = time.Duration(percentile(lats, 50) * float64(time.Second))
		out.LatencyP99 = time.Duration(percentile(lats, 99) * float64(time.Second))
		out.LatencySamples = len(lats)
	}
	return out
}

// Per-shard checkpoints: SaveCheckpoint writes one consistent cut per
// shard (each in the standard CRC64 envelope via the atomic-rename
// writer) concurrently under fresh generation-stamped names
// (path.g<gen>.shard<i>), then commits by atomically replacing the
// manifest at path and garbage-collecting the previous generation. No
// file a committed manifest references is ever overwritten in place,
// so a crash at any point mid-save leaves the previous manifest
// naming its previous, complete, same-tick set — that is the whole
// crash-atomicity argument, and it is why the generation stamp exists.
// The manifest stamps the shard count; LoadCheckpoint refuses a count
// mismatch outright, because restoring N-hashed sessions into M
// shards would silently re-home every session, and additionally
// cross-checks every shard's tick counter so a hand-assembled torn set
// is refused too. Cross-shard
// consistency needs no global cut: a session lives entirely inside
// one shard, so per-shard cuts compose. The owner must not tick
// between the per-shard captures if it wants all shards cut at the
// same tick (partitiond checkpoints from its ticker goroutine,
// between ticks, so it gets that for free).
type shardManifest struct {
	Magic   string
	Version int
	Shards  int
	// Gen is the save generation: each SaveCheckpoint writes its shard
	// files under names stamped with the next generation and only then
	// commits this manifest, so the previous generation's files stay
	// untouched until the new set is fully durable. Zero in manifests
	// written before generations existed (their files used the legacy
	// path.shard<i> names — still restorable via Files).
	Gen   uint64
	Files []string // base names, relative to the manifest's directory
}

const (
	shardManifestMagic   = "partitiond-shard-manifest"
	shardManifestVersion = 1
)

// shardPath names shard i's checkpoint file for generation gen of a
// manifest at path.
func shardPath(path string, gen uint64, i int) string {
	return fmt.Sprintf("%s.g%d.shard%d", path, gen, i)
}

// SaveCheckpoint captures every shard concurrently into a fresh
// generation of shard files, then commits them by atomically writing
// the manifest at path; only after the commit is the prior
// generation deleted. A crash anywhere mid-save therefore leaves the
// previous manifest and its complete shard set intact — at worst plus
// some unreferenced new-generation files the next save will reuse or
// the operator can delete. A single-shard service writes the plain
// pre-shard format instead — -shards 1 stays file-compatible with
// PR 7 daemons in both directions.
func (sh *Sharded) SaveCheckpoint(path string) error {
	n := len(sh.shards)
	if n == 1 {
		return sh.shards[0].SaveCheckpoint(path)
	}
	// The committed manifest (when one is readable) dictates the next
	// generation and the files to garbage-collect after commit. An
	// absent or unreadable manifest means there is no committed set to
	// protect, so generation 1's names are free to (re)use.
	gen := uint64(1)
	var prevFiles []string
	var prev shardManifest
	if err := checkpoint.LoadGob(path, &prev); err == nil && prev.Magic == shardManifestMagic {
		gen = prev.Gen + 1
		prevFiles = prev.Files
	}
	dir := filepath.Dir(path)
	files := make([]string, n)
	for i := range files {
		files[i] = filepath.Base(shardPath(path, gen, i))
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range sh.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = sh.shards[i].SaveCheckpoint(filepath.Join(dir, files[i]))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("service: checkpointing shard %d/%d: %w", i, n, err)
		}
	}
	m := shardManifest{Magic: shardManifestMagic, Version: shardManifestVersion, Shards: n, Gen: gen, Files: files}
	if err := checkpoint.SaveGob(path, &m); err != nil {
		return err
	}
	// Commit point passed: the prior generation is unreferenced. GC is
	// best-effort — a leftover file is disk noise, never restored state.
	keep := make(map[string]bool, n)
	for _, f := range files {
		keep[f] = true
	}
	for _, f := range prevFiles {
		if !keep[f] {
			os.Remove(filepath.Join(dir, f))
		}
	}
	return nil
}

// LoadCheckpoint restores a SaveCheckpoint manifest into an empty
// sharded service, loading shards concurrently. A manifest written at a
// different shard count is refused, naming both counts. A pre-shard
// (plain Service) checkpoint is accepted when running with exactly one
// shard, so PR 7 daemon checkpoints restore under -shards 1; at any
// other count it is refused with the same guidance. After restore,
// every session's ownership is re-verified against ShardIndex, so a
// hand-mixed set of shard files cannot smuggle a session into a shard
// that would never route its ingest, and every shard's tick counter is
// cross-checked against shard 0's, so a torn set — files individually
// valid but cut at different ticks — is refused, not served.
func (sh *Sharded) LoadCheckpoint(path string) error {
	n := len(sh.shards)
	var m shardManifest
	merr := checkpoint.LoadGob(path, &m)
	if merr != nil || m.Magic != shardManifestMagic {
		// Not a manifest (gob refuses a State decoded as a manifest: no
		// fields match). The only other thing it can legitimately be is
		// a pre-shard plain-Service checkpoint, which maps onto exactly
		// one shard.
		if n == 1 {
			return sh.shards[0].LoadCheckpoint(path)
		}
		var st State
		if err := checkpoint.LoadGob(path, &st); err == nil {
			return fmt.Errorf("service: %s is an unsharded checkpoint (%d sessions); restart with -shards 1 or re-checkpoint sharded", path, len(st.Sessions))
		}
		if merr != nil {
			return merr
		}
		return fmt.Errorf("service: %s is not a shard manifest", path)
	}
	if m.Version != shardManifestVersion {
		return fmt.Errorf("service: shard manifest version %d, this binary speaks %d", m.Version, shardManifestVersion)
	}
	if m.Shards != n {
		return fmt.Errorf("service: checkpoint was written with %d shards, service has %d — restart with -shards %d", m.Shards, n, m.Shards)
	}
	if len(m.Files) != n {
		return fmt.Errorf("service: shard manifest names %d files for %d shards", len(m.Files), n)
	}
	for _, f := range m.Files {
		// Files are base names in the manifest's directory; anything
		// else would let a manifest read from outside it.
		if f == "" || f != filepath.Base(f) {
			return fmt.Errorf("service: shard manifest names %q, not a file beside it", f)
		}
	}
	dir := filepath.Dir(path)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range sh.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = sh.shards[i].LoadCheckpoint(filepath.Join(dir, m.Files[i]))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("service: restoring shard %d/%d: %w", i, n, err)
		}
	}
	for i, shard := range sh.shards {
		for _, app := range shard.Apps() {
			if own := ShardIndex(app, n); own != i {
				return fmt.Errorf("service: restored session %q into shard %d but it hashes to shard %d", app, i, own)
			}
		}
	}
	// A committed manifest only ever names one generation's files, but
	// defend against a hand-assembled mix anyway: every shard must have
	// been cut at the same tick, or the restored service would break
	// the all-shards-same-tick invariant the determinism contract (and
	// Stats.Ticks) relies on — each file individually valid and
	// owner-consistent, yet the set torn.
	want := sh.shards[0].tickCount()
	for i, shard := range sh.shards[1:] {
		if got := shard.tickCount(); got != want {
			return fmt.Errorf("service: torn checkpoint: shard %d was cut at tick %d, shard 0 at tick %d", i+1, got, want)
		}
	}
	if sh.shards[0].Draining() {
		sh.draining.Store(true)
	}
	return nil
}
