package service

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"intracache/internal/checkpoint"
)

// TestShardIndexGoldens pins the app→shard hash to fixed values: the
// hash is persisted implicitly in every per-shard checkpoint, so a
// silent change would re-home sessions on upgrade. If this test fails,
// the hash changed — that is a checkpoint-format break, not a refactor.
func TestShardIndexGoldens(t *testing.T) {
	goldens := []struct {
		app        string
		s2, s4, s8 int
	}{
		{"alpha", 1, 3, 3},
		{"beta", 1, 3, 7},
		{"gamma", 0, 2, 2},
		{"delta", 1, 1, 1},
		{"web-01", 1, 3, 7},
		{"gcc-0001", 0, 0, 0},
		{"swim-0777", 1, 3, 3},
	}
	for _, g := range goldens {
		if got := ShardIndex(g.app, 2); got != g.s2 {
			t.Errorf("ShardIndex(%q, 2) = %d, want %d", g.app, got, g.s2)
		}
		if got := ShardIndex(g.app, 4); got != g.s4 {
			t.Errorf("ShardIndex(%q, 4) = %d, want %d", g.app, got, g.s4)
		}
		if got := ShardIndex(g.app, 8); got != g.s8 {
			t.Errorf("ShardIndex(%q, 8) = %d, want %d", g.app, got, g.s8)
		}
		if got := ShardIndex(g.app, 1); got != 0 {
			t.Errorf("ShardIndex(%q, 1) = %d, want 0", g.app, got)
		}
	}
	// Stability across calls (and therefore restarts): the index is a
	// pure function of the id and the count.
	for i := 0; i < 3; i++ {
		if ShardIndex("alpha", 4) != 3 {
			t.Fatal("ShardIndex not stable across calls")
		}
	}
}

// scriptBackend runs the fixed ingest/tick schedule from runScript
// against any backend, with an optional mid-script kill/restart through
// mk — the generic form the sharded differentials need.
func scriptBackend(t *testing.T, svc Backend, killAt int, path string, mk func() Backend) []Decision {
	t.Helper()
	apps := []string{"alpha", "beta", "gamma", "delta", "web-01", "gcc-0001", "swim-0777"}
	var out []Decision
	for step := 1; step <= 8; step++ {
		for i, app := range apps {
			b := mkBatch(app, 2, 8, 2, uint64(step*100+i*10))
			if rep := svc.Ingest(b); rep.Rejected != "" {
				t.Fatalf("step %d app %s rejected: %+v", step, app, rep)
			}
		}
		out = append(out, svc.Tick(0)...)
		if killAt == step {
			if err := svc.SaveCheckpoint(path); err != nil {
				t.Fatalf("SaveCheckpoint: %v", err)
			}
			svc = mk()
			if err := svc.LoadCheckpoint(path); err != nil {
				t.Fatalf("LoadCheckpoint: %v", err)
			}
		}
	}
	return out
}

// byApp splits a decision stream per app (the only comparable unit
// across shard counts — the global interleaving legitimately differs).
func byApp(ds []Decision) map[string][]Decision {
	out := make(map[string][]Decision)
	for _, d := range ds {
		out[d.App] = append(out[d.App], d)
	}
	return out
}

func assertPerAppEqual(t *testing.T, label string, a, b []Decision) {
	t.Helper()
	byA, byB := byApp(a), byApp(b)
	if len(byA) != len(byB) {
		t.Fatalf("%s: %d apps vs %d", label, len(byA), len(byB))
	}
	for app, da := range byA {
		if !DecisionsEqual(da, byB[app]) {
			t.Fatalf("%s: app %s decision streams diverged\nA: %+v\nB: %+v", label, app, da, byB[app])
		}
	}
}

// TestShardedDifferentialAgainstUnsharded is the tentpole pin: for
// every app, the decision/rung/epoch sequence under N shards (any
// worker count) is byte-identical to the unsharded service given the
// same ingest and tick schedule.
func TestShardedDifferentialAgainstUnsharded(t *testing.T) {
	base := scriptBackend(t, New(Options{}), 0, "", nil)
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 4} {
			name := fmt.Sprintf("shards=%d/workers=%d", shards, workers)
			ds := scriptBackend(t, NewSharded(Options{}, shards, workers), 0, "", nil)
			assertPerAppEqual(t, name, base, ds)
		}
	}
}

// TestShardedKillRestartDeterminism: a sharded run killed mid-script
// and restored from its per-shard checkpoints emits the same per-app
// decisions as both an unkilled sharded run and the unsharded service.
func TestShardedKillRestartDeterminism(t *testing.T) {
	dir := t.TempDir()
	base := scriptBackend(t, New(Options{}), 0, "", nil)
	straight := scriptBackend(t, NewSharded(Options{}, 4, 2), 0, "", nil)
	killed := scriptBackend(t, NewSharded(Options{}, 4, 2), 4, filepath.Join(dir, "sh.ckpt"),
		func() Backend { return NewSharded(Options{}, 4, 2) })
	assertPerAppEqual(t, "sharded straight vs killed", straight, killed)
	assertPerAppEqual(t, "unsharded vs killed sharded", base, killed)
}

// TestShardedCheckpointShardCountMismatch pins the refusal matrix:
// manifests only restore at the count that wrote them, plain pre-shard
// checkpoints only at one shard, and both errors name the fix.
func TestShardedCheckpointShardCountMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sh.ckpt")
	src := NewSharded(Options{}, 4, 2)
	scriptBackend(t, src, 0, "", nil)
	if err := src.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	err := NewSharded(Options{}, 2, 1).LoadCheckpoint(path)
	if err == nil || !strings.Contains(err.Error(), "4 shards") || !strings.Contains(err.Error(), "-shards 4") {
		t.Fatalf("2-shard restore of a 4-shard manifest: %v", err)
	}
	if err := NewSharded(Options{}, 1, 1).LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), "-shards 4") {
		t.Fatalf("1-shard restore of a 4-shard manifest: %v", err)
	}

	// A pre-shard plain checkpoint restores at one shard only; a bigger
	// service points the operator back at -shards 1.
	plain := filepath.Join(dir, "plain.ckpt")
	svc := New(Options{})
	svc.Ingest(mkBatch("alpha", 2, 8, 2, 1))
	svc.Tick(0)
	if err := svc.SaveCheckpoint(plain); err != nil {
		t.Fatal(err)
	}
	one := NewSharded(Options{}, 1, 1)
	if err := one.LoadCheckpoint(plain); err != nil {
		t.Fatalf("1-shard restore of a plain checkpoint: %v", err)
	}
	if _, ok := one.Allocation("alpha"); !ok {
		t.Fatal("plain checkpoint lost the session")
	}
	err = NewSharded(Options{}, 4, 2).LoadCheckpoint(plain)
	if err == nil || !strings.Contains(err.Error(), "unsharded checkpoint") || !strings.Contains(err.Error(), "-shards 1") {
		t.Fatalf("4-shard restore of a plain checkpoint: %v", err)
	}

	// And the round trip that must work: same count restores, sessions
	// land in the shards their ids hash to.
	dst := NewSharded(Options{}, 4, 2)
	if err := dst.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	for _, app := range dst.Apps() {
		want := ShardIndex(app, 4)
		if _, ok := dst.shards[want].Allocation(app); !ok {
			t.Fatalf("restored session %q not in its owning shard %d", app, want)
		}
	}
}

// TestShardedRestoreVerifiesOwnership: hand-mixed shard files (here,
// two shard checkpoints swapped on disk) are refused — a session can
// never be restored into a shard that would not route its ingest.
func TestShardedRestoreVerifiesOwnership(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sh.ckpt")
	src := NewSharded(Options{}, 4, 1)
	scriptBackend(t, src, 0, "", nil)
	if err := src.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	// The script populates shards 1, 2, and 3 (see the goldens); swap
	// two populated shard files so sessions land in foreign shards.
	// (The first save of a manifest is generation 1.)
	a, b := shardPath(path, 1, 1), shardPath(path, 1, 2)
	tmp := filepath.Join(dir, "tmp")
	for _, mv := range [][2]string{{a, tmp}, {b, a}, {tmp, b}} {
		if err := os.Rename(mv[0], mv[1]); err != nil {
			t.Fatal(err)
		}
	}
	err := NewSharded(Options{}, 4, 1).LoadCheckpoint(path)
	if err == nil || !strings.Contains(err.Error(), "hashes to shard") {
		t.Fatalf("swapped shard files restored: %v", err)
	}
}

// TestShardedCheckpointGenerations: each save writes a fresh
// generation of shard files and garbage-collects the previous
// generation only after the new manifest has committed, so no file a
// committed manifest references is ever overwritten in place.
func TestShardedCheckpointGenerations(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sh.ckpt")
	src := NewSharded(Options{}, 4, 2)
	scriptBackend(t, src, 0, "", nil)
	if err := src.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(shardPath(path, 1, i)); err != nil {
			t.Fatalf("gen-1 shard file %d missing after first save: %v", i, err)
		}
	}
	src.Tick(0)
	if err := src.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(shardPath(path, 2, i)); err != nil {
			t.Fatalf("gen-2 shard file %d missing after second save: %v", i, err)
		}
		if _, err := os.Stat(shardPath(path, 1, i)); !os.IsNotExist(err) {
			t.Fatalf("gen-1 shard file %d not GCed after commit: %v", i, err)
		}
	}
	dst := NewSharded(Options{}, 4, 2)
	if err := dst.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if got, want := dst.SnapshotStats().Ticks, src.SnapshotStats().Ticks; got != want {
		t.Fatalf("restored ticks=%d, want %d", got, want)
	}
}

// TestShardedCheckpointCrashMidSaveKeepsCommittedSet simulates a crash
// between shard-file writes and the manifest commit: some
// next-generation shard files land (cut at a later tick), the manifest
// never does. Restore must read the committed generation's complete,
// same-tick set — the stray files are unreferenced noise.
func TestShardedCheckpointCrashMidSaveKeepsCommittedSet(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sh.ckpt")
	src := NewSharded(Options{}, 4, 1)
	scriptBackend(t, src, 0, "", nil)
	if err := src.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	wantTicks := src.SnapshotStats().Ticks
	src.Tick(0)
	for i := 0; i < 2; i++ {
		if err := src.shards[i].SaveCheckpoint(shardPath(path, 2, i)); err != nil {
			t.Fatal(err)
		}
	}
	dst := NewSharded(Options{}, 4, 1)
	if err := dst.LoadCheckpoint(path); err != nil {
		t.Fatalf("restore after simulated mid-save crash: %v", err)
	}
	if got := dst.SnapshotStats().Ticks; got != wantTicks {
		t.Fatalf("restored ticks=%d, want committed generation's %d", got, wantTicks)
	}
}

// TestShardedCheckpointTornSetRefused: a hand-assembled set mixing
// shard files cut at different ticks — each individually valid and
// owner-consistent — is refused by the restore's tick cross-check.
func TestShardedCheckpointTornSetRefused(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.ckpt")
	pathB := filepath.Join(dir, "b.ckpt")
	src := NewSharded(Options{}, 4, 1)
	scriptBackend(t, src, 0, "", nil)
	if err := src.SaveCheckpoint(pathA); err != nil {
		t.Fatal(err)
	}
	src.Tick(0)
	if err := src.SaveCheckpoint(pathB); err != nil {
		t.Fatal(err)
	}
	// Graft shard 1's file from the older cut into the newer set: same
	// sessions, same owners, only the tick counters disagree.
	data, err := os.ReadFile(shardPath(pathA, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shardPath(pathB, 1, 1), data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = NewSharded(Options{}, 4, 1).LoadCheckpoint(pathB)
	if err == nil || !strings.Contains(err.Error(), "torn checkpoint") {
		t.Fatalf("mixed-tick shard set restored: %v", err)
	}
}

// TestShardedCheckpointLegacyManifest: a manifest written before
// generation naming (files at path.shard<i>, no Gen field) still
// restores, and the next save migrates to generation naming and GCs
// the legacy files after its commit.
func TestShardedCheckpointLegacyManifest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sh.ckpt")
	src := NewSharded(Options{}, 4, 1)
	scriptBackend(t, src, 0, "", nil)
	var files []string
	for i, shard := range src.shards {
		name := fmt.Sprintf("%s.shard%d", path, i)
		if err := shard.SaveCheckpoint(name); err != nil {
			t.Fatal(err)
		}
		files = append(files, filepath.Base(name))
	}
	m := shardManifest{Magic: shardManifestMagic, Version: shardManifestVersion, Shards: 4, Files: files}
	if err := checkpoint.SaveGob(path, &m); err != nil {
		t.Fatal(err)
	}
	dst := NewSharded(Options{}, 4, 1)
	if err := dst.LoadCheckpoint(path); err != nil {
		t.Fatalf("legacy manifest restore: %v", err)
	}
	if err := dst.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
			t.Fatalf("legacy shard file %s not GCed after migrating save: %v", f, err)
		}
	}
	if err := NewSharded(Options{}, 4, 1).LoadCheckpoint(path); err != nil {
		t.Fatalf("restore after migration from legacy manifest: %v", err)
	}
}

// TestShardedManifestFilesStayBesideIt: a manifest naming a shard file
// outside its own directory is refused, even when that file is a valid
// shard checkpoint.
func TestShardedManifestFilesStayBesideIt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "sh.ckpt")
	if err := os.Mkdir(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	src := NewSharded(Options{}, 4, 1)
	scriptBackend(t, src, 0, "", nil)
	if err := src.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	var m shardManifest
	if err := checkpoint.LoadGob(path, &m); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, "sub", m.Files[0]), filepath.Join(dir, m.Files[0])); err != nil {
		t.Fatal(err)
	}
	m.Files[0] = filepath.Join("..", m.Files[0])
	if err := checkpoint.SaveGob(path, &m); err != nil {
		t.Fatal(err)
	}
	err := NewSharded(Options{}, 4, 1).LoadCheckpoint(path)
	if err == nil || !strings.Contains(err.Error(), "not a file beside it") {
		t.Fatalf("manifest naming %q restored: %v", m.Files[0], err)
	}
}

// TestShardedIngestRoutesToOwningShard: a batch only ever touches the
// shard its app hashes to, and per-shard admission caps compose.
func TestShardedIngestRoutesToOwningShard(t *testing.T) {
	sh := NewSharded(Options{}, 4, 1)
	apps := []string{"alpha", "gamma", "delta", "gcc-0001"}
	for i, app := range apps {
		if rep := sh.Ingest(mkBatch(app, 2, 8, 1, uint64(i))); rep.Rejected != "" {
			t.Fatalf("%s rejected: %+v", app, rep)
		}
	}
	for _, app := range apps {
		own := ShardIndex(app, 4)
		for i, shard := range sh.shards {
			_, ok := shard.Allocation(app)
			if ok != (i == own) {
				t.Fatalf("session %q: present-in-shard-%d=%v, owner is %d", app, i, ok, own)
			}
		}
	}
	if st := sh.SnapshotStats(); st.Sessions != len(apps) || st.BatchesAccepted != uint64(len(apps)) {
		t.Fatalf("merged stats: %+v", st)
	}
	// Draining fans out and is observed lock-free at the top.
	sh.StartDraining()
	if !sh.Draining() {
		t.Fatal("Draining() false after StartDraining")
	}
	if rep := sh.Ingest(mkBatch("alpha", 2, 8, 1, 9)); rep.Rejected != RejectDraining {
		t.Fatalf("ingest while draining: %+v", rep)
	}
	if st := sh.SnapshotStats(); st.RejectedDraining != 1 {
		t.Fatalf("draining reject not in merged taxonomy: %+v", st)
	}
}

// TestShardedConcurrentIngestAndTick exercises the parallel paths under
// the race detector: many producers ingesting to different shards while
// ticks fan out across the worker pool and watchers long-poll.
func TestShardedConcurrentIngestAndTick(t *testing.T) {
	sh := NewSharded(Options{}, 4, 4)
	const producers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			app := fmt.Sprintf("app-%02d", p)
			for i := 0; i < 50; i++ {
				sh.Ingest(mkBatch(app, 2, 8, 2, uint64(p*1000+i)))
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		for i := 0; i < 20; i++ {
			if _, err := sh.AllocationWatch(ctx, "app-00", uint64(i)); err != nil {
				return
			}
		}
	}()
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				sh.Tick(0)
			}
		}
	}()
	wg.Wait()
	close(stop)
	sh.Tick(0)
	if st := sh.SnapshotStats(); st.Sessions != producers {
		t.Fatalf("sessions=%d, want %d", st.Sessions, producers)
	}
}

// TestShardedTickBudgetSplit: the wall-clock budget still bounds a
// sharded tick (each shard arms its split share), and deferred samples
// survive for the next unbounded tick — same contract as unsharded.
func TestShardedTickBudgetSplit(t *testing.T) {
	var mu sync.Mutex
	var now time.Time
	opts := Options{Now: func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(40 * time.Millisecond)
		return now
	}}
	sh := NewSharded(opts, 2, 1)
	for i, app := range []string{"alpha", "beta", "gamma", "delta"} {
		sh.Ingest(mkBatch(app, 2, 8, 1, uint64(i*10)))
	}
	ds := sh.Tick(100 * time.Millisecond)
	if len(ds) != 4 {
		t.Fatalf("decisions=%d, want 4", len(ds))
	}
	lastGood := 0
	for _, d := range ds {
		if d.Rung == RungLastGood {
			lastGood++
		}
	}
	if lastGood == 0 {
		t.Fatalf("no session hit the split deadline rung: %+v", ds)
	}
	// The deferred samples are processed by the next unbounded tick.
	if ds := sh.Tick(0); len(ds) != lastGood {
		t.Fatalf("recovery tick decided %d, want %d deferred", len(ds), lastGood)
	}
}
