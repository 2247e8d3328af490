package service

import (
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"intracache/internal/checkpoint"
)

// FuzzIngestEnvelope feeds arbitrary bytes to the ingest path the way
// POST /ingest meets a hostile or corrupted client: whatever UnsealJSON
// accepts as a Batch goes through Service.Ingest and a Tick, which must
// reject or decide, never panic. The payload is also sealed as-is so
// the JSON decoding behind the CRC check sees arbitrary input too.
// Every Batch that decodes must survive SealJSON → UnsealJSON
// unchanged.
func FuzzIngestEnvelope(f *testing.F) {
	good, err := SealJSON(mkBatch("web-01", 4, 64, 3, 0))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, []byte(nil))
	f.Add(good[:len(good)/2], []byte(`{"App":"a","Threads":2,"Ways":8,"Samples":[{"Threads":[{},{}]}]}`))
	f.Add([]byte(nil), []byte(`{"App":"a","Threads":1,"Ways":1,"Samples":[{"Threads":[{"Instructions":1,"WaysAssigned":-5}]}]}`))
	f.Add([]byte(nil), []byte(`{"App":"a","Threads":300,"Ways":0,"Samples":null}`))
	f.Add([]byte(nil), []byte(`{"App":"\xff","Threads":2,"Ways":4096,"Samples":[{"Interval":-1,"Threads":[{"ActiveCycles":18446744073709551615},{}]}]}`))

	f.Fuzz(func(t *testing.T, data, payload []byte) {
		svc := New(Options{})
		for _, env := range [][]byte{data, checkpoint.Seal(payload)} {
			var b Batch
			if UnsealJSON(env, &b) != nil {
				continue
			}
			sealed, err := SealJSON(b)
			if err != nil {
				t.Fatalf("SealJSON of a decoded batch: %v", err)
			}
			var back Batch
			if err := UnsealJSON(sealed, &back); err != nil {
				t.Fatalf("UnsealJSON of a sealed batch: %v", err)
			}
			if !reflect.DeepEqual(back, b) {
				t.Fatalf("round trip changed the batch:\n got %+v\nwant %+v", back, b)
			}
			if r := svc.Ingest(b); r.Rejected == "" && r.Accepted != len(b.Samples) {
				t.Fatalf("accepted %d of %d samples without a rejection", r.Accepted, len(b.Samples))
			}
			svc.Tick(0)
		}
	})
}

// FuzzWatchQuery feeds arbitrary query strings to the /alloc long-poll
// parameter parsing. It must never panic; an accepted query waits for
// a positive duration no longer than maxWatchWait, and its epoch is
// the decimal ?epoch= (0 when absent).
func FuzzWatchQuery(f *testing.F) {
	f.Add("app=web-01&watch=1&epoch=0")
	f.Add("watch=1&epoch=7&timeout=50ms")
	f.Add("watch=1&epoch=banana")
	f.Add("watch=1&epoch=18446744073709551616")
	f.Add("watch=1&timeout=-1s")
	f.Add("watch=1&timeout=1000h&epoch=%zz")

	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw)
		since, wait, err := parseWatchQuery(q)
		if err != nil {
			return
		}
		if wait <= 0 || wait > maxWatchWait {
			t.Fatalf("wait %v outside (0, %v]", wait, maxWatchWait)
		}
		want := uint64(0)
		if ev := q.Get("epoch"); ev != "" {
			if want, err = strconv.ParseUint(ev, 10, 64); err != nil {
				t.Fatalf("accepted epoch %q: %v", ev, err)
			}
		}
		if since != want {
			t.Fatalf("epoch %d, want %d", since, want)
		}
		if tv := q.Get("timeout"); tv == "" && wait != defaultWatchWait {
			t.Fatalf("wait %v without a timeout, want %v", wait, defaultWatchWait)
		}
	})
}

// FuzzLoadShardManifest feeds arbitrary bytes to Sharded.LoadCheckpoint
// as the manifest file, next to the shard files a real 4-shard save
// wrote. The bytes are written either as-is or sealed, so the gob
// decoding behind the envelope CRC sees arbitrary input too. Restoring
// into a service of 1 to 8 shards must succeed or return an error,
// never panic.
func FuzzLoadShardManifest(f *testing.F) {
	src := f.TempDir()
	const name = "sh.ckpt"
	four := NewSharded(Options{}, 4, 1)
	for i, app := range []string{"web-01", "web-02", "db-01", "batch-07"} {
		four.Ingest(mkBatch(app, 2, 8, 2, uint64(i)))
	}
	four.Tick(0)
	if err := four.SaveCheckpoint(filepath.Join(src, name)); err != nil {
		f.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(src, name))
	if err != nil {
		f.Fatal(err)
	}
	payload, err := checkpoint.Unseal(manifest)
	if err != nil {
		f.Fatal(err)
	}
	// A single-shard save writes the plain pre-shard format.
	one := NewSharded(Options{}, 1, 1)
	one.Ingest(mkBatch("web-01", 2, 8, 2, 0))
	one.Tick(0)
	plainPath := filepath.Join(f.TempDir(), name)
	if err := one.SaveCheckpoint(plainPath); err != nil {
		f.Fatal(err)
	}
	plain, err := os.ReadFile(plainPath)
	if err != nil {
		f.Fatal(err)
	}
	shardFiles, err := filepath.Glob(filepath.Join(src, name+".*"))
	if err != nil || len(shardFiles) != 4 {
		f.Fatalf("want 4 shard files, got %v (%v)", shardFiles, err)
	}
	shards := make(map[string][]byte, len(shardFiles))
	for _, p := range shardFiles {
		if shards[filepath.Base(p)], err = os.ReadFile(p); err != nil {
			f.Fatal(err)
		}
	}

	f.Add(manifest, false, uint8(4))
	f.Add(manifest, false, uint8(2))
	f.Add(payload, true, uint8(4))
	f.Add(payload[:len(payload)/2], true, uint8(4))
	f.Add(plain, false, uint8(1))
	f.Add(plain, false, uint8(4))
	f.Add([]byte(nil), true, uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, seal bool, n uint8) {
		dir := t.TempDir()
		for base, b := range shards {
			if err := os.WriteFile(filepath.Join(dir, base), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if seal {
			data = checkpoint.Seal(data)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		NewSharded(Options{}, 1+int(n%8), 1).LoadCheckpoint(path)
	})
}
