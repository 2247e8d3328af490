package service

import (
	"net/url"
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
