package service

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestDecodeBatchCanonical pins which payloads take the scanner rather
// than the encoding/json fallback: json.Marshal output, the same with
// indentation, and its keys in any order with fields left out.
func TestDecodeBatchCanonical(t *testing.T) {
	want := mkBatch("web-01", 4, 16, 2, 3)
	payload, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	reordered := []byte(`{"Samples":[{"Threads":[{"L2Misses":1},{},{},{}],"Interval":2}],"Ways":16,"Threads":4,"App":"web-01"}`)
	for _, p := range [][]byte{payload, indented, reordered} {
		var b Batch
		if s := (batchScanner{buf: p}); !s.decode(&b) {
			t.Fatalf("scanner fell back on %s", p)
		}
	}
	var got Batch
	if err := decodeBatch(payload, &got); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeBatch: err %v\n got %+v\nwant %+v", err, got, want)
	}
}

// TestDecodeBatchConcurrent decodes from several goroutines at once,
// each cycling through batches of different shapes: the scanners and
// their scratch come from a pool, and no decoded batch may share
// memory with a scratch that a later decode reuses.
func TestDecodeBatchConcurrent(t *testing.T) {
	var (
		wants    []Batch
		payloads [][]byte
	)
	for g := 0; g < 4; g++ {
		want := mkBatch(fmt.Sprintf("app-%d", g), 1+g, 16, 2+g, uint64(g))
		payload, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		wants, payloads = append(wants, want), append(payloads, payload)
	}
	var wg sync.WaitGroup
	for g := range payloads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var kept []Batch
			for i := 0; i < 200; i++ {
				var b Batch
				if err := decodeBatch(payloads[(g+i)%len(payloads)], &b); err != nil {
					t.Error(err)
					return
				}
				kept = append(kept, b)
			}
			for i, b := range kept {
				if want := wants[(g+i)%len(wants)]; !reflect.DeepEqual(b, want) {
					t.Errorf("decoded batch changed after later decodes:\n got %+v\nwant %+v", b, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
