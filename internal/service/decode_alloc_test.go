//go:build !race

// The race detector makes sync.Pool drop items at random, so the
// scanner's allocation count is pinned only without it.

package service

import (
	"encoding/json"
	"testing"
)

// TestDecodeBatchAllocs pins the ingest scanner's cost: a canonical
// 2-sample × 4-thread batch costs one allocation each for the App
// string, Samples and the shared threads array (encoding/json: 19).
func TestDecodeBatchAllocs(t *testing.T) {
	payload, err := json.Marshal(mkBatch("web-01", 4, 16, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var b Batch
		if err := decodeBatch(payload, &b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("decodeBatch of a 2-sample x 4-thread batch: %v allocs, want <= 4", allocs)
	}
}
