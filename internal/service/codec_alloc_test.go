//go:build !race

package service_test

import (
	"path/filepath"
	"testing"

	"intracache/internal/service"
)

// maxLoadAllocs bounds the allocations of restoring the perfbench
// partitiond fleet (1024 apps, 8 warm steps). Version 2 of the binary
// codec measured 37,941, the read and Restore included; version 1, with
// each session's decision log, 57,544; the gob codec before it 160,794.
const maxLoadAllocs = 41_000

func TestLoadCheckpointAllocs(t *testing.T) {
	_, svc := warmFleet(t, fleetConfig(1024), 8)
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	if err := svc.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := service.New(service.Options{}).LoadCheckpoint(path); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("LoadCheckpoint of the 1024-app fleet: %.0f allocations", allocs)
	if allocs > maxLoadAllocs {
		t.Errorf("LoadCheckpoint of the 1024-app fleet: %.0f allocations, want at most %d", allocs, maxLoadAllocs)
	}
}
