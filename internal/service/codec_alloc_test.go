//go:build !race

package service_test

import (
	"path/filepath"
	"testing"

	"intracache/internal/service"
)

// maxLoadAllocs bounds the allocations of restoring the perfbench
// partitiond fleet (1024 apps, 8 warm steps). The binary codec measured
// 57,544, the read and Restore included; the gob codec before it made
// 160,794.
const maxLoadAllocs = 62_000

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
