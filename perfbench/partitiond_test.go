package main

import (
	"context"
	"testing"
	"time"
)

// TestPartitiondUnitMatchesReference drives one closed-loop unit over
// HTTP and checks that every app's final state equals the reference
// service's, that nothing failed, and that the stack shuts down.
func TestPartitiondUnitMatchesReference(t *testing.T) {
	f, err := prepareFleet(3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	client := newClient()
	defer client.CloseIdleConnections()
	u, ls, err := runUnit(f, t.TempDir(), &svcTrace{}, client)
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.close(); err != nil {
		t.Fatal(err)
	}
	if u.failed != 0 {
		t.Errorf("%d of %d posts failed", u.failed, u.attempted)
	}
	if u.digest != f.want {
		t.Errorf("unit digest %s, reference %s", u.digest, f.want)
	}
	if got, want := ls.processed.Load(), f.samples; got != want {
		t.Errorf("decided %d samples, unit holds %d", got, want)
	}
}

// TestWatchersSeeDecisions checks the open-loop phase's watch path: a
// watcher of an app whose allocation changes records a wake for the
// tick that changed it.
func TestWatchersSeeDecisions(t *testing.T) {
	f, err := prepareFleet(5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	client := newClient()
	defer client.CloseIdleConnections()
	ls, err := startServer(f, t.TempDir(), &svcTrace{}, client, loadTick)
	if err != nil {
		t.Fatal(err)
	}
	apps := []string{f.apps[0], f.apps[watchEvery]}
	ctx, cancel := context.WithCancel(context.Background())
	wait := watchApps(ctx, ls.be, apps)
	cursor := 0
	out := ls.openLoop(f, client, 2000, 500*time.Millisecond, apps, &cursor)
	derr := ls.drain()
	cancel()
	wakes := wait()
	if err := ls.close(); err != nil {
		t.Fatal(err)
	}
	if derr != nil {
		t.Fatal(derr)
	}
	if out.failed != 0 || out.attempted != 1000 {
		t.Errorf("open loop: %d of %d requests failed, want 0 of 1000", out.failed, out.attempted)
	}
	if len(wakes) == 0 {
		t.Fatal("no watcher woke")
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for _, w := range wakes {
		if _, ok := ls.ticks[w.tick]; !ok {
			t.Errorf("wake for tick %d, which the ticker never recorded", w.tick)
		}
	}
}
