package mem

import (
	"testing"
	"testing/quick"

	"intracache/internal/xrand"
)

func mustNew(t *testing.T, cfg Config) *Model {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mod := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	bad := map[string]Config{
		"banks=0":      mod(func(c *Config) { c.Banks = 0 }),
		"banks=3":      mod(func(c *Config) { c.Banks = 3 }),
		"interleave":   mod(func(c *Config) { c.InterleaveBytes = 100 }),
		"rowbytes":     mod(func(c *Config) { c.RowBytes = 0 }),
		"zero latency": mod(func(c *Config) { c.RowHitCycles = 0 }),
		"miss<hit":     mod(func(c *Config) { c.RowMissCycles = 10 }),
	}
	for name, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted zero config")
	}
}

func TestRowHitAfterMiss(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	cfg := m.Config()
	// First access: row miss.
	lat := m.Access(0, 0)
	if lat != cfg.RowMissCycles {
		t.Errorf("first access latency %d, want %d", lat, cfg.RowMissCycles)
	}
	// Same row, after the bank frees: row hit.
	lat = m.Access(8, 1_000_000)
	if lat != cfg.RowHitCycles {
		t.Errorf("same-row latency %d, want %d", lat, cfg.RowHitCycles)
	}
	st := m.Stats()
	if st.RowHits != 1 || st.RowMisses != 1 || st.Accesses != 2 {
		t.Errorf("stats %+v", st)
	}
}

func TestRowConflict(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	cfg := m.Config()
	m.Access(0, 0)
	// Different row, same bank (add Banks*InterleaveBytes*k to stay in
	// bank 0, cross a row boundary).
	far := uint64(cfg.RowBytes) * uint64(cfg.Banks)
	lat := m.Access(far, 1_000_000)
	if lat != cfg.RowMissCycles {
		t.Errorf("row conflict latency %d, want %d", lat, cfg.RowMissCycles)
	}
}

func TestBankQueueing(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	cfg := m.Config()
	m.Access(0, 0) // bank 0 busy until BusyCycles
	// Immediate second access to bank 0 must queue.
	lat := m.Access(0, 1)
	wantQueue := cfg.BusyCycles - 1
	if lat != wantQueue+cfg.RowHitCycles {
		t.Errorf("queued latency %d, want %d", lat, wantQueue+cfg.RowHitCycles)
	}
	if got := m.Stats().QueueCycles; got != wantQueue {
		t.Errorf("queue cycles %d, want %d", got, wantQueue)
	}
}

func TestDifferentBanksNoQueueing(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	cfg := m.Config()
	m.Access(0, 0)
	// Next line maps to bank 1: no queueing.
	lat := m.Access(uint64(cfg.InterleaveBytes), 1)
	if lat != cfg.RowMissCycles {
		t.Errorf("cross-bank latency %d, want %d", lat, cfg.RowMissCycles)
	}
	if m.Stats().QueueCycles != 0 {
		t.Error("cross-bank access queued")
	}
}

func TestSequentialStreamMostlyRowHits(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	cfg := m.Config()
	now := uint64(0)
	for i := 0; i < 1024; i++ {
		addr := uint64(i) * uint64(cfg.InterleaveBytes)
		now += m.Access(addr, now)
	}
	// With line interleaving across 8 banks and 2 KiB rows, each bank
	// sees every 8th line: 4 accesses per row per bank, so the ideal
	// sequential hit rate is exactly 3/4.
	if rate := rowHitRate(m.Stats()); rate < 0.7 {
		t.Errorf("sequential stream row-hit rate %.2f, want >= 0.7", rate)
	}
}

func TestRandomStreamMostlyRowMisses(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	r := xrand.New(7)
	now := uint64(0)
	for i := 0; i < 4096; i++ {
		addr := uint64(r.Intn(1<<28)) &^ 63
		now += m.Access(addr, now)
	}
	if rate := rowHitRate(m.Stats()); rate > 0.2 {
		t.Errorf("random stream row-hit rate %.2f, want <= 0.2", rate)
	}
}

func TestReset(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	m.Access(0, 0)
	m.Reset()
	if m.Stats().Accesses != 0 {
		t.Error("stats survived Reset")
	}
	// After reset, the first access is a row miss again.
	if lat := m.Access(0, 0); lat != m.Config().RowMissCycles {
		t.Errorf("post-reset latency %d", lat)
	}
}

// rowHitRate is the fraction of accesses that hit an open row.
func rowHitRate(s Stats) float64 {
	return float64(s.RowHits) / float64(s.Accesses)
}

// Property: latency is never below the best service time, and hit/miss
// counts are conserved. (No upper bound: queue waits can stack when
// many accesses pile onto one bank.)
func TestQuickLatencyBounds(t *testing.T) {
	f := func(seed uint64) bool {
		m, err := New(DefaultConfig())
		if err != nil {
			return false
		}
		cfg := m.Config()
		r := xrand.New(seed)
		now := uint64(0)
		for i := 0; i < 2000; i++ {
			addr := uint64(r.Intn(1 << 24))
			lat := m.Access(addr, now)
			if lat < cfg.RowHitCycles {
				return false
			}
			now += 1 + uint64(r.Intn(50))
		}
		st := m.Stats()
		return st.RowHits+st.RowMisses == st.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAccess(b *testing.B) {
	m, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1 << 26))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Access(addrs[i&4095], uint64(i))
	}
}
