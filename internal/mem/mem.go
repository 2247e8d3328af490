// Package mem provides a simple DRAM timing model: line-interleaved
// banks, an open-row (row-buffer) policy, and per-bank service queues.
//
// The paper's simulator charges a flat memory latency per L2 miss, and
// this repository's default configuration does the same (see
// sim.Params.MemCycles) to keep calibration simple. The bank model is
// an optional substrate for sensitivity studies: with it enabled, L2
// misses from different threads contend for banks, row-buffer hits are
// cheaper than row conflicts, and memory latency becomes workload-
// dependent — closer to the behaviour of the real machines the paper's
// CPI measurements came from.
package mem

import (
	"fmt"
	"math/bits"
)

// Config describes the DRAM geometry and timing.
type Config struct {
	// Banks is the number of independent banks (power of two).
	Banks int
	// InterleaveBytes sets the address-interleaving granularity across
	// banks (power of two; typically the cache line size).
	InterleaveBytes int
	// RowBytes is the row-buffer size per bank (power of two).
	RowBytes int
	// RowHitCycles is the latency of an access that hits the open row.
	RowHitCycles uint64
	// RowMissCycles is the latency of an access that must close the
	// open row and activate a new one.
	RowMissCycles uint64
	// BusyCycles is how long an access occupies the bank (back-to-back
	// accesses to one bank serialise at this granularity).
	BusyCycles uint64
}

// DefaultConfig returns a small, plausible DRAM: 8 banks, 64 B
// interleave, 2 KiB rows, 60/140-cycle row hit/miss, 30-cycle
// occupancy.
func DefaultConfig() Config {
	return Config{
		Banks:           8,
		InterleaveBytes: 64,
		RowBytes:        2048,
		RowHitCycles:    60,
		RowMissCycles:   140,
		BusyCycles:      30,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Banks <= 0 || bits.OnesCount(uint(c.Banks)) != 1:
		return fmt.Errorf("mem: Banks %d must be a positive power of two", c.Banks)
	case c.InterleaveBytes <= 0 || bits.OnesCount(uint(c.InterleaveBytes)) != 1:
		return fmt.Errorf("mem: InterleaveBytes %d must be a positive power of two", c.InterleaveBytes)
	case c.RowBytes <= 0 || bits.OnesCount(uint(c.RowBytes)) != 1:
		return fmt.Errorf("mem: RowBytes %d must be a positive power of two", c.RowBytes)
	case c.RowHitCycles == 0 || c.RowMissCycles == 0:
		return fmt.Errorf("mem: zero latency")
	case c.RowMissCycles < c.RowHitCycles:
		return fmt.Errorf("mem: RowMissCycles %d < RowHitCycles %d", c.RowMissCycles, c.RowHitCycles)
	}
	return nil
}

// Stats holds cumulative DRAM counters.
type Stats struct {
	Accesses    uint64
	RowHits     uint64
	RowMisses   uint64
	QueueCycles uint64 // cycles spent waiting for a busy bank
}

// bank is one DRAM bank's state.
type bank struct {
	openRow   uint64
	rowValid  bool
	busyUntil uint64
}

// Model is a DRAM with per-bank open-row state. Not safe for
// concurrent use; the simulator serialises accesses in cycle order.
type Model struct {
	cfg   Config
	banks []bank
	stats Stats

	interleaveBits uint
	bankMask       uint64
	rowBits        uint
}

// New builds a model.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{
		cfg:            cfg,
		banks:          make([]bank, cfg.Banks),
		interleaveBits: uint(bits.TrailingZeros(uint(cfg.InterleaveBytes))),
		bankMask:       uint64(cfg.Banks - 1),
		rowBits:        uint(bits.TrailingZeros(uint(cfg.RowBytes))),
	}, nil
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// Stats returns the cumulative counters.
func (m *Model) Stats() Stats { return m.stats }

// Access services one memory access to addr issued at cycle `now` and
// returns its total latency (queueing plus service). Bank state
// advances: the access occupies its bank for BusyCycles starting when
// the bank frees up.
func (m *Model) Access(addr uint64, now uint64) uint64 {
	b := &m.banks[(addr>>m.interleaveBits)&m.bankMask]
	row := addr >> m.rowBits

	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	queue := start - now
	m.stats.QueueCycles += queue

	var service uint64
	if b.rowValid && b.openRow == row {
		service = m.cfg.RowHitCycles
		m.stats.RowHits++
	} else {
		service = m.cfg.RowMissCycles
		m.stats.RowMisses++
	}
	b.openRow = row
	b.rowValid = true
	b.busyUntil = start + m.cfg.BusyCycles
	m.stats.Accesses++
	return queue + service
}

// Reset clears bank state and statistics.
func (m *Model) Reset() {
	for i := range m.banks {
		m.banks[i] = bank{}
	}
	m.stats = Stats{}
}
