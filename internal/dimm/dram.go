package dimm

import (
	"optanestudy/internal/mem"
	"optanestudy/internal/sim"
)

// DRAMConfig holds the timing parameters of a DDR4 DRAM DIMM.
type DRAMConfig struct {
	// RowHit is the array access time when the target row is open.
	RowHit sim.Time
	// RowMiss is the access time on a row-buffer miss (precharge+activate).
	RowMiss sim.Time
	// WriteTime is the array time to retire a 64 B write.
	WriteTime sim.Time
	// Banks and RowBytes describe the bank/row-buffer geometry.
	Banks    int
	RowBytes int64

	// ExtraReadLatency models emulation platforms (PMEP adds ~300 ns).
	ExtraReadLatency sim.Time
	// WriteOccupancy throttles writes at the DIMM (PMEP caps write
	// bandwidth at 1/8 of DRAM); zero means unthrottled.
	WriteOccupancy sim.Time
}

// DefaultDRAMConfig returns timings calibrated to the paper's Figure 2
// idle loads on the assembled platform (lattester.Catalog's
// dram_seq_read_ns and dram_rand_read_ns).
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{
		RowHit:    21 * sim.Nanosecond,
		RowMiss:   41 * sim.Nanosecond,
		WriteTime: 10 * sim.Nanosecond,
		Banks:     16,
		RowBytes:  8192,
	}
}

// PMEPDRAMConfig returns the DRAM configuration used to emulate Intel's
// Persistent Memory Emulator Platform: +300 ns load latency and write
// bandwidth throttled to 1/8 of DRAM (Section 4.1).
func PMEPDRAMConfig() DRAMConfig {
	cfg := DefaultDRAMConfig()
	cfg.ExtraReadLatency = 300 * sim.Nanosecond
	cfg.WriteOccupancy = 28 * sim.Nanosecond // 64 B / 28 ns ≈ 2.3 GB/s/channel
	return cfg
}

// DRAMDIMM models a DRAM DIMM with per-bank open-row tracking. DRAM
// bandwidth is bounded by the channel bus (modeled in the imc package), so
// the DIMM itself only contributes latency.
type DRAMDIMM struct {
	cfg      DRAMConfig
	openRow  []int64
	writeSrv sim.Server
	counters Counters
}

// NewDRAMDIMM constructs a DRAM DIMM.
func NewDRAMDIMM(cfg DRAMConfig) *DRAMDIMM {
	if cfg.Banks < 1 {
		cfg.Banks = 1
	}
	if cfg.RowBytes < mem.CacheLine {
		cfg.RowBytes = 8192
	}
	rows := make([]int64, cfg.Banks)
	for i := range rows {
		rows[i] = -1
	}
	return &DRAMDIMM{cfg: cfg, openRow: rows}
}

// Kind implements DIMM.
func (d *DRAMDIMM) Kind() Kind { return KindDRAM }

// Counters implements DIMM.
func (d *DRAMDIMM) Counters() *Counters { return &d.counters }

func (d *DRAMDIMM) rowAccess(addr int64) sim.Time {
	row := addr / d.cfg.RowBytes
	bank := int(row % int64(d.cfg.Banks))
	if d.openRow[bank] == row {
		return d.cfg.RowHit
	}
	d.openRow[bank] = row
	return d.cfg.RowMiss
}

// ReadLine implements DIMM.
func (d *DRAMDIMM) ReadLine(t sim.Time, addr int64) sim.Time {
	d.counters.CtrlReadBytes += mem.CacheLine
	d.counters.MediaReadBytes += mem.CacheLine
	return t + d.rowAccess(addr) + d.cfg.ExtraReadLatency
}

// WriteLine implements DIMM.
func (d *DRAMDIMM) WriteLine(t sim.Time, addr int64) sim.Time {
	d.counters.CtrlWriteBytes += mem.CacheLine
	d.counters.MediaWriteBytes += mem.CacheLine
	end := t + d.rowAccess(addr) + d.cfg.WriteTime
	if d.cfg.WriteOccupancy > 0 {
		_, end = d.writeSrv.Acquire(t, d.cfg.WriteOccupancy)
	}
	return end
}
