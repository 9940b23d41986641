// Package dimm models the two kinds of memory modules on the platform's
// channels: Intel Optane DC ("3D XPoint") DIMMs and conventional DDR4 DRAM
// DIMMs.
//
// The 3D XPoint model implements the on-DIMM controller described in
// Section 2.1 of the paper: the XPController with its ~16 KB write-combining
// XPBuffer (inside the ADR persistence domain), the address indirection
// table (AIT) used for wear leveling, and 3D XPoint media accessed in 256 B
// XPLines. Small stores become read-modify-write operations; the Effective
// Write Ratio (EWR) — iMC bytes over media bytes — emerges from the buffer
// dynamics and is exported through Counters.
package dimm

import (
	"fmt"

	"optanestudy/internal/sim"
)

// Kind distinguishes module types.
type Kind int

// Module kinds.
const (
	KindDRAM Kind = iota
	KindXP
)

// DIMM is a memory module attached to one channel. The iMC calls ReadLine
// for 64 B reads and WriteLine when a 64 B write drains from the WPQ. Calls
// arrive in the order the simulated threads make them, not in time order:
// a thread walks a multi-line access on its own clock, so a call may be
// dated before one already made (over the neutrality guard's sweep, 5.3 %
// of WPQ posts are dated before a post already made to the same DIMM). A
// module serves its calls in call order, as sim.Server does; the causal
// device model planned in ROADMAP.md makes service follow time order.
type DIMM interface {
	// ReadLine performs a 64 B read beginning service at time t and returns
	// the time data is ready at the DIMM pins.
	ReadLine(t sim.Time, addr int64) sim.Time
	// WriteLine ingests a 64 B write at time t and returns the time the
	// corresponding WPQ entry can be released (the DIMM accepted the data
	// into its persistent domain).
	WriteLine(t sim.Time, addr int64) sim.Time
	// Kind reports the module type.
	Kind() Kind
	// Counters returns the module's hardware counters.
	Counters() *Counters
}

// Counters mirrors the DIMM hardware counters the paper reads: bytes moved
// on the DDR-T/DDR4 interface versus bytes moved to and from the media.
type Counters struct {
	CtrlReadBytes   int64 // 64 B reads received from the iMC
	CtrlWriteBytes  int64 // 64 B writes received from the iMC
	MediaReadBytes  int64 // bytes read from media (XPLine granularity)
	MediaWriteBytes int64 // bytes written to media (XPLine granularity)

	BufferHits    int64 // XPBuffer hits (reads and writes)
	BufferMisses  int64 // XPBuffer misses
	PartialWrites int64 // media writes carrying under one XPLine of new data
	EarlyCloses   int64 // partial lines closed by write-stream pressure
	Remaps        int64 // wear-leveling migrations
}

// EWR returns the Effective Write Ratio: bytes issued by the iMC divided by
// bytes written to media (the inverse of write amplification). Returns 1
// when no media writes occurred.
func (c *Counters) EWR() float64 {
	if c.MediaWriteBytes == 0 {
		return 1
	}
	return float64(c.CtrlWriteBytes) / float64(c.MediaWriteBytes)
}

// WriteAmplification returns media bytes written per byte issued, the
// inverse of EWR.
func (c *Counters) WriteAmplification() float64 {
	if c.CtrlWriteBytes == 0 {
		return 1
	}
	return float64(c.MediaWriteBytes) / float64(c.CtrlWriteBytes)
}

// Sub returns c - o, for measuring deltas over an experiment window.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		CtrlReadBytes:   c.CtrlReadBytes - o.CtrlReadBytes,
		CtrlWriteBytes:  c.CtrlWriteBytes - o.CtrlWriteBytes,
		MediaReadBytes:  c.MediaReadBytes - o.MediaReadBytes,
		MediaWriteBytes: c.MediaWriteBytes - o.MediaWriteBytes,
		BufferHits:      c.BufferHits - o.BufferHits,
		BufferMisses:    c.BufferMisses - o.BufferMisses,
		PartialWrites:   c.PartialWrites - o.PartialWrites,
		EarlyCloses:     c.EarlyCloses - o.EarlyCloses,
		Remaps:          c.Remaps - o.Remaps,
	}
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.CtrlReadBytes += o.CtrlReadBytes
	c.CtrlWriteBytes += o.CtrlWriteBytes
	c.MediaReadBytes += o.MediaReadBytes
	c.MediaWriteBytes += o.MediaWriteBytes
	c.BufferHits += o.BufferHits
	c.BufferMisses += o.BufferMisses
	c.PartialWrites += o.PartialWrites
	c.EarlyCloses += o.EarlyCloses
	c.Remaps += o.Remaps
}

// String summarizes the counters, including the XPBuffer dynamics
// (hits/misses, partial writes, early closes) that drive the EWR.
func (c *Counters) String() string {
	return fmt.Sprintf("ctrlR=%d ctrlW=%d mediaR=%d mediaW=%d EWR=%.3f hits=%d misses=%d partial=%d earlyClose=%d remaps=%d",
		c.CtrlReadBytes, c.CtrlWriteBytes, c.MediaReadBytes, c.MediaWriteBytes, c.EWR(),
		c.BufferHits, c.BufferMisses, c.PartialWrites, c.EarlyCloses, c.Remaps)
}
