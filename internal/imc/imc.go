// Package imc models the processor's integrated memory controller: one
// Channel per memory channel, each with a shared data bus and an
// ADR-protected write pending queue (WPQ).
//
// Stores become persistent the moment they are accepted into the WPQ
// (Section 2.1.1: the ADR domain includes the WPQs but not the caches), so
// Channel.PostWrite returns both the acceptance time — what sfence waits
// for — and the drain time at which the entry's slot frees.
package imc

import (
	"optanestudy/internal/dimm"
	"optanestudy/internal/sim"
)

// ChannelConfig holds per-channel timing and queue parameters.
type ChannelConfig struct {
	// BusTime is the data-bus occupancy of one 64 B transfer
	// (≈3.5 ns → ~18 GB/s per channel).
	BusTime sim.Time
	// WPQEntries is the write pending queue capacity in 64 B entries.
	WPQEntries int
}

// DefaultChannelConfig returns the calibrated channel parameters.
func DefaultChannelConfig() ChannelConfig {
	return ChannelConfig{
		BusTime:    3500 * sim.Picosecond,
		WPQEntries: 24,
	}
}

// Channel is one memory channel: a bus shared by the DIMMs on it, plus a
// WPQ per attached DIMM (the iMC maintains separate read/write pending
// queues for each DIMM).
type Channel struct {
	cfg ChannelConfig
	bus sim.Server

	wpqs []wpqState // one per attached DIMM, in first-use order
}

// wpqState is one DIMM's WPQ. Entries drain in FIFO order, so drains
// holds nondecreasing times and its head is always the next slot to free.
type wpqState struct {
	d         dimm.DIMM
	drains    sim.Queue[sim.Time] // drain times of the entries in flight
	lastDrain sim.Time
	occ       sim.Time // entry residency: Σ (drain − accept)
	stall     sim.Time // admission stall: Σ (accept − post)
}

// NewChannel returns a channel with the given configuration.
func NewChannel(cfg ChannelConfig) *Channel {
	if cfg.WPQEntries < 1 {
		cfg.WPQEntries = 1
	}
	return &Channel{cfg: cfg}
}

// wpq returns d's queue state, found by identity: a channel carries two
// DIMMs, so a scan beats hashing the interface. The pointer is valid
// until the next call.
func (c *Channel) wpq(d dimm.DIMM) *wpqState {
	for i := range c.wpqs {
		if c.wpqs[i].d == d {
			return &c.wpqs[i]
		}
	}
	c.wpqs = append(c.wpqs, wpqState{d: d})
	return &c.wpqs[len(c.wpqs)-1]
}

// Read performs a 64 B read of the given DIMM starting at time t and
// returns the time the data arrives back at the iMC.
func (c *Channel) Read(t sim.Time, d dimm.DIMM, addr int64) sim.Time {
	ready := d.ReadLine(t, addr)
	// The response occupies the shared channel bus.
	_, end := c.bus.Acquire(ready, c.cfg.BusTime)
	return end
}

// PostWrite enqueues a 64 B write. It returns the WPQ acceptance time (the
// persistence point inside the ADR domain) and the drain time at which the
// WPQ entry frees. The WPQ drains strictly in FIFO order, so one slow entry
// head-of-line blocks everything behind it — the Section 5.3 effect.
func (c *Channel) PostWrite(t sim.Time, d dimm.DIMM, addr int64) (accepted, drained sim.Time) {
	w := c.wpq(d)
	// A full queue accepts when a slot frees: when entry n−WPQEntries
	// (0 is the oldest) drains. Drains are in order, so that entry is the
	// same before and after the drained ones are popped.
	accepted = t
	if n := w.drains.Len(); n >= c.cfg.WPQEntries {
		accepted = max(t, w.drains.At(n-c.cfg.WPQEntries))
	}
	for w.drains.Len() > 0 && w.drains.At(0) <= accepted {
		w.drains.Pop()
	}
	w.stall += accepted - t
	_, busEnd := c.bus.Acquire(accepted, c.cfg.BusTime)
	// FIFO drain: no entry passes its predecessor.
	drained = max(d.WriteLine(busEnd, addr), w.lastDrain)
	w.lastDrain = drained
	if drained > accepted {
		w.occ += drained - accepted
	}
	w.drains.Push(drained)
	return accepted, drained
}

// WPQOccupancyTime reports a DIMM's cumulative WPQ entry-residency
// (utilization accounting; divide by WPQEntries × elapsed for the mean
// fill fraction).
func (c *Channel) WPQOccupancyTime(d dimm.DIMM) sim.Time {
	return c.wpq(d).occ
}

// WPQStallTime reports a DIMM's cumulative admission-stall time: how long
// posting stores sat blocked on a full WPQ before acceptance (the
// persistence point). A rising stall fraction is the earliest signal of a
// write-saturated DIMM — it appears before end-to-end latency moves.
func (c *Channel) WPQStallTime(d dimm.DIMM) sim.Time {
	return c.wpq(d).stall
}
