package dimm

import (
	"math/bits"

	"optanestudy/internal/mem"
	"optanestudy/internal/sim"
)

// XPDIMM models one 3D XPoint DIMM: the XPController front end, the
// write-combining XPBuffer, the AIT, and the media behind them.
type XPDIMM struct {
	cfg XPConfig
	rng *sim.RNG

	media    mediaServer
	buf      xpBuffer
	streams  streamTracker
	ait      *AIT
	wear     *wearModel
	counters Counters
}

// NewXPDIMM constructs a DIMM with the given configuration.
func NewXPDIMM(cfg XPConfig) *XPDIMM {
	d := &XPDIMM{
		cfg: cfg,
		rng: sim.NewRNG(cfg.Seed),
		ait: NewAIT(),
	}
	d.media.turnaround = cfg.Turnaround
	d.buf.init(cfg.BufferLines)
	d.streams.init(cfg.StreamWindow)
	d.wear = newWearModel(cfg.Wear)
	return d
}

// Kind implements DIMM.
func (d *XPDIMM) Kind() Kind { return KindXP }

// Counters implements DIMM.
func (d *XPDIMM) Counters() *Counters { return &d.counters }

// AIT returns the DIMM's address indirection table.
func (d *XPDIMM) AIT() *AIT { return d.ait }

// mediaServer is the 3D XPoint array. Reads are prioritized over the write
// backlog (the iMC schedules the RPQ ahead of the WPQ), so reads queue only
// behind other reads — but they steal array capacity from writes, and
// switching directions costs a turnaround on the write pipeline.
type mediaServer struct {
	read       sim.Server
	write      sim.Server
	turnaround sim.Time
	lastWrite  bool
	started    bool
}

func (m *mediaServer) acquire(t, occ sim.Time, write bool) (start, end sim.Time) {
	if m.started && m.lastWrite != write && write {
		occ += m.turnaround
	}
	m.started = true
	m.lastWrite = write
	if write {
		return m.write.Acquire(t, occ)
	}
	start, end = m.read.Acquire(t, occ)
	// The array is one resource: read service consumes write-side capacity.
	m.write.Acquire(start, occ)
	return start, end
}

// mediaRead fetches one XPLine; returns when data is available.
func (d *XPDIMM) mediaRead(t sim.Time, line int64) sim.Time {
	d.counters.MediaReadBytes += mem.XPLine
	_, end := d.media.acquire(t, d.cfg.MediaReadOccupancy, false)
	return end + d.cfg.MediaReadLatency
}

// mediaWrite commits one XPLine; returns the completion time. useful is the
// number of new bytes carried (for EWR accounting); rmw indicates the write
// required reading the line first.
func (d *XPDIMM) mediaWrite(t sim.Time, line int64, useful int, rmw bool) sim.Time {
	occ := d.cfg.MediaWriteOccupancy
	if rmw {
		// Fetch the remainder of the line before overwriting it.
		d.counters.MediaReadBytes += mem.XPLine
		occ += d.cfg.MediaReadOccupancy
	}
	d.counters.MediaWriteBytes += mem.XPLine
	if useful < mem.XPLine {
		d.counters.PartialWrites++
	}
	phys := d.ait.Translate(line)
	if stall, ok := d.wear.onWrite(t, phys, d.rng); ok {
		// Wear-leveling migration: the controller copies the line to a
		// fresh physical location and updates the AIT, stalling the media.
		occ += stall
		d.ait.Remap(line)
		d.counters.Remaps++
	}
	_, end := d.media.acquire(t, occ, true)
	return end
}

// ReadLine implements DIMM. A hit in the XPBuffer is served at controller
// speed; a miss fetches the whole XPLine from media into the buffer
// (which is why sequential reads are cheap: one miss loads data for the
// next three cache lines).
func (d *XPDIMM) ReadLine(t sim.Time, addr int64) sim.Time {
	d.counters.CtrlReadBytes += mem.CacheLine
	line := mem.XPLineAddr(addr)
	if s := d.buf.lookup(line); s >= 0 {
		d.counters.BufferHits++
		d.buf.touch(s)
		return t + d.cfg.CtrlTime
	}
	d.counters.BufferMisses++
	done := d.mediaRead(t, line)
	// Cache the fetched XPLine if a slot is free (possibly by dropping a
	// clean victim); when the buffer is saturated with write-backs the
	// read bypasses it (read-around) rather than stalling behind writes.
	if s := d.tryAllocate(t, line); s >= 0 {
		d.buf.slots[s].valid = true
	}
	return done + d.cfg.CtrlTime
}

// tryAllocate claims a slot without waiting, or returns -1: it succeeds
// if a slot is free or a clean victim can be dropped.
func (d *XPDIMM) tryAllocate(t sim.Time, line int64) int32 {
	if d.buf.full(t) {
		v := d.buf.lruClean()
		if v < 0 {
			return -1
		}
		d.buf.remove(v)
	}
	return d.buf.insert(line)
}

// WriteLine implements DIMM. Returns when the 64 B chunk has been ingested
// into the XPBuffer (persistent: the buffer is inside the ADR domain), at
// which point the WPQ entry frees.
func (d *XPDIMM) WriteLine(t sim.Time, addr int64) sim.Time {
	d.counters.CtrlWriteBytes += mem.CacheLine
	line := mem.XPLineAddr(addr)
	chunk := uint8(1) << uint((addr-line)/mem.CacheLine)

	if s := d.buf.lookup(line); s >= 0 {
		d.counters.BufferHits++
		d.buf.write(s, chunk)
		d.maybeComplete(t, s)
		return t + d.cfg.IngestTime
	}
	d.counters.BufferMisses++

	// Write-stream pressure: with more concurrent write streams than
	// combining engines, the controller may close another stream's
	// partially-filled line early (see DESIGN.md).
	active := d.streams.observe(line)
	if over := active - d.cfg.StreamEngines; over > 0 {
		p := d.cfg.StreamPressure * float64(over) / float64(active)
		if d.rng.Bool(p) {
			if v := d.buf.lruDirty(); v >= 0 {
				d.counters.EarlyCloses++
				d.evict(t, v)
			}
		}
	}

	s, ready := d.allocate(t, line)
	d.buf.write(s, chunk)
	d.maybeComplete(ready, s)
	return ready + d.cfg.IngestTime
}

// maybeComplete eagerly writes back a line whose four chunks are all dirty:
// a fully-assembled XPLine streams straight to media, keeping sequential
// EWR at 1.0.
func (d *XPDIMM) maybeComplete(t sim.Time, s int32) {
	if d.buf.slots[s].dirty == 0xF {
		d.evict(t, s)
	}
}

// evict removes slot s from the live set. Dirty contents are written to
// media (RMW if partial and the line's old contents are not buffered); the
// slot stays occupied until the media write completes. Clean entries free
// immediately.
func (d *XPDIMM) evict(t sim.Time, s int32) {
	e := d.buf.slots[s]
	d.buf.remove(s)
	if e.dirty == 0 {
		return
	}
	useful := bits.OnesCount8(e.dirty) * mem.CacheLine
	rmw := e.dirty != 0xF && !e.valid
	end := d.mediaWrite(t, e.line, useful, rmw)
	d.buf.inflight.Push(end)
}

// allocate obtains a buffer slot for line, evicting and waiting as
// necessary. It returns the new slot and the time it became available.
//
// Victim policy: drop the LRU clean entry if one exists (free); otherwise
// wait for an in-flight media writeback to release its slot rather than
// splitting a partially-combined line; only when the buffer is entirely
// dirty partial lines with nothing in flight — genuine capacity pressure,
// the Figure 10 regime — is the LRU dirty line force-evicted.
func (d *XPDIMM) allocate(t sim.Time, line int64) (int32, sim.Time) {
	if d.buf.full(t) {
		if v := d.buf.lruClean(); v >= 0 {
			d.buf.remove(v)
		} else if d.buf.inflight.Len() == 0 {
			if v := d.buf.lruDirty(); v >= 0 {
				d.evict(t, v)
			}
		}
		// Wait for the oldest in-flight writeback if still full. This is
		// the backpressure that ultimately throttles WPQ drain to media
		// speed.
		for d.buf.full(t) {
			if d.buf.inflight.Len() == 0 {
				panic("dimm: buffer full with no evictable entries")
			}
			t = max(t, d.buf.inflight.At(0))
		}
	}
	return d.buf.insert(line), t
}
