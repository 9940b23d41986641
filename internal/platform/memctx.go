package platform

import (
	"fmt"
	"math/bits"

	"optanestudy/internal/cache"
	"optanestudy/internal/dimm"
	"optanestudy/internal/mem"
	"optanestudy/internal/sim"
	"optanestudy/internal/topology"
)

// MemCtx is one simulated thread's view of memory: it issues the
// persistence ISA (loads, stores, ntstores, flushes, fences) against
// namespaces, advancing its proc's simulated clock according to the
// platform model.
//
// Persistence semantics mirror the ADR platform: a store is durable once
// posted to a WPQ (flush or ntstore); data sitting dirty in the cache or in
// a write-combining buffer is volatile and lost on Crash.
type MemCtx struct {
	p      *Platform
	proc   *sim.Proc
	socket int
	wc     *cache.WCBuffer

	windows []dimmWindow // per-DIMM WPQ windows, in first-use order

	pendingAck sim.Time
	hasPending bool

	loads   sim.Queue[sim.Time] // completion times of outstanding loads, in issue order
	loadMax sim.Time

	// rfoDone tracks when a store-miss's ownership read completes per
	// line: a write-back of that line cannot be posted earlier (the store
	// retires only once the line arrives). This is why store+clwb to cold
	// lines inherits the device's read latency (Section 5.2).
	rfoDone map[int64]sim.Time
}

// dimmWindow is a thread's WPQ window on one DIMM: the drain times of
// its un-drained tracked posts there, capped at StoreWindow (the paper's
// 256 B per-thread WPQ window). A thread touches few DIMMs, so a slice
// searched by identity beats hashing the interface.
type dimmWindow struct {
	d      dimm.DIMM
	drains *sim.Queue[sim.Time]
}

// Proc returns the owning simulated thread.
func (c *MemCtx) Proc() *sim.Proc { return c.proc }

// Socket returns the context's home socket.
func (c *MemCtx) Socket() int { return c.socket }

func (c *MemCtx) llc() *cache.LLC { return c.p.llcs[c.socket] }

func (c *MemCtx) remote(ns *Namespace) bool { return ns.Socket != c.socket }

func (c *MemCtx) ackTime(xp, remote bool) sim.Time {
	ack := c.p.cfg.AcceptAckDRAM
	if xp {
		ack = c.p.cfg.AcceptAckXP
	}
	if remote {
		ack += 2 * c.p.cfg.UPI.HopLatency
	}
	return ack
}

func (c *MemCtx) window(d dimm.DIMM) *sim.Queue[sim.Time] {
	for _, w := range c.windows {
		if w.d == d {
			return w.drains
		}
	}
	q := c.p.getWindow()
	c.windows = append(c.windows, dimmWindow{d: d, drains: q})
	return q
}

// recycle returns the context's per-DIMM windows to the platform pool once
// its thread has finished; later threads reuse the window storage instead
// of allocating fresh windows. Safe because procs run exclusively.
func (c *MemCtx) recycle() {
	for _, w := range c.windows {
		w.drains.Reset()
		c.p.windowPool = append(c.p.windowPool, w.drains)
	}
	c.windows = nil
}

func (c *MemCtx) resetPending() {
	c.pendingAck, c.hasPending = 0, false
	for _, w := range c.windows {
		w.drains.Reset()
	}
	c.loads.Reset()
	c.loadMax = 0
}

func checkRange(ns *Namespace, off int64, size int) {
	if size < 0 || off < 0 || off+int64(size) > ns.Size {
		panic(fmt.Sprintf("platform: access [%d,+%d) outside namespace %q (size %d)",
			off, size, ns.Name, ns.Size))
	}
}

// ---- Loads ----

// loadSlot obtains an MLP slot, returning the (possibly delayed) issue time.
func (c *MemCtx) loadSlot(t sim.Time) sim.Time {
	if c.loads.Len() >= c.p.cfg.MLP {
		if oldest := c.loads.Pop(); oldest > t {
			t = oldest
		}
	}
	return t
}

// chunkLoad issues one 64 B load at time t; returns issue-done time and
// data-ready time.
func (c *MemCtx) chunkLoad(ns *Namespace, lineOff int64, t sim.Time) (sim.Time, sim.Time) {
	g := ns.GlobalAddr(lineOff)
	llc := c.llc()
	if llc.Present(g) {
		return t + c.p.cfg.ChunkIssue, t + llc.HitLatency()
	}
	t = c.loadSlot(t)
	pos, local := ns.Resolve(lineOff)
	ch, d := c.p.channelOf(ns, pos), c.p.dimmOf(ns, pos)
	start := t
	extra := sim.Time(0)
	if c.remote(ns) {
		_, granted := c.p.home[ns.Socket].acquire(t, false, ns.Media == topology.MediaXP)
		start = granted
		extra = 2 * c.p.cfg.UPI.HopLatency
	}
	done := ch.Read(start, d, local) + c.p.cfg.LoadOverhead + extra
	c.loads.Push(done)
	if done > c.loadMax {
		c.loadMax = done
	}
	if victim, ok := llc.Insert(g); ok && victim.Dirty {
		c.writebackVictim(t, victim)
	}
	return t + c.p.cfg.ChunkIssue, done
}

// Load performs a synchronous read of size bytes: the thread waits until
// all touched lines return (memcpy/pointer-chase semantics for single
// lines).
func (c *MemCtx) Load(ns *Namespace, off int64, size int) {
	checkRange(ns, off, size)
	t := c.proc.Now()
	var done sim.Time
	first := mem.LineAddr(off)
	for n := mem.LinesIn(off, size); n > 0; n-- {
		var d sim.Time
		t, d = c.chunkLoad(ns, first, t)
		if d > done {
			done = d
		}
		first += mem.CacheLine
	}
	if done > t {
		t = done
	}
	c.proc.AdvanceTo(t)
}

// LoadInto is Load plus a copy of the bytes into buf (overlay-coherent:
// dirty cached data wins over durable data).
func (c *MemCtx) LoadInto(ns *Namespace, off int64, buf []byte) {
	c.Load(ns, off, len(buf))
	c.Peek(ns, off, buf)
}

// Peek copies the current coherent contents (dirty cache overlay over
// durable data) without advancing simulated time. Use it when the timing
// of the copy has already been charged through Load or LoadStream.
func (c *MemCtx) Peek(ns *Namespace, off int64, buf []byte) {
	c.p.persist.Read(ns.GlobalAddr(off), buf)
	llc := c.llc()
	for i := 0; i < len(buf); {
		addr := off + int64(i)
		line := mem.LineAddr(addr)
		lo := int(addr - line)
		n := min(mem.CacheLine-lo, len(buf)-i)
		if data, mask := llc.Data(ns.GlobalAddr(line)); data != nil {
			for j := 0; j < n; j++ {
				if mask&(1<<uint(lo+j)) != 0 {
					buf[i+j] = data[lo+j]
				}
			}
		}
		i += n
	}
}

// LoadStream issues reads pipelined without waiting for completion (bulk
// copy semantics); DrainLoads synchronizes.
func (c *MemCtx) LoadStream(ns *Namespace, off int64, size int) {
	checkRange(ns, off, size)
	t := c.proc.Now()
	first := mem.LineAddr(off)
	for n := mem.LinesIn(off, size); n > 0; n-- {
		t, _ = c.chunkLoad(ns, first, t)
		first += mem.CacheLine
	}
	c.proc.AdvanceTo(t)
}

// DrainLoads waits for all outstanding loads.
func (c *MemCtx) DrainLoads() {
	if c.loadMax > c.proc.Now() {
		c.proc.AdvanceTo(c.loadMax)
	}
	c.loads.Reset()
}

// ---- Stores ----

// Store performs cached stores over [off, off+size). data, if non-nil,
// must be size bytes and is retained in the (volatile) cache overlay until
// flushed or evicted.
func (c *MemCtx) Store(ns *Namespace, off int64, size int, data []byte) {
	checkRange(ns, off, size)
	if data != nil && len(data) != size {
		panic("platform: Store data length mismatch")
	}
	t := c.proc.Now()
	llc := c.llc()
	for i := 0; i < size; {
		addr := off + int64(i)
		line := mem.LineAddr(addr)
		lo := int(addr - line)
		n := mem.CacheLine - lo
		if n > size-i {
			n = size - i
		}
		g := ns.GlobalAddr(line)
		if !llc.Present(g) {
			// RFO: fetch the line through the load pipeline; the thread
			// does not block on it but the read consumes device bandwidth.
			t = c.rfo(ns, line, t)
		}
		var chunk []byte
		if data != nil {
			chunk = data[i : i+n]
		}
		if victim, ok := llc.MarkDirty(g, lo, chunk); ok && victim.Dirty {
			c.writebackVictim(t, victim)
		}
		t += c.p.cfg.StoreIssue
		i += n
	}
	c.proc.AdvanceTo(t)
}

func (c *MemCtx) rfo(ns *Namespace, lineOff int64, t sim.Time) sim.Time {
	t = c.loadSlot(t)
	pos, local := ns.Resolve(lineOff)
	ch, d := c.p.channelOf(ns, pos), c.p.dimmOf(ns, pos)
	start := t
	if c.remote(ns) {
		_, start = c.p.home[ns.Socket].acquire(t, false, ns.Media == topology.MediaXP)
	}
	done := ch.Read(start, d, local) + c.p.cfg.LoadOverhead
	c.loads.Push(done)
	if done > c.loadMax {
		c.loadMax = done
	}
	if c.rfoDone == nil {
		c.rfoDone = make(map[int64]sim.Time)
	}
	if len(c.rfoDone) > 8192 {
		c.rfoDone = make(map[int64]sim.Time)
	}
	c.rfoDone[ns.GlobalAddr(lineOff)] = done
	return t
}

// writebackVictim posts a hardware eviction of a dirty line, persisting
// only the bytes the overlay actually holds.
func (c *MemCtx) writebackVictim(t sim.Time, victim cache.Victim) {
	ns := c.p.resolveGlobal(victim.Addr)
	if ns == nil {
		return
	}
	lineOff := victim.Addr - ns.Base
	c.postLine(ns, lineOff, nil, t, false)
	if c.p.cfg.TrackData && victim.Data != nil {
		c.persistMasked(victim.Addr, victim.Data, victim.Mask)
	}
}

// postLine enqueues one 64 B line write toward its DIMM. When tracked is
// true the post participates in fence ordering and the per-thread WPQ
// window (explicit flushes and ntstores); hardware evictions pass false.
// Returns the thread time after any window wait.
func (c *MemCtx) postLine(ns *Namespace, lineOff int64, data []byte, t sim.Time, tracked bool) sim.Time {
	pos, local := ns.Resolve(lineOff)
	ch, d := c.p.channelOf(ns, pos), c.p.dimmOf(ns, pos)
	xp := ns.Media == topology.MediaXP
	remote := c.remote(ns)
	var window *sim.Queue[sim.Time]
	if tracked {
		// A full window waits for its oldest post to drain.
		window = c.window(d)
		if window.Len() >= c.p.cfg.StoreWindow {
			if oldest := window.Pop(); oldest > t {
				t = oldest
			}
		}
	}
	postT := t
	if remote {
		_, granted := c.p.home[ns.Socket].acquire(t, true, xp)
		postT = granted + c.p.cfg.UPI.WriteOwnership
	}
	acc, drain := ch.PostWrite(postT, d, local)
	if tracked {
		window.Push(drain)
		ack := acc + c.ackTime(xp, remote)
		if ack > c.pendingAck {
			c.pendingAck = ack
		}
		c.hasPending = true
	}
	if c.p.cfg.TrackData && data != nil {
		c.p.persist.Write(ns.GlobalAddr(lineOff), data)
	}
	return t
}

// ---- Flushes ----

func (c *MemCtx) flushRange(ns *Namespace, off int64, size int, issue sim.Time, evictLine bool) {
	checkRange(ns, off, size)
	t := c.proc.Now()
	llc := c.llc()
	first := mem.LineAddr(off)
	for n := mem.LinesIn(off, size); n > 0; n-- {
		g := ns.GlobalAddr(first)
		var data []byte
		var mask uint64
		var wasDirty bool
		if evictLine {
			data, mask, wasDirty = llc.Evict(g)
		} else {
			data, mask, wasDirty = llc.WriteBack(g)
		}
		t += issue
		if wasDirty {
			if done, ok := c.rfoDone[g]; ok {
				if done > t {
					t = done // the write-back waits for the store's RFO
				}
				delete(c.rfoDone, g)
			}
			t = c.postLine(ns, first, nil, t, true)
			if c.p.cfg.TrackData && data != nil {
				c.persistMasked(g, data, mask)
			}
		}
		first += mem.CacheLine
	}
	c.proc.AdvanceTo(t)
}

// CLWB writes back (without evicting) every dirty line in the range.
func (c *MemCtx) CLWB(ns *Namespace, off int64, size int) {
	c.flushRange(ns, off, size, c.p.cfg.FlushIssue, false)
}

// CLFlushOpt writes back and evicts every line in the range (unordered
// flush).
func (c *MemCtx) CLFlushOpt(ns *Namespace, off int64, size int) {
	c.flushRange(ns, off, size, c.p.cfg.FlushIssue, true)
}

// CLFlush writes back and evicts with the legacy, more serializing cost.
func (c *MemCtx) CLFlush(ns *Namespace, off int64, size int) {
	c.flushRange(ns, off, size, c.p.cfg.CLFlushIssue, true)
}

// ---- Non-temporal stores ----

// NTStore bypasses the cache: full 64 B lines post directly toward the WPQ
// via write-combining buffers; partial lines linger in the WC buffer until
// completed or fenced.
func (c *MemCtx) NTStore(ns *Namespace, off int64, size int, data []byte) {
	checkRange(ns, off, size)
	if data != nil && len(data) != size {
		panic("platform: NTStore data length mismatch")
	}
	t := c.proc.Now()
	llc := c.llc()
	for i := 0; i < size; {
		addr := off + int64(i)
		line := mem.LineAddr(addr)
		lo := int(addr - line)
		n := mem.CacheLine - lo
		if n > size-i {
			n = size - i
		}
		// NT stores invalidate any cached copy; dirty lines are written
		// back first, as on real hardware.
		if g := ns.GlobalAddr(line); llc.Present(g) {
			if data, mask, wasDirty := llc.Evict(g); wasDirty {
				t = c.postLine(ns, line, nil, t, false)
				if c.p.cfg.TrackData && data != nil {
					c.persistMasked(g, data, mask)
				}
			}
		}
		var chunk []byte
		if data != nil {
			chunk = data[i : i+n]
		}
		if n == mem.CacheLine {
			t = c.postLine(ns, line, chunk, t+c.p.cfg.NTPostDelay, true) - c.p.cfg.NTPostDelay
		} else {
			wcData := chunk
			if wcData == nil {
				wcData = zeroLine[:n]
			}
			// The WC buffer is keyed by global address: SFence drains
			// leftovers through resolveGlobal, so a relative key would
			// alias another namespace's lines once more than one
			// namespace exists.
			if flushAddr, flushData, complete := c.wc.Write(ns.GlobalAddr(addr), wcData); complete {
				if data == nil {
					flushData = nil
				}
				t = c.postLine(ns, flushAddr-ns.Base, flushData, t+c.p.cfg.NTPostDelay, true) - c.p.cfg.NTPostDelay
			}
		}
		t += c.p.cfg.NTStoreIssue
		i += n
	}
	c.proc.AdvanceTo(t)
}

var zeroLine [mem.CacheLine]byte

// ---- Fences ----

// SFence drains the thread's write-combining buffers and waits until every
// tracked post since the last fence has been accepted into a WPQ (the ADR
// persistence point).
func (c *MemCtx) SFence() {
	t := c.proc.Now()
	c.wc.Flush(func(addr int64, data []byte, mask uint64) {
		ns := c.p.resolveGlobal(addr)
		if ns == nil {
			return
		}
		lineOff := addr - ns.Base
		t = c.postLine(ns, lineOff, nil, t+c.p.cfg.NTPostDelay, true) - c.p.cfg.NTPostDelay
		t += c.p.cfg.NTStoreIssue
		if c.p.cfg.TrackData {
			c.persistMasked(addr, data, mask)
		}
	})
	if c.hasPending && c.pendingAck > t {
		t = c.pendingAck
	}
	c.hasPending = false
	c.pendingAck = 0
	c.proc.AdvanceTo(t + c.p.cfg.FenceBase)
}

func (c *MemCtx) persistMasked(lineAddr int64, data []byte, mask uint64) {
	persistMaskedTo(&c.p.persist, lineAddr, data, mask)
}

// persistMaskedTo writes only the mask-covered bytes of a 64 B line into
// the durable store, one run of set mask bits at a time.
func persistMaskedTo(store *mem.DataStore, lineAddr int64, data []byte, mask uint64) {
	for i := 0; mask>>i != 0; {
		i += bits.TrailingZeros64(mask >> i)        // the run's first byte
		j := i + bits.TrailingZeros64(^(mask >> i)) // one past its last
		store.Write(lineAddr+int64(i), data[i:j])
		i = j
	}
}

// ---- Convenience persistence idioms ----

// PersistNT writes with non-temporal stores and fences (the paper's
// recommended idiom for large transfers).
func (c *MemCtx) PersistNT(ns *Namespace, off int64, size int, data []byte) {
	c.NTStore(ns, off, size, data)
	c.SFence()
}

// PersistStore writes with cached stores, flushes with clwb, and fences
// (the recommended idiom for small writes).
func (c *MemCtx) PersistStore(ns *Namespace, off int64, size int, data []byte) {
	c.Store(ns, off, size, data)
	c.CLWB(ns, off, size)
	c.SFence()
}
