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
//
// Each memory event has one code site: fetch reads a line from its device
// (a load miss or a store's ownership read), postLine posts a line toward
// its WPQ and is the only timed writer of durable bytes, and SFence waits
// for the posts to be accepted.
type MemCtx struct {
	p      *Platform
	proc   *sim.Proc
	socket int
	wc     *cache.WCBuffer

	windows []dimmWindow // per-DIMM WPQ windows, in first-use order

	pendingAck sim.Time // latest acceptance of a tracked post since the last fence

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
	q := new(sim.Queue[sim.Time])
	c.windows = append(c.windows, dimmWindow{d: d, drains: q})
	return q
}

func (c *MemCtx) resetPending() {
	c.pendingAck = 0
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

// fetch reads one line from its device, for a load miss or a store's
// ownership read. It issues at t, or when the oldest outstanding load
// completes if all MLP slots are busy. A remote line waits for its home
// agent's grant and pays upiReturn on top of the device read. It returns
// the issue time and the data-ready time.
func (c *MemCtx) fetch(ns *Namespace, lineOff int64, t, upiReturn sim.Time) (sim.Time, sim.Time) {
	if c.loads.Len() >= c.p.cfg.MLP {
		t = max(t, c.loads.Pop())
	}
	pos, local := ns.Resolve(lineOff)
	start := t
	if c.remote(ns) {
		_, start = c.p.home[ns.Socket].acquire(t, false, ns.Media == topology.MediaXP)
	} else {
		upiReturn = 0
	}
	done := c.p.channelOf(ns, pos).Read(start, c.p.dimmOf(ns, pos), local) + c.p.cfg.LoadOverhead + upiReturn
	c.loads.Push(done)
	c.loadMax = max(c.loadMax, done)
	return t, done
}

// chunkLoad issues one 64 B load at time t; returns issue-done time and
// data-ready time.
func (c *MemCtx) chunkLoad(ns *Namespace, lineOff int64, t sim.Time) (sim.Time, sim.Time) {
	g := ns.GlobalAddr(lineOff)
	llc := c.llc()
	if llc.Present(g) {
		return t + c.p.cfg.ChunkIssue, t + llc.HitLatency()
	}
	t, done := c.fetch(ns, lineOff, t, 2*c.p.cfg.UPI.HopLatency)
	if victim, ok := llc.Insert(g); ok && victim.Dirty {
		c.writebackVictim(t, victim)
	}
	return t + c.p.cfg.ChunkIssue, done
}

// issueLoads issues one load per line of [off, off+size) from the thread's
// clock; it returns the time the last issue completes and the latest
// data-ready time.
func (c *MemCtx) issueLoads(ns *Namespace, off int64, size int) (t, ready sim.Time) {
	checkRange(ns, off, size)
	t = c.proc.Now()
	line := mem.LineAddr(off)
	for n := mem.LinesIn(off, size); n > 0; n-- {
		var done sim.Time
		t, done = c.chunkLoad(ns, line, t)
		ready = max(ready, done)
		line += mem.CacheLine
	}
	return t, ready
}

// Load performs a synchronous read of size bytes: the thread waits until
// all touched lines return (memcpy/pointer-chase semantics for single
// lines).
func (c *MemCtx) Load(ns *Namespace, off int64, size int) {
	t, ready := c.issueLoads(ns, off, size)
	c.proc.AdvanceTo(max(t, ready))
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
	t, _ := c.issueLoads(ns, off, size)
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

// rfo reads a store-missed line for ownership and records when it lands.
// Unlike a load miss it charges a remote line no UPI return hop; ROADMAP
// item 2 settles that with its move of the results.
func (c *MemCtx) rfo(ns *Namespace, lineOff int64, t sim.Time) sim.Time {
	t, done := c.fetch(ns, lineOff, t, 0)
	if c.rfoDone == nil || len(c.rfoDone) > 8192 {
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
	c.postLine(ns, victim.Addr-ns.Base, victim.Data, victim.Mask, t, false)
}

// postLine enqueues one 64 B line write toward its DIMM and, when data is
// given, writes its mask-covered bytes into the durable store. When tracked is
// true the post participates in fence ordering and the per-thread WPQ
// window (explicit flushes and ntstores); hardware evictions pass false.
// Returns the thread time after any window wait.
func (c *MemCtx) postLine(ns *Namespace, lineOff int64, data []byte, mask uint64, t sim.Time, tracked bool) sim.Time {
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
		c.pendingAck = max(c.pendingAck, acc+c.ackTime(xp, remote))
	}
	if c.p.cfg.TrackData && data != nil {
		persistMaskedTo(&c.p.persist, ns.GlobalAddr(lineOff), data, mask)
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
			t = c.postLine(ns, first, data, mask, t, true)
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
				t = c.postLine(ns, line, data, mask, t, false)
			}
		}
		var chunk []byte
		if data != nil {
			chunk = data[i : i+n]
		}
		if n == mem.CacheLine {
			t = c.postLine(ns, line, chunk, fullLine, t+c.p.cfg.NTPostDelay, true) - c.p.cfg.NTPostDelay
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
				t = c.postLine(ns, flushAddr-ns.Base, flushData, fullLine, t+c.p.cfg.NTPostDelay, true) - c.p.cfg.NTPostDelay
			}
		}
		t += c.p.cfg.NTStoreIssue
		i += n
	}
	c.proc.AdvanceTo(t)
}

var zeroLine [mem.CacheLine]byte

// fullLine is the byte mask of a whole 64 B line.
const fullLine = ^uint64(0)

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
		t = c.postLine(ns, addr-ns.Base, data, mask, t+c.p.cfg.NTPostDelay, true) - c.p.cfg.NTPostDelay
		t += c.p.cfg.NTStoreIssue
	})
	t = max(t, c.pendingAck)
	c.pendingAck = 0
	c.proc.AdvanceTo(t + c.p.cfg.FenceBase)
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
