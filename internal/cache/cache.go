// Package cache models the CPU cache hierarchy as seen by persistent
// memory: a last-level cache tracking clean/dirty 64 B lines with random
// replacement, and per-thread write-combining buffers for non-temporal
// stores.
//
// Two properties matter for the study: dirty lines are *not* persistent
// (the ADR domain stops at the iMC), and natural evictions leave the cache
// in an order uncorrelated with program order — which is why un-flushed
// store streams reach the DIMMs scrambled and destroy write combining
// (Section 5.2).
package cache

import (
	"math/bits"

	"optanestudy/internal/mem"
	"optanestudy/internal/sim"
)

// Config parameterizes the LLC model.
type Config struct {
	// Lines is the capacity in 64 B cache lines.
	Lines int
	// HitLatency is the load-to-use time for an LLC hit.
	HitLatency sim.Time
	// Seed feeds the replacement RNG.
	Seed uint64
}

// DefaultConfig returns the calibrated LLC: 12 MB effective capacity (the
// single-thread share of a Cascade Lake LLC) and ~20 ns hits.
func DefaultConfig() Config {
	return Config{
		Lines:      12 << 20 / mem.CacheLine,
		HitLatency: 20 * sim.Nanosecond,
		Seed:       0x11CC,
	}
}

// Victim describes an evicted line.
type Victim struct {
	Addr  int64
	Dirty bool
	Data  []byte // overlay contents if the line carried data, else nil; valid until the next LLC call
	Mask  uint64 // bitmask of valid overlay bytes
}

// LLC is a set of resident lines with random replacement. Addresses are
// global physical line addresses.
//
// The resident lines live in one dense array in replacement order: an
// insert appends, and a removal moves the last entry into the freed
// position. A capacity eviction draws its victim with one Intn over that
// array, so the victim sequence is a pure function of the seed and the
// operation history. An open-addressed table (linear probing,
// backward-shift deletion) maps a line address to its array position.
// Both start empty and double as lines arrive, the array up to
// Config.Lines and the table up to twice that: most simulated platforms
// touch a small fraction of the cache, so presizing would make every
// platform pay for a full one.
//
// The overlay bytes of lines written by tracked stores live in a slab of
// 64 B slots with a free list; an entry names its slot by number, so the
// entry array holds no pointers for the garbage collector to scan. An
// overlay taken out of the cache is copied into one per-LLC buffer before
// its slot is freed, so a slot the same call reuses never overwrites
// bytes the caller still holds.
type LLC struct {
	cfg     Config
	rng     *sim.RNG
	entries []entry  // resident lines in replacement order
	index   []uint32 // position+1 of the entry hashed to this slot; 0 = empty
	shift   uint     // 64 - log2(len(index))

	slab [][mem.CacheLine]byte // overlay slots
	free []uint32              // slab slots not in use
	out  [mem.CacheLine]byte   // the overlay last taken out of the cache
}

type entry struct {
	addr int64
	// mask marks the overlay bytes that hold store data (coherence: only
	// these bytes may be written back; the rest belong to durable storage
	// or other writers).
	mask  uint64
	data  uint32 // slab slot+1 of the overlay bytes; 0 = none
	dirty bool
}

// minAlloc is the entry count of the first allocation.
const minAlloc = 16

// New returns an empty LLC.
func New(cfg Config) *LLC {
	if cfg.Lines < 16 {
		cfg.Lines = 16
	}
	return &LLC{cfg: cfg, rng: sim.NewRNG(cfg.Seed)}
}

// HitLatency returns the configured hit latency.
func (c *LLC) HitLatency() sim.Time { return c.cfg.HitLatency }

// Len returns the number of resident lines.
func (c *LLC) Len() int { return len(c.entries) }

// home is addr's preferred index slot (Fibonacci hashing of the line
// number).
func (c *LLC) home(addr int64) int {
	return int(uint64(addr>>6) * 0x9E3779B97F4A7C15 >> c.shift)
}

// find returns the index slot holding addr, or the empty slot that ends
// its probe chain with ok=false (-1 before the first insert).
func (c *LLC) find(addr int64) (slot int, ok bool) {
	if len(c.index) == 0 {
		return -1, false
	}
	m := len(c.index) - 1
	for i := c.home(addr); ; i = (i + 1) & m {
		p := c.index[i]
		if p == 0 {
			return i, false
		}
		if c.entries[p-1].addr == addr {
			return i, true
		}
	}
}

// lookup returns addr's entry, or nil if the line is not resident.
func (c *LLC) lookup(addr int64) *entry {
	if s, ok := c.find(addr); ok {
		return &c.entries[c.index[s]-1]
	}
	return nil
}

// Present reports whether addr's line is resident.
func (c *LLC) Present(addr int64) bool {
	_, ok := c.find(addr)
	return ok
}

// Dirty reports whether addr's line is resident and dirty.
func (c *LLC) Dirty(addr int64) bool {
	e := c.lookup(addr)
	return e != nil && e.dirty
}

// Data returns the overlay bytes and validity mask for a resident line.
// The bytes are valid until the next LLC call.
func (c *LLC) Data(addr int64) ([]byte, uint64) {
	if e := c.lookup(addr); e != nil {
		if e.data != 0 {
			return c.slab[e.data-1][:], e.mask
		}
		return nil, e.mask
	}
	return nil, 0
}

// Insert makes addr resident (clean unless marked dirty afterwards) and
// returns the victim if the insertion evicted a line.
func (c *LLC) Insert(addr int64) (Victim, bool) {
	v, evicted, _ := c.insert(addr)
	return v, evicted
}

// insert is Insert that also returns addr's entry.
func (c *LLC) insert(addr int64) (Victim, bool, *entry) {
	slot, ok := c.find(addr)
	if ok {
		return Victim{}, false, &c.entries[c.index[slot]-1]
	}
	var v Victim
	evicted := false
	if n := len(c.entries); n >= c.cfg.Lines {
		i := c.rng.Intn(n)
		e := &c.entries[i]
		vslot, _ := c.find(e.addr)
		v = Victim{Addr: e.addr, Dirty: e.dirty, Data: c.takeData(e), Mask: e.mask}
		c.remove(i, vslot)
		evicted = true
		slot, _ = c.find(addr) // the deletion may have shifted the chain
	}
	n := len(c.entries)
	if n == cap(c.entries) {
		c.growEntries()
	}
	if 2*(n+1) > len(c.index) {
		c.growIndex()
		slot, _ = c.find(addr)
	}
	c.entries = append(c.entries, entry{addr: addr})
	c.index[slot] = uint32(n + 1)
	return v, evicted, &c.entries[n]
}

// growEntries doubles the entry array's capacity, up to Config.Lines.
func (c *LLC) growEntries() {
	n := 2 * cap(c.entries)
	if n < minAlloc {
		n = minAlloc
	}
	if n > c.cfg.Lines {
		n = c.cfg.Lines
	}
	grown := make([]entry, len(c.entries), n)
	copy(grown, c.entries)
	c.entries = grown
}

// growIndex doubles the index and re-indexes every entry, keeping the
// load factor at or below 1/2.
func (c *LLC) growIndex() {
	n := 2 * len(c.index)
	if n == 0 {
		n = 2 * minAlloc
	}
	c.index = make([]uint32, n)
	c.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for i := range c.entries {
		s, _ := c.find(c.entries[i].addr)
		c.index[s] = uint32(i + 1)
	}
}

// remove deletes the entry at position i, whose index slot is slot. The
// last entry moves into position i.
func (c *LLC) remove(i, slot int) {
	c.unindex(slot)
	last := len(c.entries) - 1
	if i != last {
		moved := c.entries[last]
		c.entries[i] = moved
		s, _ := c.find(moved.addr)
		c.index[s] = uint32(i + 1)
	}
	c.entries = c.entries[:last]
}

// unindex empties slot by backward-shift deletion: each later entry of
// the probe chain whose home lies at or before the hole moves into it, so
// every chain stays gap-free without tombstones.
func (c *LLC) unindex(slot int) {
	m := len(c.index) - 1
	hole := slot
	for j := (hole + 1) & m; c.index[j] != 0; j = (j + 1) & m {
		p := c.index[j]
		if h := c.home(c.entries[p-1].addr); (j-h)&m >= (j-hole)&m {
			c.index[hole] = p
			hole = j
		}
	}
	c.index[hole] = 0
}

// takeData detaches e's overlay, frees its slot and returns a copy of
// its bytes in c.out (nil if e has none).
func (c *LLC) takeData(e *entry) []byte {
	if e.data == 0 {
		return nil
	}
	c.out = c.slab[e.data-1]
	c.free = append(c.free, e.data-1)
	e.data = 0
	return c.out[:]
}

// MarkDirty sets the line dirty, inserting it if absent (the caller is
// responsible for any RFO timing). data, when non-nil, is copied into the
// line's overlay at byte offset off within the line and the corresponding
// mask bits are set.
func (c *LLC) MarkDirty(addr int64, off int, data []byte) (Victim, bool) {
	v, evicted, e := c.insert(addr)
	e.dirty = true
	if data != nil {
		if e.data == 0 {
			e.data = c.newSlot() + 1
		}
		copy(c.slab[e.data-1][off:], data)
		for i := 0; i < len(data); i++ {
			e.mask |= 1 << uint(off+i)
		}
	}
	return v, evicted
}

// newSlot returns a slab slot, reusing a freed one when it can. A reused
// slot keeps its old bytes: only the bytes under an entry's mask are
// ever read.
func (c *LLC) newSlot() uint32 {
	if n := len(c.free); n > 0 {
		s := c.free[n-1]
		c.free = c.free[:n-1]
		return s
	}
	c.slab = append(c.slab, [mem.CacheLine]byte{})
	return uint32(len(c.slab) - 1)
}

// WriteBack clears the line's dirty bit and overlay, returning the overlay
// data (valid until the next LLC call), its byte mask, and whether the
// line was dirty. The line stays resident (clwb semantics); after
// write-back the durable copy is authoritative, so the overlay is dropped.
func (c *LLC) WriteBack(addr int64) ([]byte, uint64, bool) {
	e := c.lookup(addr)
	if e == nil || !e.dirty {
		return nil, 0, false
	}
	mask := e.mask
	e.dirty, e.mask = false, 0
	return c.takeData(e), mask, true
}

// Evict removes the line (clflush/clflushopt semantics), returning its
// overlay data (valid until the next LLC call), mask, and whether it was
// dirty.
func (c *LLC) Evict(addr int64) ([]byte, uint64, bool) {
	slot, ok := c.find(addr)
	if !ok {
		return nil, 0, false
	}
	i := int(c.index[slot] - 1)
	e := &c.entries[i]
	data, mask, dirty := c.takeData(e), e.mask, e.dirty
	c.remove(i, slot)
	return data, mask, dirty
}

// DropAll empties the cache, discarding dirty data — the volatile half of a
// crash. It returns how many dirty lines were lost.
func (c *LLC) DropAll() int {
	lost := 0
	for _, e := range c.entries {
		if e.dirty {
			lost++
		}
	}
	c.clear()
	return lost
}

// FlushAll empties the cache, handing every dirty line's overlay to fn —
// the eADR crash path, where residual energy drains the caches to the
// DIMMs. Lines are visited in replacement order, so the drain sequence is
// a pure function of the seed and the operation history. It returns how
// many dirty lines were flushed.
func (c *LLC) FlushAll(fn func(addr int64, data []byte, mask uint64)) int {
	flushed := 0
	for _, e := range c.entries {
		if e.dirty {
			flushed++
			if e.data != 0 {
				fn(e.addr, c.slab[e.data-1][:], e.mask)
			}
		}
	}
	c.clear()
	return flushed
}

// clear empties the cache, keeping its storage for reuse.
func (c *LLC) clear() {
	c.entries = c.entries[:0]
	clear(c.index)
	c.slab = c.slab[:0]
	c.free = c.free[:0]
}

// WCBuffer is one thread's write-combining buffer set for non-temporal
// stores: partially-filled 64 B lines awaiting completion or a fence.
type WCBuffer struct {
	lines []wcLine            // partial lines in fill order
	done  [mem.CacheLine]byte // the last completed line, as Write returns it
}

type wcLine struct {
	addr int64
	mask uint64 // bitmask of written bytes
	data [mem.CacheLine]byte
}

// NewWCBuffer returns an empty write-combining buffer.
func NewWCBuffer() *WCBuffer { return &WCBuffer{} }

// fullMask is the mask of a completely written 64 B line.
const fullMask = ^uint64(0)

// Write records sub-line non-temporal stores. It returns the line address
// and data if the line is now complete and must be posted, with ok=true.
// The returned data is valid only until the next call on the buffer.
// Complete 64 B stores should bypass the buffer entirely.
func (w *WCBuffer) Write(addr int64, data []byte) (flushAddr int64, flushData []byte, ok bool) {
	lineAddr := mem.LineAddr(addr)
	off := int(addr - lineAddr)
	i := len(w.lines) - 1
	for i >= 0 && w.lines[i].addr != lineAddr {
		i--
	}
	if i < 0 {
		w.lines = append(w.lines, wcLine{addr: lineAddr})
		i = len(w.lines) - 1
	}
	l := &w.lines[i]
	copy(l.data[off:], data)
	for j := 0; j < len(data); j++ {
		l.mask |= 1 << uint(off+j)
	}
	if l.mask != fullMask {
		return 0, nil, false
	}
	w.done = l.data
	w.lines = append(w.lines[:i], w.lines[i+1:]...)
	return lineAddr, w.done[:], true
}

// Flush drains all partial lines in fill order (an sfence does this),
// invoking post for each. The data passed to post is valid only for the
// duration of the call.
func (w *WCBuffer) Flush(post func(addr int64, data []byte, mask uint64)) {
	for i := range w.lines {
		l := &w.lines[i]
		post(l.addr, l.data[:], l.mask)
	}
	w.lines = w.lines[:0]
}

// Drop discards all partial lines (crash semantics). Returns the count lost.
func (w *WCBuffer) Drop() int {
	n := len(w.lines)
	w.lines = w.lines[:0]
	return n
}

// Pending returns the number of partially-filled lines.
func (w *WCBuffer) Pending() int { return len(w.lines) }
