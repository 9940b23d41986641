package dimm

import (
	"math/bits"

	"optanestudy/internal/sim"
)

// xpSlot is one 256 B XPLine slot in the XPBuffer.
type xpSlot struct {
	line       int64
	prev, next int32 // recency-list neighbours (-1 at the ends); next also chains free slots
	dirty      uint8 // bitmask of dirty 64 B chunks
	valid      bool  // line contents were fetched from media (no RMW needed)
}

// xpList is a recency list of slots, linked through their prev and next
// fields: head is the most recently used, tail the least; -1 when empty.
type xpList struct{ head, tail int32 }

// xpBuffer is the XPController's combining buffer: a fixed array of
// XPLine slots plus a FIFO of slots occupied by in-flight media
// writebacks. live + inflight never exceeds the configured capacity, which
// is what throttles WPQ drain when the media falls behind.
//
// Live slots sit on one of two recency lists, clean (no dirty chunk) and
// dirty; a slot only ever moves from clean to dirty, and is made the
// dirty list's head when it does, so each list is the buffer's recency
// order restricted to its slots and every victim query is a list tail.
// An open-addressed table in the LLC's style (Fibonacci hashing, linear
// probing, backward-shift deletion) maps a line to its slot. Both arrays
// are allocated on the first insert: most of a platform's DIMMs are never
// touched.
type xpBuffer struct {
	cap   int
	slots []xpSlot
	index []int32 // slot+1 of the line hashed to this position; 0 = empty
	shift uint    // 64 - log2(len(index))
	free  int32   // first free slot, chained through next; -1 = none

	clean, dirty xpList
	liveCount    int

	inflight sim.Queue[sim.Time] // media write-back completion times, FIFO
}

func (b *xpBuffer) init(capacity int) {
	if capacity < 2 {
		capacity = 2
	}
	b.cap = capacity
	b.clean = xpList{-1, -1}
	b.dirty = xpList{-1, -1}
}

// alloc builds the slot array, every slot free, and an index with at
// least twice as many positions as slots.
func (b *xpBuffer) alloc() {
	b.slots = make([]xpSlot, b.cap)
	for i := range b.slots {
		b.slots[i].next = int32(i + 1)
	}
	b.slots[b.cap-1].next = -1
	n := 1 << bits.Len(uint(2*b.cap-1))
	b.index = make([]int32, n)
	b.shift = uint(64 - bits.TrailingZeros(uint(n)))
}

// home is line's preferred index position.
func (b *xpBuffer) home(line int64) int {
	return int(uint64(line>>8) * 0x9E3779B97F4A7C15 >> b.shift)
}

// find returns the index position holding line, or the empty position
// that ends its probe chain with ok=false (-1 before the first insert).
func (b *xpBuffer) find(line int64) (pos int, ok bool) {
	if len(b.index) == 0 {
		return -1, false
	}
	m := len(b.index) - 1
	for i := b.home(line); ; i = (i + 1) & m {
		s := b.index[i]
		if s == 0 {
			return i, false
		}
		if b.slots[s-1].line == line {
			return i, true
		}
	}
}

// lookup returns line's slot, or -1 if the line is not buffered.
func (b *xpBuffer) lookup(line int64) int32 {
	if pos, ok := b.find(line); ok {
		return b.index[pos] - 1
	}
	return -1
}

// listOf returns the recency list slot s belongs on.
func (b *xpBuffer) listOf(s int32) *xpList {
	if b.slots[s].dirty != 0 {
		return &b.dirty
	}
	return &b.clean
}

func (b *xpBuffer) pushFront(l *xpList, s int32) {
	e := &b.slots[s]
	e.prev, e.next = -1, l.head
	if l.head >= 0 {
		b.slots[l.head].prev = s
	} else {
		l.tail = s
	}
	l.head = s
}

func (b *xpBuffer) unlink(l *xpList, s int32) {
	e := &b.slots[s]
	if e.prev >= 0 {
		b.slots[e.prev].next = e.next
	} else {
		l.head = e.next
	}
	if e.next >= 0 {
		b.slots[e.next].prev = e.prev
	} else {
		l.tail = e.prev
	}
}

// touch makes s the most recently used slot of its list.
func (b *xpBuffer) touch(s int32) {
	if l := b.listOf(s); l.head != s {
		b.unlink(l, s)
		b.pushFront(l, s)
	}
}

// write marks chunk dirty in slot s and makes s the most recently used
// dirty slot.
func (b *xpBuffer) write(s int32, chunk uint8) {
	b.unlink(b.listOf(s), s)
	b.slots[s].dirty |= chunk
	b.pushFront(&b.dirty, s)
}

// insert places line, clean, in a free slot at the head of the clean
// list and returns the slot. The caller must have ensured space.
func (b *xpBuffer) insert(line int64) int32 {
	if b.slots == nil {
		b.alloc()
	}
	s := b.free
	b.free = b.slots[s].next
	b.slots[s] = xpSlot{line: line}
	pos, _ := b.find(line)
	b.index[pos] = s + 1
	b.pushFront(&b.clean, s)
	b.liveCount++
	return s
}

// remove deletes slot s from the live set and frees it (slot accounting
// is the caller's job: dirty evictions must be pushed onto inflight).
func (b *xpBuffer) remove(s int32) {
	pos, _ := b.find(b.slots[s].line)
	b.unindex(pos)
	b.unlink(b.listOf(s), s)
	b.slots[s].next, b.free = b.free, s
	b.liveCount--
}

// unindex empties index position pos by backward-shift deletion: each
// later entry of the probe chain whose home lies at or before the hole
// moves into it, so every chain stays gap-free without tombstones.
func (b *xpBuffer) unindex(pos int) {
	m := len(b.index) - 1
	hole := pos
	for j := (hole + 1) & m; b.index[j] != 0; j = (j + 1) & m {
		s := b.index[j]
		if h := b.home(b.slots[s-1].line); (j-h)&m >= (j-hole)&m {
			b.index[hole] = s
			hole = j
		}
	}
	b.index[hole] = 0
}

// lruClean returns the least-recently-used clean slot, or -1.
func (b *xpBuffer) lruClean() int32 { return b.clean.tail }

// lruDirty returns the least-recently-used dirty slot, or -1. Every dirty
// slot is partially dirty, because a line whose four chunks are all
// dirty is written back at once (XPDIMM.maybeComplete). So this is both
// the least-recently-used partial line an early close picks (the writing
// line has just missed, so it is not among them) and, when the clean
// list is empty, the least-recently-used slot of all.
func (b *xpBuffer) lruDirty() int32 { return b.dirty.tail }

// full reports whether no slot is available at time t, after freeing the
// slots of write-backs completed by t. Completion times are nondecreasing
// (media is FIFO), so the completed ones sit at the head of inflight.
func (b *xpBuffer) full(t sim.Time) bool {
	for b.inflight.Len() > 0 && b.inflight.At(0) <= t {
		b.inflight.Pop()
	}
	return b.liveCount+b.inflight.Len() >= b.cap
}

// streamTracker estimates how many distinct write streams are concurrently
// active on the DIMM, using per-stream last-address matching over a sliding
// window of recent 64 B writes.
type streamTracker struct {
	window  int64
	counter int64
	slots   []streamSlot
}

type streamSlot struct {
	lastAddr int64
	lastSeen int64
	used     bool
}

func (s *streamTracker) init(window int) {
	if window < 8 {
		window = 8
	}
	s.window = int64(window)
	s.slots = make([]streamSlot, 32)
}

// observe records a write to an XPLine address and returns the number of
// active streams (including this one).
func (s *streamTracker) observe(line int64) int {
	s.counter++
	matched := -1
	victim := 0
	var victimSeen int64 = 1 << 62
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.used && line >= sl.lastAddr-512 && line <= sl.lastAddr+4096 {
			matched = i
			break
		}
		if sl.lastSeen < victimSeen {
			victim, victimSeen = i, sl.lastSeen
		}
	}
	if matched < 0 {
		matched = victim
		s.slots[matched].used = true
	}
	s.slots[matched].lastAddr = line
	s.slots[matched].lastSeen = s.counter
	active := 0
	for i := range s.slots {
		if s.slots[i].used && s.counter-s.slots[i].lastSeen < s.window {
			active++
		}
	}
	return active
}
