package dimm

import "optanestudy/internal/sim"

// xpEntry is one 256 B XPLine slot in the XPBuffer.
type xpEntry struct {
	line  int64
	dirty uint8 // bitmask of dirty 64 B chunks
	valid bool  // line contents were fetched from media (no RMW needed)

	prev, next *xpEntry // LRU list links
}

// xpBuffer is the XPController's combining buffer: an LRU-ordered set of
// XPLine entries plus a FIFO of slots occupied by in-flight media
// writebacks. live + inflight never exceeds the configured capacity, which
// is what throttles WPQ drain when the media falls behind.
type xpBuffer struct {
	cap       int
	entries   map[int64]*xpEntry
	head      *xpEntry // most recently used
	tail      *xpEntry // least recently used
	liveCount int
	free      *xpEntry // recycled entries, chained through next

	inflight sim.Queue[sim.Time] // media write-back completion times, FIFO
}

func (b *xpBuffer) init(capacity int) {
	if capacity < 2 {
		capacity = 2
	}
	b.cap = capacity
	b.entries = make(map[int64]*xpEntry, capacity)
}

func (b *xpBuffer) lookup(line int64) *xpEntry { return b.entries[line] }

// touch moves e to the MRU position.
func (b *xpBuffer) touch(e *xpEntry) {
	if b.head == e {
		return
	}
	b.unlink(e)
	b.pushFront(e)
}

func (b *xpBuffer) pushFront(e *xpEntry) {
	e.prev = nil
	e.next = b.head
	if b.head != nil {
		b.head.prev = e
	}
	b.head = e
	if b.tail == nil {
		b.tail = e
	}
}

func (b *xpBuffer) unlink(e *xpEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		b.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		b.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// insert adds a fresh entry at MRU, recycling a removed entry when one is
// available so steady-state buffer churn (the log workloads' insert/evict
// treadmill over ever-new XPLine addresses) allocates nothing. The caller
// must have ensured space.
func (b *xpBuffer) insert(line int64) *xpEntry {
	e := b.free
	if e != nil {
		b.free = e.next
		*e = xpEntry{line: line}
	} else {
		e = &xpEntry{line: line}
	}
	b.entries[line] = e
	b.pushFront(e)
	b.liveCount++
	return e
}

// remove deletes e from the live set (slot accounting is the caller's job:
// dirty evictions must be pushed onto inflight) and parks it on
// the free list. Callers may still read e's fields until the next insert,
// which is when the slot is reused.
func (b *xpBuffer) remove(e *xpEntry) {
	delete(b.entries, e.line)
	b.unlink(e)
	b.liveCount--
	e.next, b.free = b.free, e
}

// lru returns the least-recently-used live entry.
func (b *xpBuffer) lru() *xpEntry { return b.tail }

// lruClean returns the least-recently-used entry with no dirty data, or nil.
func (b *xpBuffer) lruClean() *xpEntry {
	for e := b.tail; e != nil; e = e.prev {
		if e.dirty == 0 {
			return e
		}
	}
	return nil
}

// lruPartial returns the least-recently-used entry that holds a partially
// dirty line other than `except`, or nil.
func (b *xpBuffer) lruPartial(except int64) *xpEntry {
	for e := b.tail; e != nil; e = e.prev {
		if e.line != except && e.dirty != 0 && e.dirty != 0xF {
			return e
		}
	}
	return nil
}

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
