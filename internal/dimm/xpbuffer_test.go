package dimm

import (
	"testing"

	"optanestudy/internal/mem"
	"optanestudy/internal/sim"
)

// refEntry and refXPBuffer are the XPBuffer the slot array replaced, kept
// as the reference model: entries in a map, one pointer-linked LRU list
// over clean and dirty entries alike, and victim queries that walk it.
type refEntry struct {
	line       int64
	dirty      uint8
	valid      bool
	prev, next *refEntry
}

type refXPBuffer struct {
	cap        int
	entries    map[int64]*refEntry
	head, tail *refEntry // most and least recently used
	inflight   sim.Queue[sim.Time]
}

func (b *refXPBuffer) touch(e *refEntry) {
	if b.head != e {
		b.unlink(e)
		b.pushFront(e)
	}
}

func (b *refXPBuffer) pushFront(e *refEntry) {
	e.prev, e.next = nil, b.head
	if b.head != nil {
		b.head.prev = e
	}
	b.head = e
	if b.tail == nil {
		b.tail = e
	}
}

func (b *refXPBuffer) unlink(e *refEntry) {
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

func (b *refXPBuffer) insert(line int64) *refEntry {
	e := &refEntry{line: line}
	b.entries[line] = e
	b.pushFront(e)
	return e
}

func (b *refXPBuffer) remove(e *refEntry) {
	delete(b.entries, e.line)
	b.unlink(e)
}

func (b *refXPBuffer) lruClean() *refEntry {
	for e := b.tail; e != nil; e = e.prev {
		if e.dirty == 0 {
			return e
		}
	}
	return nil
}

func (b *refXPBuffer) lruPartial(except int64) *refEntry {
	for e := b.tail; e != nil; e = e.prev {
		if e.line != except && e.dirty != 0 && e.dirty != 0xF {
			return e
		}
	}
	return nil
}

func (b *refXPBuffer) full(t sim.Time) bool {
	for b.inflight.Len() > 0 && b.inflight.At(0) <= t {
		b.inflight.Pop()
	}
	return len(b.entries)+b.inflight.Len() >= b.cap
}

// refXPDIMM runs the DIMM's buffer policy as it stood over refXPBuffer:
// the global LRU entry as the forced victim and a list walk for each
// clean or partial victim. Media, stream tracking, wear, the RNG and the
// counters come from an XPDIMM of its own whose buffer it never touches.
type refXPDIMM struct {
	*XPDIMM
	ref refXPBuffer
}

func newRefXPDIMM(cfg XPConfig) *refXPDIMM {
	d := &refXPDIMM{XPDIMM: NewXPDIMM(cfg)}
	d.ref.cap = d.buf.cap
	d.ref.entries = map[int64]*refEntry{}
	return d
}

func (d *refXPDIMM) ReadLine(t sim.Time, addr int64) sim.Time {
	d.counters.CtrlReadBytes += mem.CacheLine
	line := mem.XPLineAddr(addr)
	if e := d.ref.entries[line]; e != nil {
		d.counters.BufferHits++
		d.ref.touch(e)
		return t + d.cfg.CtrlTime
	}
	d.counters.BufferMisses++
	done := d.mediaRead(t, line)
	if d.ref.full(t) {
		if v := d.ref.lruClean(); v != nil {
			d.ref.remove(v)
			d.ref.insert(line).valid = true
		}
	} else {
		d.ref.insert(line).valid = true
	}
	return done + d.cfg.CtrlTime
}

func (d *refXPDIMM) WriteLine(t sim.Time, addr int64) sim.Time {
	d.counters.CtrlWriteBytes += mem.CacheLine
	line := mem.XPLineAddr(addr)
	chunk := uint8(1) << uint((addr-line)/mem.CacheLine)
	if e := d.ref.entries[line]; e != nil {
		d.counters.BufferHits++
		e.dirty |= chunk
		d.ref.touch(e)
		d.maybeComplete(t, e)
		return t + d.cfg.IngestTime
	}
	d.counters.BufferMisses++
	active := d.streams.observe(line)
	if over := active - d.cfg.StreamEngines; over > 0 {
		p := d.cfg.StreamPressure * float64(over) / float64(active)
		if d.rng.Bool(p) {
			if v := d.ref.lruPartial(line); v != nil {
				d.counters.EarlyCloses++
				d.evict(t, v)
			}
		}
	}
	if d.ref.full(t) {
		if v := d.ref.lruClean(); v != nil {
			d.ref.remove(v)
		} else if d.ref.inflight.Len() == 0 {
			if v := d.ref.tail; v != nil {
				d.evict(t, v)
			}
		}
		for d.ref.full(t) {
			t = max(t, d.ref.inflight.At(0))
		}
	}
	e := d.ref.insert(line)
	e.dirty |= chunk
	d.maybeComplete(t, e)
	return t + d.cfg.IngestTime
}

func (d *refXPDIMM) maybeComplete(t sim.Time, e *refEntry) {
	if e.dirty == 0xF {
		d.evict(t, e)
	}
}

func (d *refXPDIMM) evict(t sim.Time, e *refEntry) {
	d.ref.remove(e)
	if e.dirty == 0 {
		return
	}
	n := 0
	for m := e.dirty; m != 0; m &= m - 1 {
		n++
	}
	end := d.mediaWrite(t, e.line, n*mem.CacheLine, e.dirty != 0xF && !e.valid)
	d.ref.inflight.Push(end)
}

// xpOp is one access the differential tests replay: a 64 B read or write
// of chunk (0-3) of line number sel, arriving gap after the previous
// access's completion.
type xpOp struct {
	write bool
	sel   int
	chunk int
	gap   sim.Time
}

// xpCaps are the buffer capacities the differential tests cover: the
// smallest the buffer allows, a small one, and the calibrated 16 KB.
var xpCaps = []int{2, 16, 64}

// xpAddr maps a line selector and chunk to an address: dense XPLines, or
// XPLines 1 MB apart, so that every line is a write stream of its own and
// stream pressure closes lines early.
func xpAddr(sel, chunk int, stride bool) int64 {
	line := int64(sel) * mem.XPLine
	if stride {
		line = int64(sel) << 20
	}
	return line + int64(chunk)*mem.CacheLine
}

// checkXPAgainstReference replays ops on an XPDIMM and on the reference
// at one capacity, failing at the first access whose completion time,
// counters, in-flight write-backs or buffered lines differ. Each list of
// the slot array must be the reference's LRU order restricted to its
// clean or dirty lines.
func checkXPAgainstReference(t *testing.T, capacity int, stride bool, ops []xpOp) {
	t.Helper()
	cfg := DefaultXPConfig()
	cfg.BufferLines = capacity
	d, r := NewXPDIMM(cfg), newRefXPDIMM(cfg)
	var now sim.Time
	for i, op := range ops {
		addr := xpAddr(op.sel, op.chunk, stride)
		now += op.gap
		var got, want sim.Time
		if op.write {
			got, want = d.WriteLine(now, addr), r.WriteLine(now, addr)
		} else {
			got, want = d.ReadLine(now, addr), r.ReadLine(now, addr)
		}
		if got != want || d.counters != r.counters {
			t.Fatalf("capacity %d, op %d (%+v): done %v, counters %+v; reference %v, %+v",
				capacity, i, op, got, d.counters, want, r.counters)
		}
		if msg := sameXPBuffer(&d.buf, &r.ref); msg != "" {
			t.Fatalf("capacity %d, op %d (%+v): %s", capacity, i, op, msg)
		}
		now = got
	}
}

// sameXPBuffer compares the slot array with the reference and returns
// what differs, or "".
func sameXPBuffer(b *xpBuffer, r *refXPBuffer) string {
	if b.liveCount != len(r.entries) {
		return "live count differs"
	}
	if b.inflight.Len() != r.inflight.Len() {
		return "in-flight count differs"
	}
	for i := 0; i < b.inflight.Len(); i++ {
		if b.inflight.At(i) != r.inflight.At(i) {
			return "in-flight completion times differ"
		}
	}
	clean, dirty := b.clean.head, b.dirty.head
	for e := r.head; e != nil; e = e.next {
		s := &clean
		if e.dirty != 0 {
			s = &dirty
		}
		if *s < 0 || b.lookup(e.line) != *s {
			return "recency order differs"
		}
		if sl := b.slots[*s]; sl.dirty != e.dirty || sl.valid != e.valid {
			return "line state differs"
		}
		*s = b.slots[*s].next
	}
	if clean >= 0 || dirty >= 0 {
		return "buffer holds a line the reference does not"
	}
	return ""
}

// The slot array matches the reference on seeded random access
// sequences, over dense lines and over lines far enough apart to be
// separate write streams.
func TestXPBufferMatchesReference(t *testing.T) {
	for _, capacity := range xpCaps {
		for _, stride := range []bool{false, true} {
			for seed := uint64(1); seed <= 3; seed++ {
				rng := sim.NewRNG(seed)
				ops := make([]xpOp, 20000)
				for i := range ops {
					ops[i] = xpOp{
						write: rng.Bool(0.6),
						sel:   rng.Intn(4 * capacity),
						chunk: rng.Intn(4),
						gap:   sim.Time(rng.Intn(3)) * sim.Time(rng.Intn(2000)) * sim.Nanosecond / 10,
					}
				}
				checkXPAgainstReference(t, capacity, stride, ops)
			}
		}
	}
}

// decodeXPOps turns fuzz bytes into a capacity, an address space and an
// access sequence. The first byte picks the capacity (low bits) and the
// address space (top bit); each following 3-byte group is one access: the
// write flag and chunk, a line selector, and the arrival gap in 10 ns
// steps.
func decodeXPOps(b []byte) (int, bool, []xpOp) {
	if len(b) == 0 {
		return xpCaps[0], false, nil
	}
	capacity := xpCaps[int(b[0]&0x7f)%len(xpCaps)]
	stride := b[0]&0x80 != 0
	var ops []xpOp
	for b = b[1:]; len(b) >= 3; b = b[3:] {
		ops = append(ops, xpOp{
			write: b[0]&1 != 0,
			chunk: int(b[0]>>1) & 3,
			sel:   int(b[1]) % (4 * capacity),
			gap:   sim.Time(b[2]) * 10 * sim.Nanosecond,
		})
	}
	return capacity, stride, ops
}

func FuzzXPBufferMatchesReference(f *testing.F) {
	// Fill a 16-line buffer with half-written lines, then reread and
	// complete them back to back: forced evictions, waits on in-flight
	// write-backs and clean drops.
	seed := []byte{1}
	for round := 0; round < 2; round++ {
		for sel := 0; sel < 40; sel++ {
			seed = append(seed, 1|byte(round)<<1, byte(sel), 0)
			seed = append(seed, 0, byte(sel+1), 0)
		}
	}
	f.Add(seed)
	// Many separate streams on a 2-line buffer: early closes.
	seed = []byte{0x80}
	for i := 0; i < 64; i++ {
		seed = append(seed, 1|byte(i%4)<<1, byte(i*3), byte(i%5))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, b []byte) {
		capacity, stride, ops := decodeXPOps(b)
		checkXPAgainstReference(t, capacity, stride, ops)
	})
}
