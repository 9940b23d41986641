package cache

import (
	"bytes"
	"reflect"
	"testing"

	"optanestudy/internal/mem"
	"optanestudy/internal/sim"
)

func small(lines int) *LLC {
	cfg := DefaultConfig()
	cfg.Lines = lines
	return New(cfg)
}

func TestLLCInsertProbe(t *testing.T) {
	c := small(16)
	if c.Present(0) {
		t.Fatal("empty cache claims presence")
	}
	if _, ev := c.Insert(0); ev {
		t.Fatal("eviction from empty cache")
	}
	if !c.Present(0) || c.Dirty(0) {
		t.Fatal("inserted line missing or dirty")
	}
	// Duplicate insert is a no-op.
	if _, ev := c.Insert(0); ev {
		t.Fatal("duplicate insert evicted")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestLLCCapacityEviction(t *testing.T) {
	c := small(16)
	evictions := 0
	for i := int64(0); i < 64; i++ {
		if _, ev := c.Insert(i * mem.CacheLine); ev {
			evictions++
		}
	}
	if c.Len() != 16 {
		t.Fatalf("len = %d, want capacity 16", c.Len())
	}
	if evictions != 48 {
		t.Fatalf("evictions = %d, want 48", evictions)
	}
}

func TestLLCDirtyVictimCarriesData(t *testing.T) {
	c := small(16)
	payload := bytes.Repeat([]byte{0xAB}, 16)
	c.MarkDirty(0, 8, payload)
	// Fill to force eviction of line 0 eventually.
	sawDirtyVictim := false
	for i := int64(1); i < 200; i++ {
		v, ev := c.Insert(i * mem.CacheLine)
		if ev && v.Addr == 0 {
			if !v.Dirty {
				t.Fatal("line 0 evicted clean")
			}
			if !bytes.Equal(v.Data[8:24], payload) {
				t.Fatal("victim data lost")
			}
			sawDirtyVictim = true
			break
		}
	}
	if !sawDirtyVictim {
		t.Fatal("dirty line never evicted (random replacement should hit it)")
	}
}

func TestLLCWriteBack(t *testing.T) {
	c := small(16)
	c.MarkDirty(64, 0, []byte{1, 2, 3})
	data, mask, dirty := c.WriteBack(64)
	if !dirty || data[0] != 1 {
		t.Fatal("writeback lost data")
	}
	if mask != 0b111 {
		t.Fatalf("mask = %b, want low 3 bits", mask)
	}
	if c.Dirty(64) {
		t.Fatal("line still dirty after writeback")
	}
	if !c.Present(64) {
		t.Fatal("clwb must keep the line resident")
	}
	if _, _, dirty := c.WriteBack(64); dirty {
		t.Fatal("second writeback of clean line")
	}
	// After write-back, durable data is authoritative: overlay dropped.
	if d, _ := c.Data(64); d != nil {
		t.Fatal("overlay kept after writeback")
	}
}

func TestLLCEvict(t *testing.T) {
	c := small(16)
	c.MarkDirty(128, 2, []byte{9})
	data, mask, dirty := c.Evict(128)
	if !dirty || data[2] != 9 {
		t.Fatal("evict lost data")
	}
	if mask != 1<<2 {
		t.Fatalf("mask = %b", mask)
	}
	if c.Present(128) {
		t.Fatal("clflush must remove the line")
	}
	if _, _, dirty := c.Evict(128); dirty {
		t.Fatal("double evict reported dirty")
	}
}

func TestLLCDropAll(t *testing.T) {
	c := small(32)
	for i := int64(0); i < 10; i++ {
		c.MarkDirty(i*mem.CacheLine, 0, nil)
	}
	c.Insert(10 * mem.CacheLine)
	if lost := c.DropAll(); lost != 10 {
		t.Fatalf("lost = %d, want 10 dirty lines", lost)
	}
	if c.Len() != 0 {
		t.Fatal("cache not empty after crash")
	}
}

// refLLC is the reference the LLC is checked against: resident lines in a
// map, a dense key slice in replacement order (append on insert,
// swap-with-last on removal) and one seeded Intn over that slice per
// capacity eviction.
type refLLC struct {
	lines map[int64]*refLine
	keys  []int64
	pos   map[int64]int
	rng   *sim.RNG
	cap   int
}

type refLine struct {
	dirty bool
	data  []byte
	mask  uint64
}

func newRefLLC(cfg Config) *refLLC {
	r := &refLLC{rng: sim.NewRNG(cfg.Seed), cap: cfg.Lines}
	r.clear()
	return r
}

func (r *refLLC) clear() {
	r.lines, r.pos, r.keys = make(map[int64]*refLine), make(map[int64]int), r.keys[:0]
}

func (r *refLLC) remove(addr int64) *refLine {
	l := r.lines[addr]
	i, last := r.pos[addr], len(r.keys)-1
	r.keys[i] = r.keys[last]
	r.pos[r.keys[i]] = i
	r.keys = r.keys[:last]
	delete(r.pos, addr)
	delete(r.lines, addr)
	return l
}

func (r *refLLC) insert(addr int64) (Victim, bool) {
	if _, ok := r.lines[addr]; ok {
		return Victim{}, false
	}
	var v Victim
	evicted := false
	if len(r.keys) >= r.cap {
		va := r.keys[r.rng.Intn(len(r.keys))]
		l := r.remove(va)
		v, evicted = Victim{Addr: va, Dirty: l.dirty, Data: l.data, Mask: l.mask}, true
	}
	r.lines[addr] = &refLine{}
	r.pos[addr] = len(r.keys)
	r.keys = append(r.keys, addr)
	return v, evicted
}

func (r *refLLC) markDirty(addr int64, off int, data []byte) (Victim, bool) {
	v, evicted := r.insert(addr)
	l := r.lines[addr]
	l.dirty = true
	if data != nil {
		if l.data == nil {
			l.data = make([]byte, mem.CacheLine)
		}
		copy(l.data[off:], data)
		for i := range data {
			l.mask |= 1 << uint(off+i)
		}
	}
	return v, evicted
}

func (r *refLLC) writeBack(addr int64) ([]byte, uint64, bool) {
	l, ok := r.lines[addr]
	if !ok || !l.dirty {
		return nil, 0, false
	}
	data, mask := l.data, l.mask
	*l = refLine{}
	return data, mask, true
}

func (r *refLLC) evict(addr int64) ([]byte, uint64, bool) {
	if _, ok := r.lines[addr]; !ok {
		return nil, 0, false
	}
	l := r.remove(addr)
	return l.data, l.mask, l.dirty
}

// drain empties the cache, handing each dirty line with data to fn in
// replacement order, and returns the dirty-line count.
func (r *refLLC) drain(fn func(addr int64, data []byte, mask uint64)) int {
	dirty := 0
	for _, a := range r.keys {
		if l := r.lines[a]; l.dirty {
			dirty++
			if l.data != nil {
				fn(a, l.data, l.mask)
			}
		}
	}
	r.clear()
	return dirty
}

// The op kinds the differential tests replay.
const (
	opInsert = iota
	opMarkDirty
	opStore // MarkDirty with data
	opWriteBack
	opEvict
	opPresent
	opDirty
	opData
	opDropAll
	opFlushAll
	numOps
)

type llcOp struct {
	kind int
	addr int64
	off  int
	data []byte
}

// llcCaps are the capacities the differential tests cover: 16 fills its
// index to exactly half, 17 is not a power of two and grows its index on
// the last insert, and 1024 takes several doublings.
var llcCaps = []int{16, 17, 1024}

// llcAddr maps an address selector to a line address: dense lines, or
// lines a large power of two apart.
func llcAddr(sel int, stride bool) int64 {
	if stride {
		return int64(sel) << 24
	}
	return int64(sel) * mem.CacheLine
}

// sameOverlay reports whether two overlays agree on nil-ness and on every
// byte under the mask.
func sameOverlay(a, b []byte, mask uint64) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	for i := 0; a != nil && i < mem.CacheLine; i++ {
		if mask&(1<<uint(i)) != 0 && a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameVictim(a, b Victim) bool {
	return a.Addr == b.Addr && a.Dirty == b.Dirty && a.Mask == b.Mask && sameOverlay(a.Data, b.Data, a.Mask)
}

type flushed struct {
	addr int64
	mask uint64
	data []byte
}

// checkAgainstReference replays ops on a fresh LLC of the given capacity
// and on the reference, failing at the first return value that differs.
func checkAgainstReference(t *testing.T, capacity int, ops []llcOp) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Lines = capacity
	c, r := New(cfg), newRefLLC(cfg)
	for i, op := range ops {
		ok := true
		switch op.kind {
		case opInsert, opMarkDirty, opStore:
			var v, rv Victim
			var ev, rev bool
			if op.kind == opInsert {
				v, ev = c.Insert(op.addr)
				rv, rev = r.insert(op.addr)
			} else {
				v, ev = c.MarkDirty(op.addr, op.off, op.data)
				rv, rev = r.markDirty(op.addr, op.off, op.data)
			}
			ok = ev == rev && sameVictim(v, rv)
		case opWriteBack, opEvict:
			var d, rd []byte
			var m, rm uint64
			var dirty, rdirty bool
			if op.kind == opWriteBack {
				d, m, dirty = c.WriteBack(op.addr)
				rd, rm, rdirty = r.writeBack(op.addr)
			} else {
				d, m, dirty = c.Evict(op.addr)
				rd, rm, rdirty = r.evict(op.addr)
			}
			ok = m == rm && dirty == rdirty && sameOverlay(d, rd, m)
		case opPresent:
			_, want := r.lines[op.addr]
			ok = c.Present(op.addr) == want
		case opDirty:
			l := r.lines[op.addr]
			ok = c.Dirty(op.addr) == (l != nil && l.dirty)
		case opData:
			d, m := c.Data(op.addr)
			var rd []byte
			var rm uint64
			if l := r.lines[op.addr]; l != nil {
				rd, rm = l.data, l.mask
			}
			ok = m == rm && sameOverlay(d, rd, m)
		case opDropAll:
			want := r.drain(func(int64, []byte, uint64) {})
			ok = c.DropAll() == want
		case opFlushAll:
			var got, want []flushed
			record := func(out *[]flushed) func(int64, []byte, uint64) {
				return func(addr int64, data []byte, mask uint64) {
					*out = append(*out, flushed{addr, mask, data})
				}
			}
			ok = c.FlushAll(record(&got)) == r.drain(record(&want)) && len(got) == len(want)
			for j := 0; ok && j < len(got); j++ {
				ok = got[j].addr == want[j].addr && got[j].mask == want[j].mask &&
					sameOverlay(got[j].data, want[j].data, got[j].mask)
			}
		}
		if !ok || c.Len() != len(r.keys) {
			t.Fatalf("capacity %d, op %d (kind %d, addr %#x): LLC diverges from the reference (len %d, want %d)",
				capacity, i, op.kind, op.addr, c.Len(), len(r.keys))
		}
		if i%256 == 255 || i == len(ops)-1 {
			checkSlab(t, c, r)
		}
	}
}

// checkSlab fails unless the slab slots in use are exactly one per line
// the reference holds an overlay for: a freed overlay's slot goes back on
// the free list.
func checkSlab(t *testing.T, c *LLC, r *refLLC) {
	t.Helper()
	want := 0
	for _, l := range r.lines {
		if l.data != nil {
			want++
		}
	}
	if got := len(c.slab) - len(c.free); got != want {
		t.Fatalf("%d slab slots in use, want %d", got, want)
	}
}

// The LLC matches the reference on seeded random op sequences, over dense
// addresses and over addresses a power of two apart.
func TestLLCMatchesReference(t *testing.T) {
	for _, capacity := range llcCaps {
		for _, stride := range []bool{false, true} {
			for seed := uint64(1); seed <= 3; seed++ {
				rng := sim.NewRNG(seed)
				n := 20000
				ops := make([]llcOp, n)
				for i := range ops {
					op := llcOp{kind: rng.Intn(opDropAll), addr: llcAddr(rng.Intn(4*capacity), stride)}
					switch {
					case i == n/2:
						op.kind = opFlushAll
					case i == 3*n/4:
						op.kind = opDropAll
					case op.kind == opStore:
						op.off = rng.Intn(mem.CacheLine)
						op.data = make([]byte, 1+rng.Intn(mem.CacheLine-op.off))
						for j := range op.data {
							op.data[j] = byte(rng.Uint64())
						}
					}
					ops[i] = op
				}
				checkAgainstReference(t, capacity, ops)
			}
		}
	}
}

// decodeLLCOps turns fuzz bytes into a capacity and an op sequence. The
// first byte picks the capacity (low bits) and the address space (top
// bit); each following 5-byte group is one op: kind, a 16-bit address
// selector, and a store's offset and length.
func decodeLLCOps(b []byte) (int, []llcOp) {
	if len(b) == 0 {
		return llcCaps[0], nil
	}
	capacity := llcCaps[int(b[0]&0x7f)%len(llcCaps)]
	stride := b[0]&0x80 != 0
	var ops []llcOp
	for b = b[1:]; len(b) >= 5; b = b[5:] {
		sel := int(b[1]) | int(b[2])<<8
		op := llcOp{kind: int(b[0]) % numOps, addr: llcAddr(sel%(4*capacity), stride)}
		if op.kind == opStore {
			op.off = int(b[3]) % mem.CacheLine
			op.data = bytes.Repeat([]byte{b[4]}, 1+int(b[4])%(mem.CacheLine-op.off))
		}
		ops = append(ops, op)
	}
	return capacity, ops
}

// encodeLLCOp appends one op in decodeLLCOps's format.
func encodeLLCOp(b []byte, kind, sel int, off, n byte) []byte {
	return append(b, byte(kind), byte(sel), byte(sel>>8), off, n)
}

func FuzzLLCMatchesReference(f *testing.F) {
	// Evict everything: dirty 4x the capacity with data, then evict every
	// address and drain.
	seed := []byte{0}
	for sel := 0; sel < 64; sel++ {
		seed = encodeLLCOp(seed, opStore, sel, byte(sel), byte(sel))
	}
	for sel := 0; sel < 64; sel++ {
		seed = encodeLLCOp(seed, opEvict, sel, 0, 0)
	}
	f.Add(encodeLLCOp(seed, opFlushAll, 0, 0, 0))

	// Collide, then delete: insert the largest set of strided addresses
	// sharing one home slot, evict the chain's head so backward-shift
	// deletion moves the rest, then probe and evict them all.
	probe := small(16)
	probe.Insert(0)
	homes := map[int][]int{}
	best := 0
	for sel := 0; sel < 4*16; sel++ {
		h := probe.home(llcAddr(sel, true))
		homes[h] = append(homes[h], sel)
		if len(homes[h]) > len(homes[best]) {
			best = h
		}
	}
	chain := homes[best]
	seed = []byte{0x80}
	for _, sel := range chain {
		seed = encodeLLCOp(seed, opMarkDirty, sel, 0, 0)
	}
	seed = encodeLLCOp(seed, opEvict, chain[0], 0, 0)
	for _, sel := range chain {
		seed = encodeLLCOp(seed, opPresent, sel, 0, 0)
	}
	for _, sel := range chain[1:] {
		seed = encodeLLCOp(seed, opEvict, sel, 0, 0)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, b []byte) {
		capacity, ops := decodeLLCOps(b)
		checkAgainstReference(t, capacity, ops)
	})
}

// On a full LLC, eviction, dirtying (with and without store data),
// probing and evict/re-insert touch no Go heap.
func TestLLCZeroAlloc(t *testing.T) {
	c := small(1024)
	next := int64(0)
	fresh := func() int64 {
		next += mem.CacheLine
		return next
	}
	payload := bytes.Repeat([]byte{0x5A}, 24)
	for c.Len() < 1024 {
		c.MarkDirty(fresh(), 8, payload) // every line holds an overlay slot
	}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"insert-evict", func() { c.Insert(fresh()) }},
		{"mark-dirty", func() { c.MarkDirty(fresh(), 0, nil) }},
		{"mark-dirty-data", func() { c.MarkDirty(fresh(), 8, payload) }},
		{"present", func() { c.Present(next) }},
		{"evict-reinsert", func() { c.Evict(next); c.Insert(next) }},
	} {
		if avg := testing.AllocsPerRun(1000, tc.fn); avg != 0 {
			t.Errorf("%s: %.2f allocs per call, want 0", tc.name, avg)
		}
	}
	if c.Len() != 1024 {
		t.Fatalf("len = %d, want 1024", c.Len())
	}
}

// The eADR drain visits dirty lines in replacement order, so two
// identically seeded caches given the same operations drain in the same
// order.
func TestLLCFlushAllDeterministic(t *testing.T) {
	drain := func() []flushed {
		c := small(256)
		for i := int64(0); i < 512; i++ {
			c.MarkDirty(i*mem.CacheLine, int(i%mem.CacheLine), []byte{byte(i)})
		}
		var out []flushed
		if n := c.FlushAll(func(addr int64, data []byte, mask uint64) {
			out = append(out, flushed{addr: addr, mask: mask})
		}); n != 256 || len(out) != 256 {
			t.Fatalf("flushed %d lines (%d callbacks), want 256", n, len(out))
		}
		return out
	}
	if a, b := drain(), drain(); !reflect.DeepEqual(a, b) {
		t.Fatal("identically seeded LLCs drained in different orders")
	}
}

func TestWCBufferCompletesLine(t *testing.T) {
	w := NewWCBuffer()
	_, _, ok := w.Write(0, make([]byte, 32))
	if ok {
		t.Fatal("half-filled line flushed early")
	}
	addr, data, ok := w.Write(32, bytes.Repeat([]byte{7}, 32))
	if !ok || addr != 0 {
		t.Fatal("completed line not flushed")
	}
	if data[32] != 7 || len(data) != 64 {
		t.Fatal("flushed data wrong")
	}
	if w.Pending() != 0 {
		t.Fatal("pending after flush")
	}
}

func TestWCBufferFenceFlush(t *testing.T) {
	w := NewWCBuffer()
	w.Write(0, make([]byte, 8))
	w.Write(64, make([]byte, 8))
	w.Write(128, make([]byte, 8))
	// Completing the middle line leaves the others in fill order.
	if addr, _, ok := w.Write(72, make([]byte, 56)); !ok || addr != 64 {
		t.Fatal("middle line not completed")
	}
	var flushed []int64
	w.Flush(func(addr int64, data []byte, mask uint64) {
		flushed = append(flushed, addr)
		if mask == fullMask {
			t.Error("partial line reported full mask")
		}
	})
	if len(flushed) != 2 || flushed[0] != 0 || flushed[1] != 128 {
		t.Fatalf("flush order = %v", flushed)
	}
	if w.Pending() != 0 {
		t.Fatal("pending after fence")
	}
}

func TestWCBufferDrop(t *testing.T) {
	w := NewWCBuffer()
	w.Write(0, make([]byte, 8))
	w.Write(64, make([]byte, 8))
	if n := w.Drop(); n != 2 {
		t.Fatalf("dropped = %d", n)
	}
	if w.Pending() != 0 {
		t.Fatal("pending after drop")
	}
}

func TestWCBufferUnalignedSpans(t *testing.T) {
	w := NewWCBuffer()
	// Bytes 60..63 of line 0 — mask bits 60-63.
	_, _, ok := w.Write(60, []byte{1, 2, 3, 4})
	if ok {
		t.Fatal("partial flush")
	}
	// Complete the rest of line 0.
	addr, data, ok := w.Write(0, make([]byte, 60))
	if !ok || addr != 0 {
		t.Fatal("line not completed")
	}
	if data[60] != 1 || data[63] != 4 {
		t.Fatal("tail bytes lost")
	}
}
