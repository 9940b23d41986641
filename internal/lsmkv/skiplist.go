// Package lsmkv is an LSM-tree key-value store in the style of RocksDB,
// built for the Section 4.2 / 5.1.1 experiments: a skiplist memtable that
// can live either in DRAM (volatile, paired with a write-ahead log) or in
// persistent memory (fine-grained persistence), plus sorted-table flushes,
// native sorted-range scans, tombstone deletes, and a db_bench-style SET
// workload.
package lsmkv

import (
	"bytes"
	"encoding/binary"
	"errors"

	"optanestudy/internal/platform"
	"optanestudy/internal/pmem"
	"optanestudy/internal/sim"
)

const (
	maxHeight = 12
	// Node layout: [2B keyLen][2B valLen][1B height][1B flags][2B pad]
	// [height × 8B next offsets][key][val]
	nodeHeaderSize = 8
	// nodeTombstone in the flags byte marks a delete marker.
	nodeTombstone = 1
)

// Skiplist is a memtable over a namespace-backed arena. In persistent mode
// node bodies stream through the non-temporal persister (fresh
// allocations) while the level-0 link persists through the store+clwb
// persister — the fine-grained approach whose small random writes the
// paper shows to be hostile to 3D XPoint.
type Skiplist struct {
	reg        pmem.Region
	persistent bool
	body       *pmem.Persister // node bodies (NT stream)
	link       *pmem.Persister // level-0 links (store+clwb)

	head   int64 // offset of head tower (region-relative)
	arena  int64 // bump frontier
	height int
	rng    *sim.RNG
	count  int
}

// NewSkiplist initializes an empty skiplist in [base, base+size) of ns.
func NewSkiplist(ctx *platform.MemCtx, ns *platform.Namespace, base, size int64, persistent bool, seed uint64) *Skiplist {
	s := attachSkiplist(ns, base, size, persistent, seed)
	s.height = 1
	// Head tower: full-height node with zero-length key.
	headSize := int64(nodeHeaderSize + maxHeight*8)
	s.arena = headSize
	hdr := make([]byte, headSize)
	hdr[4] = maxHeight
	s.write(ctx, s.head, hdr)
	s.count = 0
	return s
}

func attachSkiplist(ns *platform.Namespace, base, size int64, persistent bool, seed uint64) *Skiplist {
	reg, err := pmem.NewRegion(ns, base, size)
	if err != nil {
		panic(err)
	}
	return &Skiplist{
		reg: reg, persistent: persistent,
		body: pmem.NewPersister(pmem.NTStream),
		link: pmem.NewPersister(pmem.StoreFlush),
		head: 0, rng: sim.NewRNG(seed),
	}
}

func (s *Skiplist) write(ctx *platform.MemCtx, off int64, data []byte) {
	if s.persistent {
		s.link.Persist(ctx, s.reg, off, len(data), data)
	} else {
		s.reg.Store(ctx, off, len(data), data)
	}
}

// Count returns the number of entries (tombstones included).
func (s *Skiplist) Count() int { return s.count }

func (s *Skiplist) randomHeight() int {
	h := 1
	for h < maxHeight && s.rng.Bool(0.25) {
		h++
	}
	return h
}

type nodeRef struct {
	off    int64
	keyLen int
	valLen int
	height int
	tomb   bool
}

func (s *Skiplist) loadNode(ctx *platform.MemCtx, off int64) nodeRef {
	var hdr [nodeHeaderSize]byte
	s.reg.LoadInto(ctx, off, hdr[:])
	return nodeRef{
		off:    off,
		keyLen: int(binary.LittleEndian.Uint16(hdr[0:])),
		valLen: int(binary.LittleEndian.Uint16(hdr[2:])),
		height: int(hdr[4]),
		tomb:   hdr[5]&nodeTombstone != 0,
	}
}

func (s *Skiplist) nextOff(n nodeRef, level int) int64 {
	return n.off + nodeHeaderSize + int64(level)*8
}

func (s *Skiplist) loadNext(ctx *platform.MemCtx, n nodeRef, level int) int64 {
	var buf [8]byte
	s.reg.LoadInto(ctx, s.nextOff(n, level), buf[:])
	return int64(binary.LittleEndian.Uint64(buf[:]))
}

// nodeKeyInto loads n's key into buf when it fits, or into a fresh slice
// when it does not: lookups probe through a stack buffer and the memtable
// cursor through its own, so neither allocates per chain hop once warm.
func (s *Skiplist) nodeKeyInto(ctx *platform.MemCtx, n nodeRef, buf []byte) []byte {
	return s.reg.LoadFit(ctx, n.off+nodeHeaderSize+int64(n.height)*8, n.keyLen, buf)
}

// nodeValInto loads n's value the same way.
func (s *Skiplist) nodeValInto(ctx *platform.MemCtx, n nodeRef, buf []byte) []byte {
	return s.reg.LoadFit(ctx, n.off+nodeHeaderSize+int64(n.height)*8+int64(n.keyLen), n.valLen, buf)
}

// findPredecessors returns, per level, the node after which key belongs.
func (s *Skiplist) findPredecessors(ctx *platform.MemCtx, key []byte) [maxHeight]nodeRef {
	var preds [maxHeight]nodeRef
	var kbuf [64]byte
	cur := s.loadNode(ctx, s.head)
	for level := s.height - 1; level >= 0; level-- {
		for {
			nextOff := s.loadNext(ctx, cur, level)
			if nextOff == 0 {
				break
			}
			next := s.loadNode(ctx, nextOff)
			if bytes.Compare(s.nodeKeyInto(ctx, next, kbuf[:]), key) >= 0 {
				break
			}
			cur = next
		}
		preds[level] = cur
	}
	return preds
}

// ErrFull reports arena exhaustion (time to flush the memtable).
var ErrFull = errors.New("lsmkv: memtable full")

// Insert adds or updates key. Updates insert a new node version at the
// front of the equal-key run (newest wins on lookup), like RocksDB's
// memtable sequence ordering.
func (s *Skiplist) Insert(ctx *platform.MemCtx, key, val []byte) error {
	return s.insert(ctx, key, val, false)
}

// Delete inserts a tombstone for key: lookups see the key as gone, and the
// marker survives flushes so older SST versions stay shadowed.
func (s *Skiplist) Delete(ctx *platform.MemCtx, key []byte) error {
	return s.insert(ctx, key, nil, true)
}

func (s *Skiplist) insert(ctx *platform.MemCtx, key, val []byte, tomb bool) error {
	preds := s.findPredecessors(ctx, key)
	h := s.randomHeight()
	nodeSize := int64(nodeHeaderSize + h*8 + len(key) + len(val))
	nodeSize = (nodeSize + 7) &^ 7
	if s.arena+nodeSize > s.reg.Size() {
		return ErrFull
	}
	off := s.arena
	s.arena += nodeSize

	// Build and persist the node body before linking.
	buf := make([]byte, nodeSize)
	binary.LittleEndian.PutUint16(buf[0:], uint16(len(key)))
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(val)))
	buf[4] = byte(h)
	if tomb {
		buf[5] = nodeTombstone
	}
	for level := 0; level < h; level++ {
		var pred nodeRef
		if level < s.height {
			pred = preds[level]
		} else {
			pred = s.loadNode(ctx, s.head)
		}
		next := s.loadNext(ctx, pred, level)
		binary.LittleEndian.PutUint64(buf[nodeHeaderSize+level*8:], uint64(next))
	}
	copy(buf[nodeHeaderSize+h*8:], key)
	copy(buf[nodeHeaderSize+h*8+len(key):], val)
	if s.persistent {
		// Fresh allocation: stream the node body with non-temporal stores
		// (no ownership read of lines we fully overwrite); the fence is
		// shared with the level-0 link below.
		s.body.Write(ctx, s.reg, off, len(buf), buf)
	} else {
		s.reg.Store(ctx, off, len(buf), buf)
	}

	// Link bottom-up with 8-byte pointer updates. In persistent mode only
	// the level-0 link is persisted — upper levels are shortcuts that
	// recovery can tolerate stale (they always point at older, still
	// sorted nodes) — yet even so these are the small random writes that
	// Section 5.1 shows 3D XPoint handles poorly.
	var ptr [8]byte
	binary.LittleEndian.PutUint64(ptr[:], uint64(off))
	for level := 0; level < h; level++ {
		var pred nodeRef
		if level < s.height {
			pred = preds[level]
		} else {
			pred = s.loadNode(ctx, s.head)
		}
		if s.persistent {
			if level == 0 {
				s.link.Write(ctx, s.reg, s.nextOff(pred, 0), len(ptr), ptr[:])
			} else {
				s.reg.Store(ctx, s.nextOff(pred, level), len(ptr), ptr[:])
			}
		} else {
			s.write(ctx, s.nextOff(pred, level), ptr[:])
		}
	}
	if s.persistent {
		s.body.Fence(ctx) // settles the node body and the level-0 link together
	}
	if h > s.height {
		s.height = h
	}
	s.count++
	return nil
}

// Get returns the newest value for key in a fresh slice. A tombstoned key
// reads as absent (use Find when the caller must distinguish deletion from
// absence).
func (s *Skiplist) Get(ctx *platform.MemCtx, key []byte) ([]byte, bool) {
	val, ok, _ := s.Find(ctx, key, nil)
	return val, ok
}

// Find is the one lookup: it loads the newest value for key into dst when
// it fits, or into a fresh slice of the value's size when it does not, and
// returns it. A tombstone is reported separately so a layered store can
// stop its lookup instead of falling through to older tables.
func (s *Skiplist) Find(ctx *platform.MemCtx, key, dst []byte) (val []byte, ok, tomb bool) {
	preds := s.findPredecessors(ctx, key)
	nextOff := s.loadNext(ctx, preds[0], 0)
	if nextOff == 0 {
		return nil, false, false
	}
	n := s.loadNode(ctx, nextOff)
	var kbuf [64]byte
	if !bytes.Equal(s.nodeKeyInto(ctx, n, kbuf[:]), key) {
		return nil, false, false
	}
	if n.tomb {
		return nil, false, true
	}
	return s.nodeValInto(ctx, n, dst), true, false
}

// Recover rebuilds the volatile bookkeeping of a persistent skiplist from
// durable state by walking level 0 (used after a crash).
func RecoverSkiplist(ctx *platform.MemCtx, ns *platform.Namespace, base, size int64, seed uint64) *Skiplist {
	s := attachSkiplist(ns, base, size, true, seed)
	s.height = maxHeight
	headSize := int64(nodeHeaderSize + maxHeight*8)
	frontier := headSize
	cur := s.loadNode(ctx, s.head)
	for {
		nextOff := s.loadNext(ctx, cur, 0)
		if nextOff == 0 {
			break
		}
		cur = s.loadNode(ctx, nextOff)
		s.count++
		end := nextOff + int64(nodeHeaderSize+cur.height*8+cur.keyLen+cur.valLen)
		end = (end + 7) &^ 7
		if end > frontier {
			frontier = end
		}
	}
	s.arena = frontier
	return s
}
