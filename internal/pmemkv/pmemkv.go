// Package pmemkv is a persistent key-value store in the style of Intel's
// PMemKV "cmap" engine (Section 5.4.1): a fixed-size bucket array of
// persistent entry chains built on the pmemobj pool, with striped locks
// for concurrency.
//
// Crash consistency: an entry is fully persisted before it is linked into
// its bucket with a single 8-byte pointer persist; in-place value updates
// go through the pool's undo log.
package pmemkv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"optanestudy/internal/platform"
	"optanestudy/internal/pmem"
	"optanestudy/internal/pmemobj"
	"optanestudy/internal/sim"
)

// Entry layout: [8B next][8B hash][4B keyLen][4B valLen][key][val].
const entryHeader = 24

// CMap is the concurrent hash map engine. Entry bodies stream with the
// non-temporal policy (fresh allocations, fully overwritten); the 8-byte
// link swaps go through the store+clwb policy (small, cache-hot pointers).
type CMap struct {
	pool     *pmemobj.Pool
	reg      pmem.Region
	entry    *pmem.Persister
	link     *pmem.Persister
	tableOff int64
	buckets  int64
	locks    []sim.Mutex
	bufs     [][]byte // entry build buffers finished Puts gave back
}

const cmapMagic = 0x434D4150 // "CMAP"

// CreateCMap formats a cmap with the given bucket count in the pool and
// installs it as the pool root.
func CreateCMap(ctx *platform.MemCtx, pool *pmemobj.Pool, buckets int) (*CMap, error) {
	if buckets < 1 {
		return nil, errors.New("pmemkv: bucket count must be positive")
	}
	// Table: [4B magic][4B bucket count][buckets × 8B heads].
	tableSize := 8 + buckets*8
	off, err := pool.Alloc(ctx, tableSize)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, tableSize)
	binary.LittleEndian.PutUint32(hdr[0:], cmapMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(buckets))
	m := attach(pool, off, int64(buckets))
	m.entry.Persist(ctx, m.reg, off, len(hdr), hdr)
	pool.SetRoot(ctx, off)
	return m, nil
}

// OpenCMap attaches to the cmap previously installed as the pool root.
func OpenCMap(ctx *platform.MemCtx, pool *pmemobj.Pool) (*CMap, error) {
	off := pool.Root(ctx)
	if off == 0 {
		return nil, errors.New("pmemkv: pool has no root object")
	}
	var hdr [8]byte
	pool.Region().LoadInto(ctx, off, hdr[:])
	if binary.LittleEndian.Uint32(hdr[0:]) != cmapMagic {
		return nil, fmt.Errorf("pmemkv: root object is not a cmap")
	}
	buckets := int64(binary.LittleEndian.Uint32(hdr[4:]))
	return attach(pool, off, buckets), nil
}

func attach(pool *pmemobj.Pool, off, buckets int64) *CMap {
	nlocks := 64
	if int64(nlocks) > buckets {
		nlocks = int(buckets)
	}
	return &CMap{
		pool:     pool,
		reg:      pool.Region(),
		entry:    pmem.NewPersister(pmem.NTStream),
		link:     pmem.NewPersister(pmem.StoreFlush),
		tableOff: off, buckets: buckets, locks: make([]sim.Mutex, nlocks),
	}
}

func hashKey(key []byte) uint64 {
	var h uint64 = 14695981039346656037
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func (m *CMap) bucketOff(h uint64) int64 {
	return m.tableOff + 8 + int64(h%uint64(m.buckets))*8
}

func (m *CMap) lockFor(h uint64) *sim.Mutex {
	return &m.locks[h%uint64(m.buckets)%uint64(len(m.locks))]
}

func (m *CMap) readPtr(ctx *platform.MemCtx, off int64) int64 {
	var buf [8]byte
	m.reg.LoadInto(ctx, off, buf[:])
	return int64(binary.LittleEndian.Uint64(buf[:]))
}

func (m *CMap) writePtr(ctx *platform.MemCtx, off, val int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(val))
	m.link.Persist(ctx, m.reg, off, len(buf), buf[:])
}

type entryMeta struct {
	off          int64
	next         int64
	hash         uint64
	keyLen, vLen int
}

func (m *CMap) readMeta(ctx *platform.MemCtx, off int64) entryMeta {
	var hdr [entryHeader]byte
	m.reg.LoadInto(ctx, off, hdr[:])
	return entryMeta{
		off:    off,
		next:   int64(binary.LittleEndian.Uint64(hdr[0:])),
		hash:   binary.LittleEndian.Uint64(hdr[8:]),
		keyLen: int(binary.LittleEndian.Uint32(hdr[16:])),
		vLen:   int(binary.LittleEndian.Uint32(hdr[20:])),
	}
}

// find walks the chain for key; returns the entry and the offset of the
// pointer that references it (bucket head or predecessor's next field).
func (m *CMap) find(ctx *platform.MemCtx, key []byte) (entryMeta, int64, bool) {
	h := hashKey(key)
	ptrOff := m.bucketOff(h)
	cur := m.readPtr(ctx, ptrOff)
	for cur != 0 {
		meta := m.readMeta(ctx, cur)
		if meta.hash == h && meta.keyLen == len(key) {
			// Probe keys through a stack buffer: find is on the serving hot
			// path and must not allocate per chain hop.
			var kbuf [64]byte
			if bytes.Equal(m.reg.LoadFit(ctx, cur+entryHeader, meta.keyLen, kbuf[:]), key) {
				return meta, ptrOff, true
			}
		}
		ptrOff = cur // next pointer is the first field of the entry
		cur = meta.next
	}
	return entryMeta{}, 0, false
}

// Get returns the value for key in a fresh slice.
func (m *CMap) Get(ctx *platform.MemCtx, key []byte) ([]byte, bool) { return m.get(ctx, key, nil) }

// GetInto loads the value for key into dst and returns its full length
// (ok reports presence); a value longer than dst fills dst with its
// prefix.
func (m *CMap) GetInto(ctx *platform.MemCtx, key, dst []byte) (int, bool) {
	val, ok := m.get(ctx, key, dst)
	copy(dst, val)
	return len(val), ok
}

// get is the one lookup: it loads the value into dst when it fits, or into
// a fresh slice of the value's size when it does not, and returns it.
func (m *CMap) get(ctx *platform.MemCtx, key, dst []byte) ([]byte, bool) {
	lock := m.lockFor(hashKey(key))
	lock.Lock(ctx.Proc())
	defer lock.Unlock()
	meta, _, ok := m.find(ctx, key)
	if !ok {
		return nil, false
	}
	return m.reg.LoadFit(ctx, meta.off+entryHeader+int64(meta.keyLen), meta.vLen, dst), true
}

// Put inserts or updates key. Same-size updates happen in place through
// the undo log; size changes allocate a replacement entry and swap the
// link.
func (m *CMap) Put(ctx *platform.MemCtx, key, val []byte) error {
	h := hashKey(key)
	lock := m.lockFor(h)
	lock.Lock(ctx.Proc())
	defer lock.Unlock()

	meta, ptrOff, ok := m.find(ctx, key)
	if ok && meta.vLen == len(val) {
		tx := m.pool.Begin(ctx)
		if err := tx.Update(meta.off+entryHeader+int64(meta.keyLen), val); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	}
	// Build the new entry fully, persist it, then link it.
	size := entryHeader + len(key) + len(val)
	newOff, err := m.pool.Alloc(ctx, size)
	if err != nil {
		return err
	}
	buf := m.entryBuf(size)
	next := int64(0)
	if ok {
		next = meta.next // replacement keeps the tail of the chain
	} else {
		next = m.readPtr(ctx, m.bucketOff(h))
	}
	binary.LittleEndian.PutUint64(buf[0:], uint64(next))
	binary.LittleEndian.PutUint64(buf[8:], h)
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[20:], uint32(len(val)))
	copy(buf[entryHeader:], key)
	copy(buf[entryHeader+len(key):], val)
	m.entry.Persist(ctx, m.reg, newOff, len(buf), buf)
	m.bufs = append(m.bufs, buf)
	if ok {
		m.writePtr(ctx, ptrOff, newOff) // atomic swap unlinks the old entry
		m.pool.Free(ctx, meta.off)
	} else {
		m.writePtr(ctx, m.bucketOff(h), newOff)
	}
	return nil
}

// entryBuf returns a size-byte buffer to build an entry in, reusing one a
// finished Put gave back. A Put keeps its buffer across the yields of its
// persist, so Puts in flight on other threads each hold their own.
func (m *CMap) entryBuf(size int) []byte {
	if n := len(m.bufs); n > 0 {
		b := m.bufs[n-1]
		m.bufs = m.bufs[:n-1]
		if cap(b) >= size {
			return b[:size]
		}
	}
	return make([]byte, size)
}

// Delete removes key, reporting whether it existed.
func (m *CMap) Delete(ctx *platform.MemCtx, key []byte) bool {
	lock := m.lockFor(hashKey(key))
	lock.Lock(ctx.Proc())
	defer lock.Unlock()
	meta, ptrOff, ok := m.find(ctx, key)
	if !ok {
		return false
	}
	m.writePtr(ctx, ptrOff, meta.next)
	m.pool.Free(ctx, meta.off)
	return true
}

// Count walks every bucket and returns the number of entries (recovery
// check; O(n)).
func (m *CMap) Count(ctx *platform.MemCtx) int {
	n := 0
	for b := int64(0); b < m.buckets; b++ {
		cur := m.readPtr(ctx, m.tableOff+8+b*8)
		for cur != 0 {
			n++
			cur = m.readMeta(ctx, cur).next
		}
	}
	return n
}
