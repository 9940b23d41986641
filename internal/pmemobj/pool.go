// Package pmemobj is a PMDK-libpmemobj-style persistent object library for
// the simulated platform: pools over pmem namespaces, a crash-consistent
// allocator, undo-log transactions, and the "micro-buffering" optimization
// the paper tunes in Section 5.2.1.
package pmemobj

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"optanestudy/internal/platform"
	"optanestudy/internal/pmem"
)

// Pool layout (offsets in bytes):
//
//	0    header: magic, version, root offset
//	4K   transaction log area (one per pool in this implementation)
//	64K  heap: blocks with 16-byte headers
const (
	headerSize = 4096
	logOffset  = headerSize
	logSize    = 60 * 1024
	heapOffset = logOffset + logSize

	poolMagic   = 0x504D4F424A313673 // "PMOBJ16s"
	headerRoot  = 16                 // root object offset field
	blockHeader = 16
)

// Block states in the persistent header.
const (
	blockFree  = 0xF1EE
	blockAlloc = 0xA110
)

// ErrCorrupt reports an unrecognized pool image.
var ErrCorrupt = errors.New("pmemobj: pool image corrupt")

// Pool is a persistent heap inside a namespace. Its persistence traffic
// goes through two pmem.Persister policies: meta (store+clwb — the small,
// cache-hot header/count/root updates) and log (non-temporal — the undo
// log's sequential entry stream), per the paper's instruction guidance.
type Pool struct {
	ns   *platform.Namespace
	reg  pmem.Region
	meta *pmem.Persister
	log  *pmem.Persister
	free []freeBlock // volatile free index, in address order
	head int64       // bump frontier
}

// freeBlock is a free heap block: its header offset and payload size.
type freeBlock struct{ off, size int64 }

func attachPool(ns *platform.Namespace) *Pool {
	return &Pool{
		ns:   ns,
		reg:  pmem.Whole(ns),
		meta: pmem.NewPersister(pmem.StoreFlush),
		log:  pmem.NewPersister(pmem.NTStream),
		head: heapOffset,
	}
}

// Create formats a namespace as an empty pool. Formatting uses durable
// writes (mkfs-style, not timed).
func Create(ns *platform.Namespace) (*Pool, error) {
	if ns.Size < heapOffset+4096 {
		return nil, fmt.Errorf("pmemobj: namespace too small (%d bytes)", ns.Size)
	}
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], poolMagic)
	binary.LittleEndian.PutUint64(hdr[8:], 1) // version
	binary.LittleEndian.PutUint64(hdr[16:], 0)
	ns.WriteDurable(0, hdr[:])
	var zero [8]byte
	ns.WriteDurable(logOffset, zero[:]) // empty undo log
	return attachPool(ns), nil
}

// Open attaches to an existing pool, running recovery: an interrupted
// transaction's undo log is rolled back, and the allocator index is rebuilt
// by scanning block headers.
func Open(ns *platform.Namespace) (*Pool, error) {
	var hdr [24]byte
	ns.ReadDurable(0, hdr[:])
	if binary.LittleEndian.Uint64(hdr[0:]) != poolMagic {
		return nil, ErrCorrupt
	}
	p := attachPool(ns)
	p.recoverLog()
	if err := p.rebuildHeap(); err != nil {
		return nil, err
	}
	return p, nil
}

// NS returns the backing namespace.
func (p *Pool) NS() *platform.Namespace { return p.ns }

// Region returns the pool's bounds-checked window (the whole namespace);
// stacks built on the pool do their own IO through it.
func (p *Pool) Region() pmem.Region { return p.reg }

// Root returns the root object offset (0 = unset).
func (p *Pool) Root(ctx *platform.MemCtx) int64 {
	var buf [8]byte
	p.reg.LoadInto(ctx, headerRoot, buf[:])
	return int64(binary.LittleEndian.Uint64(buf[:]))
}

// SetRoot durably points the pool at its root object.
func (p *Pool) SetRoot(ctx *platform.MemCtx, off int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(off))
	p.meta.Persist(ctx, p.reg, headerRoot, len(buf), buf[:])
}

// align rounds a user size up to a multiple of 16 bytes.
func align(n int) int64 { return int64((n + 15) &^ 15) }

// Alloc obtains a block of at least size bytes, persisting its header.
// The returned offset points at the usable payload.
func (p *Pool) Alloc(ctx *platform.MemCtx, size int) (int64, error) {
	if size <= 0 {
		return 0, errors.New("pmemobj: bad allocation size")
	}
	want := align(size)
	// First fit from the volatile free index: the lowest-addressed block
	// that fits, so the choice is a pure function of the pool's history.
	for i, b := range p.free {
		if b.size < want {
			continue
		}
		off, sz := b.off, b.size
		if sz > want+blockHeader+16 {
			// Split: the remainder is a fresh free block in the block's place.
			rest := freeBlock{off: off + blockHeader + want, size: sz - want - blockHeader}
			p.writeHeader(ctx, rest.off, rest.size, blockFree)
			p.free[i] = rest
			sz = want
		} else {
			p.free = slices.Delete(p.free, i, i+1)
		}
		p.writeHeader(ctx, off, sz, blockAlloc)
		return off + blockHeader, nil
	}
	// Bump allocation.
	off := p.head
	if off+blockHeader+want > p.ns.Size {
		return 0, errors.New("pmemobj: pool out of space")
	}
	p.head = off + blockHeader + want
	p.writeHeader(ctx, off, want, blockAlloc)
	return off + blockHeader, nil
}

// Free returns a block to the pool.
func (p *Pool) Free(ctx *platform.MemCtx, payload int64) {
	off := payload - blockHeader
	size, state := p.readHeaderDurable(off)
	if state != blockAlloc {
		panic(fmt.Sprintf("pmemobj: free of non-allocated block at %d", payload))
	}
	p.writeHeader(ctx, off, size, blockFree)
	i, _ := slices.BinarySearchFunc(p.free, off, func(b freeBlock, off int64) int { return cmp.Compare(b.off, off) })
	p.free = slices.Insert(p.free, i, freeBlock{off: off, size: size})
}

func (p *Pool) writeHeader(ctx *platform.MemCtx, off, size int64, state uint16) {
	var hdr [blockHeader]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(size))
	binary.LittleEndian.PutUint16(hdr[8:], state)
	p.meta.Persist(ctx, p.reg, off, len(hdr), hdr[:])
}

func (p *Pool) readHeaderDurable(off int64) (size int64, state uint16) {
	var hdr [blockHeader]byte
	p.ns.ReadDurable(off, hdr[:])
	return int64(binary.LittleEndian.Uint64(hdr[0:])), binary.LittleEndian.Uint16(hdr[8:])
}

// rebuildHeap scans block headers to rebuild the free index and frontier.
func (p *Pool) rebuildHeap() error {
	off := int64(heapOffset)
	for off+blockHeader <= p.ns.Size {
		size, state := p.readHeaderDurable(off)
		if state == 0 && size == 0 {
			break // untouched frontier
		}
		switch state {
		case blockFree:
			p.free = append(p.free, freeBlock{off: off, size: size}) // the scan runs in address order
		case blockAlloc:
			// live block
		default:
			return fmt.Errorf("%w: block header at %d", ErrCorrupt, off)
		}
		if size <= 0 || off+blockHeader+size > p.ns.Size {
			return fmt.Errorf("%w: block size at %d", ErrCorrupt, off)
		}
		off += blockHeader + size
	}
	p.head = off
	return nil
}

// AllocUsable reports the bytes remaining for bump allocation (test hook).
func (p *Pool) AllocUsable() int64 { return p.ns.Size - p.head }
