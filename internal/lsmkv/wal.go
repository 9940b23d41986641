package lsmkv

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"optanestudy/internal/platform"
	"optanestudy/internal/pmem"
	"optanestudy/internal/sim"
)

// Costs of the logging paths (CPU-side, per call).
const (
	posixWriteCost = 400 * sim.Nanosecond // syscall + VFS + page lookup
	posixFsyncCost = 600 * sim.Nanosecond // syscall + journal machinery
	recordCPUCost  = 60 * sim.Nanosecond  // record assembly + checksum
	flexAllocUnit  = 4096                 // metadata persist per 4 KB crossed
)

// WAL header layout: [8B head]. Records: [4B len][4B crc][payload].
const walHeaderSize = 64

// WAL is an append-only persistent log in a namespace region. Its record
// stream goes through the rec persister (non-temporal by default — a FLEX
// append is a sequential stream of fresh bytes) and its small metadata
// persists through the meta persister (store+clwb).
type WAL struct {
	reg  pmem.Region
	mode Mode  // ModeWALPOSIX, or a FLEX append for any other mode
	head int64 // volatile copy of the durable head
	rec  *pmem.Persister
	meta *pmem.Persister
	// jnl streams the POSIX-mode journal blocks; pinned to NTStream so the
	// modeled ext4 commit is independent of the record policy.
	jnl *pmem.Persister
}

// NewWALPolicy initializes an empty log at [base, base+size) whose FLEX
// record stream persists under the given pmem policy (the WAL-recovery
// suites re-run under every policy). WAL-POSIX ignores it: its write path
// is cached stores by construction.
func NewWALPolicy(ctx *platform.MemCtx, ns *platform.Namespace, base, size int64, mode Mode, pol pmem.Policy) *WAL {
	reg, err := pmem.NewRegion(ns, base, size)
	if err != nil {
		panic(err)
	}
	w := &WAL{
		reg:  reg,
		mode: mode,
		rec:  pmem.NewPersister(pol),
		meta: pmem.NewPersister(pmem.StoreFlush),
		jnl:  pmem.NewPersister(pmem.NTStream),
	}
	var hdr [8]byte
	w.meta.Persist(ctx, w.reg, 0, len(hdr), hdr[:])
	return w
}

// ErrWALFull reports log-space exhaustion.
var ErrWALFull = errors.New("lsmkv: WAL full")

// Append durably adds one record (the Set path syncs every operation, as
// in the paper's db_bench configuration).
func (w *WAL) Append(ctx *platform.MemCtx, payload []byte) error {
	recSize := int64(8 + len(payload))
	if walHeaderSize+w.head+recSize > w.reg.Size() {
		return ErrWALFull
	}
	off := walHeaderSize + w.head
	rec := make([]byte, recSize)
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))
	copy(rec[8:], payload)

	ctx.Proc().Sleep(recordCPUCost)
	switch w.mode {
	case ModeWALPOSIX:
		ctx.Proc().Sleep(posixWriteCost)
		w.reg.Store(ctx, off, len(rec), rec)
		// fsync: flush the data range, then commit the file-system
		// journal (two metadata blocks and a commit record).
		ctx.Proc().Sleep(posixFsyncCost)
		w.meta.Flush(ctx, w.reg, off, len(rec))
		w.meta.Fence(ctx)
		w.journalCommit(ctx)
	default:
		w.rec.Persist(ctx, w.reg, off, len(rec), rec)
		if (w.head+recSize)/flexAllocUnit != w.head/flexAllocUnit {
			// Crossed an allocation unit: persist the file size.
			var sz [8]byte
			binary.LittleEndian.PutUint64(sz[:], uint64(w.head+recSize))
			w.meta.Persist(ctx, w.reg, 0, len(sz), sz[:])
		}
	}
	w.head += recSize
	return nil
}

// journalCommit models an ext4-style journaled metadata commit: two
// metadata blocks plus a commit record, each persisted in order.
func (w *WAL) journalCommit(ctx *platform.MemCtx) {
	// The journal lives in the tail of the WAL region.
	jbase := w.reg.Size() - 4096
	for b := 0; b < 2; b++ {
		w.jnl.Write(ctx, w.reg, jbase+int64(b)*256, 256, nil)
	}
	w.jnl.Fence(ctx)
	w.jnl.Persist(ctx, w.reg, jbase+1024, 64, nil)
}

// Truncate durably resets the log (after a memtable flush).
func (w *WAL) Truncate(ctx *platform.MemCtx) {
	var hdr [8]byte
	w.meta.Persist(ctx, w.reg, 0, len(hdr), hdr[:])
	w.head = 0
}

// Replay iterates the durable records (recovery path, untimed).
func (w *WAL) Replay(fn func(payload []byte) bool) error {
	off := int64(walHeaderSize)
	end := w.reg.Size()
	for off+8 <= end {
		var hdr [8]byte
		w.reg.ReadDurable(off, hdr[:])
		n := int64(binary.LittleEndian.Uint32(hdr[0:]))
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if n == 0 || off+8+n > end {
			return nil // end of log
		}
		payload := make([]byte, n)
		w.reg.ReadDurable(off+8, payload)
		if crc32.ChecksumIEEE(payload) != crc {
			return nil // torn tail record: stop replay
		}
		if !fn(payload) {
			return nil
		}
		off += 8 + n
	}
	return nil
}
