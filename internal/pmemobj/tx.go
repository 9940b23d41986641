package pmemobj

import (
	"encoding/binary"
	"errors"

	"optanestudy/internal/platform"
	"optanestudy/internal/pmem"
)

// Undo-log transaction protocol (libpmemobj-style):
//
//  1. Before a range is modified, its old contents are appended to the
//     pool's log and persisted; then the entry count is bumped and
//     persisted (entries beyond the persisted count are garbage).
//  2. Modifications are applied in place through the transaction's data
//     persister (store+clwb by default; any pmem.Policy via BeginPolicy).
//  3. Commit persists all modifications, then zeroes the entry count.
//  4. Recovery (pool Open) applies valid undo entries newest-first and
//     zeroes the count, restoring pre-transaction state.
//
// Log layout: [8B count][entries...], entry = [8B off][8B len][old bytes,
// 16-byte aligned].
type Tx struct {
	pool *Pool
	ctx  *platform.MemCtx
	data *pmem.Persister // in-place modification policy

	logTail int64 // next free byte in the log area
	count   int64
	done    bool
	allocs  []int64 // payload offsets allocated in this tx (freed on abort)
	frees   []int64 // payload offsets freed at commit
	modMin  int64   // modified range for commit-time flush bookkeeping
	modMax  int64
	anyMods bool
	OnCrash func(stage string) // test hook: crash injection points
}

// ErrTxDone reports use of a finished transaction.
var ErrTxDone = errors.New("pmemobj: transaction already finished")

// Begin opens a transaction with the default store+clwb modification
// policy — the paper's pick for small in-place updates of cache-resident
// data. One transaction at a time per pool (the log area is
// single-streamed, like a PMDK pool per-thread lane).
func (p *Pool) Begin(ctx *platform.MemCtx) *Tx {
	return p.BeginPolicy(ctx, pmem.StoreFlush)
}

// BeginPolicy opens a transaction whose in-place modifications persist
// under the given policy. Crash atomicity holds for every policy (the undo
// log, not the modification sequence, carries it).
func (p *Pool) BeginPolicy(ctx *platform.MemCtx, pol pmem.Policy) *Tx {
	return &Tx{pool: p, ctx: ctx, data: pmem.NewPersister(pol), logTail: logOffset + 8}
}

func (t *Tx) crashPoint(stage string) {
	if t.OnCrash != nil {
		t.OnCrash(stage)
	}
}

// logEntry appends the old contents of [off, off+n) to the undo log.
func (t *Tx) logEntry(off int64, n int) error {
	need := int64(16) + align(n)
	if t.logTail+need > logOffset+logSize {
		return errors.New("pmemobj: transaction log full")
	}
	// Read the old bytes through a stack buffer, as pmemkv's chain probe
	// does: small in-place updates then allocate nothing.
	var buf [256]byte
	p := t.pool
	old := p.reg.LoadFit(t.ctx, off, n, buf[:])

	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(off))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(n))
	p.log.Write(t.ctx, p.reg, t.logTail, len(hdr), hdr[:])
	p.log.Write(t.ctx, p.reg, t.logTail+16, len(old), old)
	p.log.Fence(t.ctx)
	t.crashPoint("entry-logged")

	t.logTail += need
	t.count++
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(t.count))
	p.meta.Persist(t.ctx, p.reg, logOffset, len(cnt), cnt[:])
	t.crashPoint("count-bumped")
	return nil
}

// Update transactionally overwrites [off, off+len(data)).
func (t *Tx) Update(off int64, data []byte) error {
	if t.done {
		return ErrTxDone
	}
	if err := t.logEntry(off, len(data)); err != nil {
		return err
	}
	t.data.Write(t.ctx, t.pool.reg, off, len(data), data)
	t.crashPoint("modified")
	if !t.anyMods || off < t.modMin {
		t.modMin = off
	}
	if end := off + int64(len(data)); !t.anyMods || end > t.modMax {
		t.modMax = end
	}
	t.anyMods = true
	return nil
}

// Alloc allocates inside the transaction; the block is released if the
// transaction aborts (or never commits before a crash — see Commit).
func (t *Tx) Alloc(size int) (int64, error) {
	if t.done {
		return 0, ErrTxDone
	}
	off, err := t.pool.Alloc(t.ctx, size)
	if err == nil {
		t.allocs = append(t.allocs, off)
	}
	return off, err
}

// Free schedules a block release at commit time.
func (t *Tx) Free(payload int64) error {
	if t.done {
		return ErrTxDone
	}
	t.frees = append(t.frees, payload)
	return nil
}

// Commit makes every update durable and atomic, then truncates the log.
func (t *Tx) Commit() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	// Updates were staged and flushed as they were made; one fence settles
	// them all.
	t.data.Fence(t.ctx)
	t.crashPoint("pre-truncate")
	var zero [8]byte
	t.pool.meta.Persist(t.ctx, t.pool.reg, logOffset, len(zero), zero[:])
	t.crashPoint("committed")
	for _, payload := range t.frees {
		t.pool.Free(t.ctx, payload)
	}
	return nil
}

// Abort rolls the transaction back in place.
func (t *Tx) Abort() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	// Undo newest-first from the volatile view of the log.
	off := logOffset + int64(8)
	type entry struct {
		target int64
		data   []byte
	}
	var entries []entry
	for i := int64(0); i < t.count; i++ {
		var hdr [16]byte
		t.pool.reg.LoadInto(t.ctx, off, hdr[:])
		target := int64(binary.LittleEndian.Uint64(hdr[0:]))
		n := int64(binary.LittleEndian.Uint64(hdr[8:]))
		old := make([]byte, n)
		t.pool.reg.LoadInto(t.ctx, off+16, old)
		entries = append(entries, entry{target, old})
		off += 16 + align(int(n))
	}
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		t.pool.meta.Persist(t.ctx, t.pool.reg, e.target, len(e.data), e.data)
	}
	var zero [8]byte
	t.pool.meta.Persist(t.ctx, t.pool.reg, logOffset, len(zero), zero[:])
	for _, payload := range t.allocs {
		t.pool.Free(t.ctx, payload)
	}
	return nil
}

// recoverLog rolls back an interrupted transaction using only durable
// state. Called from Open before any new activity.
func (p *Pool) recoverLog() {
	var cnt [8]byte
	p.ns.ReadDurable(logOffset, cnt[:])
	count := int64(binary.LittleEndian.Uint64(cnt[:]))
	if count == 0 {
		return
	}
	off := logOffset + int64(8)
	type entry struct {
		target int64
		data   []byte
	}
	var entries []entry
	for i := int64(0); i < count; i++ {
		var hdr [16]byte
		p.ns.ReadDurable(off, hdr[:])
		target := int64(binary.LittleEndian.Uint64(hdr[0:]))
		n := int64(binary.LittleEndian.Uint64(hdr[8:]))
		if n <= 0 || n > logSize || target < 0 || target+n > p.ns.Size {
			break // trailing garbage past the last valid entry
		}
		old := make([]byte, n)
		p.ns.ReadDurable(off+16, old)
		entries = append(entries, entry{target, old})
		off += 16 + align(int(n))
	}
	for i := len(entries) - 1; i >= 0; i-- {
		p.ns.WriteDurable(entries[i].target, entries[i].data)
	}
	var zero [8]byte
	p.ns.WriteDurable(logOffset, zero[:])
}
