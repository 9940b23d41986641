package lsmkv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"optanestudy/internal/platform"
	"optanestudy/internal/pmem"
	"optanestudy/internal/sim"
)

// Mode selects the persistence strategy under study (Section 4.2).
type Mode int

// Persistence strategies.
const (
	// ModeWALPOSIX: volatile memtable + a log file on a DAX file system:
	// write() copies into the file with cached stores and fsync() flushes
	// the range and commits a metadata journal transaction, all behind
	// syscall costs.
	ModeWALPOSIX Mode = iota
	// ModeWALFLEX: volatile memtable + the FLEX userspace log: records
	// append directly through the record persister (non-temporal stores
	// and a single fence by default); metadata updates happen only when
	// the log crosses an allocation unit.
	ModeWALFLEX
	// ModePersistentMemtable: skiplist directly in persistent memory, no
	// WAL (fine-grained persistence).
	ModePersistentMemtable
)

// ParseMode reads a mode by its scenario name: wal-posix, wal-flex or
// pmem-memtable.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "wal-posix":
		return ModeWALPOSIX, nil
	case "wal-flex":
		return ModeWALFLEX, nil
	case "pmem-memtable":
		return ModePersistentMemtable, nil
	}
	return 0, fmt.Errorf("unknown mode %q", name)
}

func (m Mode) String() string {
	switch m {
	case ModeWALPOSIX:
		return "WAL-POSIX"
	case ModeWALFLEX:
		return "WAL-FLEX"
	default:
		return "Persistent-skiplist"
	}
}

// Options configures a DB.
type Options struct {
	Mode Mode
	// PM is the persistent namespace (WAL / persistent memtable / SSTs).
	PM *platform.Namespace
	// DRAM backs the volatile memtable in the WAL modes.
	DRAM *platform.Namespace
	// MemtableBytes bounds the memtable before a flush (default 1 MB).
	MemtableBytes int64
	Seed          uint64
	// WALPolicy overrides the FLEX record-persist policy (default
	// NTStream); the WAL-recovery suite re-runs under every policy.
	WALPolicy *pmem.Policy
}

// Region layout inside PM: [WAL | memtable (if persistent) | SST area].
const (
	walRegion = 4 << 20
)

// DB is the LSM store.
type DB struct {
	opt  Options
	mu   sim.Mutex
	mem  *Skiplist
	wal  *WAL
	ssts []*sst

	// pmReg spans the PM namespace; sstPersister streams SST installs
	// through the non-temporal policy (bulk sequential writes, the access
	// pattern 3D XPoint likes).
	pmReg        pmem.Region
	sstPersister *pmem.Persister

	// What lookups and merges read through, guarded by mu and grown on
	// demand so that the serving read and scan paths amortize to zero
	// allocation: scratch stages SST record loads, memCur and tableCurs
	// are the merge's cursors (cursors lists them in precedence order),
	// and winKey and winVal are the merge's copy of the winning record.
	scratch        []byte
	memCur         memCursor
	tableCurs      []sstCursor
	cursors        []cursor
	winKey, winVal []byte

	memNS       *platform.Namespace
	memBase     int64
	sstNext     int64
	flushes     int
	compactions int
}

// sst is one immutable sorted table with a volatile index.
type sst struct {
	base  int64
	index []sstIndexEntry // every entry indexed (tables are small)
}

type sstIndexEntry struct {
	key  []byte
	off  int64
	tomb bool
}

// newDB checks opt and lays the DB out: PM holds [WAL | memtable (if
// persistent) | SST area], and a volatile memtable sits at the base of
// DRAM. Open and RecoverPersistent both start here.
func newDB(opt Options) (*DB, error) {
	if opt.PM == nil {
		return nil, errors.New("lsmkv: PM namespace required")
	}
	if opt.Mode != ModePersistentMemtable && opt.DRAM == nil {
		return nil, errors.New("lsmkv: DRAM namespace required for WAL modes")
	}
	if opt.MemtableBytes == 0 {
		opt.MemtableBytes = 1 << 20
	}
	db := &DB{
		opt:          opt,
		pmReg:        pmem.Whole(opt.PM),
		sstPersister: pmem.NewPersister(pmem.NTStream),
		memNS:        opt.DRAM,
		sstNext:      walRegion + opt.MemtableBytes,
	}
	if opt.Mode == ModePersistentMemtable {
		db.memNS, db.memBase = opt.PM, walRegion
	}
	return db, nil
}

// Open creates a fresh DB (RecoverWAL and RecoverPersistent reattach one
// after a crash).
func Open(ctx *platform.MemCtx, opt Options) (*DB, error) {
	db, err := newDB(opt)
	if err != nil {
		return nil, err
	}
	if opt.Mode != ModePersistentMemtable {
		pol := pmem.NTStream
		if opt.WALPolicy != nil {
			pol = *opt.WALPolicy
		}
		db.wal = NewWALPolicy(ctx, opt.PM, 0, walRegion, opt.Mode, pol)
	}
	db.mem = NewSkiplist(ctx, db.memNS, db.memBase, db.opt.MemtableBytes, db.wal == nil, opt.Seed)
	return db, nil
}

// Set durably inserts a key-value pair (sync per operation, like the
// paper's db_bench configuration). Values must stay below the 64 KB
// tombstone sentinel.
func (db *DB) Set(ctx *platform.MemCtx, key, val []byte) error {
	if len(val) >= tombstoneLen {
		return fmt.Errorf("lsmkv: %d-byte value collides with the tombstone sentinel (max %d)", len(val), tombstoneLen-1)
	}
	db.mu.Lock(ctx.Proc())
	defer db.mu.Unlock()
	return db.applyLocked(ctx, key, val, false)
}

// Delete durably removes key by writing a tombstone (RocksDB-style blind
// delete: no read of the prior value on the latency path).
func (db *DB) Delete(ctx *platform.MemCtx, key []byte) error {
	db.mu.Lock(ctx.Proc())
	defer db.mu.Unlock()
	return db.applyLocked(ctx, key, nil, true)
}

// applyLocked journals and applies one mutation, flushing the memtable and
// retrying once when the log or the memtable runs out of room.
func (db *DB) applyLocked(ctx *platform.MemCtx, key, val []byte, tomb bool) error {
	if db.wal != nil {
		rec := appendRecord(nil, key, val, tomb)
		err := db.wal.Append(ctx, rec)
		if err == ErrWALFull {
			if err = db.flushLocked(ctx); err == nil {
				err = db.wal.Append(ctx, rec)
			}
		}
		if err != nil {
			return err
		}
	}
	err := db.memInsert(ctx, key, val, tomb)
	if err == ErrFull {
		if err = db.flushLocked(ctx); err == nil {
			err = db.memInsert(ctx, key, val, tomb)
		}
	}
	return err
}

// memInsert applies one mutation to the memtable: the step a write and a
// WAL replay share.
func (db *DB) memInsert(ctx *platform.MemCtx, key, val []byte, tomb bool) error {
	if tomb {
		return db.mem.Delete(ctx, key)
	}
	return db.mem.Insert(ctx, key, val)
}

// Get returns the newest value for key in a fresh slice.
func (db *DB) Get(ctx *platform.MemCtx, key []byte) ([]byte, bool) { return db.get(ctx, key, nil) }

// GetInto loads the newest value for key into dst and returns its full
// length (ok reports presence); a value longer than dst fills dst with its
// prefix.
func (db *DB) GetInto(ctx *platform.MemCtx, key, dst []byte) (int, bool) {
	val, ok := db.get(ctx, key, dst)
	copy(dst, val)
	return len(val), ok
}

// get is the one lookup: memtable first, then tables newest-first, with a
// tombstone anywhere above an older version hiding it. The value lands in
// dst when it fits, or in a fresh slice of its size when it does not.
func (db *DB) get(ctx *platform.MemCtx, key, dst []byte) ([]byte, bool) {
	db.mu.Lock(ctx.Proc())
	defer db.mu.Unlock()
	if v, ok, tomb := db.mem.Find(ctx, key, dst); ok || tomb {
		return v, ok
	}
	for i := len(db.ssts) - 1; i >= 0; i-- {
		if v, ok, tomb := db.ssts[i].find(ctx, db.pmReg, key, dst, &db.scratch); ok || tomb {
			return v, ok
		}
	}
	return nil, false
}

// flushLocked writes the memtable to a fresh SST, truncates the WAL, and
// resets the memtable. Tombstones are carried into the table so they keep
// shadowing older versions.
func (db *DB) flushLocked(ctx *platform.MemCtx) error {
	db.cursors = append(db.cursors[:0], db.memCur.seek(ctx, db.mem, nil))
	table, err := db.writeTable(ctx, db.cursors, true)
	if err != nil {
		return err
	}
	if len(table.index) > 0 {
		db.ssts = append(db.ssts, table)
	}
	if len(db.ssts) > compactionTrigger {
		if err := db.compactLocked(ctx); err != nil {
			return err
		}
	}
	if db.wal != nil {
		db.wal.Truncate(ctx)
	}
	db.mem = NewSkiplist(ctx, db.memNS, db.memBase, db.opt.MemtableBytes, db.wal == nil, db.opt.Seed+uint64(db.flushes)+1)
	db.flushes++
	return nil
}

// Flush forces a memtable flush.
func (db *DB) Flush(ctx *platform.MemCtx) error {
	db.mu.Lock(ctx.Proc())
	defer db.mu.Unlock()
	return db.flushLocked(ctx)
}

// Flushes reports how many memtable flushes occurred.
func (db *DB) Flushes() int { return db.flushes }

// compactionTrigger is the L0 table count that starts a merge.
const compactionTrigger = 4

// compactLocked merges every SST into one (newest version of each key
// wins), writes it sequentially — the access pattern 3D XPoint likes —
// and retires the inputs. Tombstones drop out here: the merged table is
// the lowest level, so nothing older remains for them to shadow. Space
// management is generational: the merged table is appended and the old
// tables' space becomes reusable once the append frontier wraps (a full
// free-space map is future work, as in the original study's prototype).
func (db *DB) compactLocked(ctx *platform.MemCtx) error {
	if len(db.ssts) < 2 {
		return nil
	}
	db.cursors = db.tableCursors(db.cursors[:0], nil)
	merged, err := db.writeTable(ctx, db.cursors, false)
	if err != nil {
		return err
	}
	clear(db.tableCurs) // let the retired tables go
	db.ssts = nil
	if len(merged.index) > 0 {
		db.ssts = []*sst{merged}
	}
	db.compactions++
	return nil
}

// writeTable merges cursors into one table at the append frontier, each
// record framed as [4B len][record] and every key indexed with its
// tombstone bit, and installs it with one non-temporal persist. A merge
// that emits nothing leaves an empty table and writes nothing.
func (db *DB) writeTable(ctx *platform.MemCtx, cursors []cursor, keepTombs bool) (*sst, error) {
	table := &sst{base: db.sstNext}
	var buf []byte
	db.merge(ctx, cursors, keepTombs, math.MaxInt, func(key, val []byte, tomb bool) bool {
		at := len(buf)
		table.index = append(table.index, sstIndexEntry{key: bytes.Clone(key), off: int64(at), tomb: tomb})
		buf = appendRecord(append(buf, 0, 0, 0, 0), key, val, tomb)
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
		return true
	})
	size := int64(len(buf))
	if table.base+size > db.opt.PM.Size {
		return nil, errors.New("lsmkv: SST area exhausted")
	}
	if size > 0 {
		db.sstPersister.Persist(ctx, db.pmReg, table.base, len(buf), buf)
		db.sstNext += (size + 4095) &^ 4095
	}
	return table, nil
}

// Compactions reports how many SST merges occurred.
func (db *DB) Compactions() int { return db.compactions }

// Tables reports the current SST count.
func (db *DB) Tables() int { return len(db.ssts) }

// read loads the record behind one index entry into buf when it fits, or
// into a fresh slice when it does not, and returns it undecoded.
func (t *sst) read(ctx *platform.MemCtx, pm pmem.Region, ie sstIndexEntry, buf []byte) []byte {
	var n [4]byte
	pm.LoadInto(ctx, t.base+ie.off, n[:])
	return pm.LoadFit(ctx, t.base+ie.off+4, int(binary.LittleEndian.Uint32(n[:])), buf)
}

// find looks key up in the table. The record stages through scratch,
// grown on demand, and the value lands in dst when it fits, or in a fresh
// slice of its size when it does not.
func (t *sst) find(ctx *platform.MemCtx, pm pmem.Region, key, dst []byte, scratch *[]byte) (val []byte, ok, tomb bool) {
	i := sort.Search(len(t.index), func(i int) bool {
		return bytes.Compare(t.index[i].key, key) >= 0
	})
	if i >= len(t.index) || !bytes.Equal(t.index[i].key, key) {
		return nil, false, false
	}
	rec := t.read(ctx, pm, t.index[i], *scratch)
	*scratch = rec[:cap(rec)]
	k, v, tomb, err := decodeRecord(rec)
	if err != nil || !bytes.Equal(k, key) {
		return nil, false, false
	}
	if tomb {
		return nil, false, true
	}
	if len(v) > len(dst) {
		return bytes.Clone(v), true, false
	}
	return dst[:copy(dst, v)], true, false
}

// tombstoneLen is the valLen sentinel marking a delete record (values are
// therefore capped one byte short of 64 KB).
const tombstoneLen = 0xFFFF

// appendRecord appends one record, [2B keyLen][2B valLen][key][val], to
// dst. A tombstone carries the tombstoneLen sentinel and no value.
func appendRecord(dst, key, val []byte, tomb bool) []byte {
	vl := uint16(len(val))
	if tomb {
		val, vl = nil, tombstoneLen
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(key)))
	dst = binary.LittleEndian.AppendUint16(dst, vl)
	return append(append(dst, key...), val...)
}

func decodeRecord(rec []byte) (key, val []byte, tomb bool, err error) {
	if len(rec) < 4 {
		return nil, nil, false, fmt.Errorf("lsmkv: short record (%d bytes)", len(rec))
	}
	kl := int(binary.LittleEndian.Uint16(rec[0:]))
	vl := int(binary.LittleEndian.Uint16(rec[2:]))
	if vl == tombstoneLen {
		if 4+kl > len(rec) {
			return nil, nil, false, fmt.Errorf("lsmkv: corrupt tombstone")
		}
		return rec[4 : 4+kl], nil, true, nil
	}
	if 4+kl+vl > len(rec) {
		return nil, nil, false, fmt.Errorf("lsmkv: corrupt record")
	}
	return rec[4 : 4+kl], rec[4+kl : 4+kl+vl], false, nil
}

// RecoverWAL rebuilds a WAL-mode DB's memtable from the durable log after
// a crash, returning the recovered DB and how many records were replayed.
// Replay stops at the first record that does not decode or does not fit
// the memtable.
func RecoverWAL(ctx *platform.MemCtx, opt Options) (*DB, int, error) {
	if opt.Mode == ModePersistentMemtable {
		return nil, 0, errors.New("lsmkv: RecoverWAL is for WAL modes")
	}
	db, err := Open(ctx, opt)
	if err != nil {
		return nil, 0, err
	}
	n := 0
	err = db.wal.Replay(func(payload []byte) bool {
		k, v, tomb, derr := decodeRecord(payload)
		if derr != nil || db.memInsert(ctx, k, v, tomb) != nil {
			return false
		}
		db.wal.head += int64(8 + len(payload))
		n++
		return true
	})
	return db, n, err
}

// RecoverPersistent reattaches a persistent-memtable DB after a crash.
func RecoverPersistent(ctx *platform.MemCtx, opt Options) (*DB, error) {
	if opt.Mode != ModePersistentMemtable {
		return nil, errors.New("lsmkv: RecoverPersistent needs ModePersistentMemtable")
	}
	db, err := newDB(opt)
	if err != nil {
		return nil, err
	}
	db.mem = RecoverSkiplist(ctx, db.memNS, db.memBase, db.opt.MemtableBytes, opt.Seed)
	return db, nil
}
