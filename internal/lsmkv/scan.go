package lsmkv

import (
	"bytes"
	"sort"

	"optanestudy/internal/platform"
)

// cursor is one sorted source of a merge: entries in ascending key order,
// newest version first where the source holds several.
type cursor interface {
	// peek returns the current entry's key and tombstone bit; ok is false
	// once the source is exhausted.
	peek() (key []byte, tomb, ok bool)
	// value loads the current entry's value.
	value(ctx *platform.MemCtx) []byte
	advance(ctx *platform.MemCtx)
}

// memCursor walks a skiplist's level-0 chain, loading each entry's header,
// key and value as it steps onto it, into buffers the DB owns. The native
// scans of service/kv/lsmkv-scan walk it inside the neutrality guard, so
// its loads and their order are pinned by the guard's baseline.
type memCursor struct {
	s        *Skiplist
	cur      nodeRef
	key, val []byte
	done     bool
}

// seek positions c on s's first entry with key ≥ start and returns it; a
// nil start walks from the head tower, over the whole memtable.
func (c *memCursor) seek(ctx *platform.MemCtx, s *Skiplist, start []byte) cursor {
	c.s, c.done = s, false
	if start == nil {
		c.cur = s.loadNode(ctx, s.head)
	} else {
		c.cur = s.findPredecessors(ctx, start)[0]
	}
	c.step(ctx)
	return c
}

func (c *memCursor) step(ctx *platform.MemCtx) {
	nextOff := c.s.loadNext(ctx, c.cur, 0)
	if nextOff == 0 {
		c.done = true
		return
	}
	c.cur = c.s.loadNode(ctx, nextOff)
	c.key = c.s.nodeKeyInto(ctx, c.cur, c.key[:cap(c.key)])
	c.val = c.s.nodeValInto(ctx, c.cur, c.val[:cap(c.val)])
}

func (c *memCursor) peek() ([]byte, bool, bool) { return c.key, c.cur.tomb, !c.done }

func (c *memCursor) value(*platform.MemCtx) []byte { return c.val }

func (c *memCursor) advance(ctx *platform.MemCtx) {
	if !c.done {
		c.step(ctx)
	}
}

// sstCursor walks one table in key order on its in-DRAM index, which
// carries each key's tombstone bit, so it loads a record from PM only
// when the merge emits it.
type sstCursor struct {
	db *DB
	t  *sst
	i  int
}

func (c *sstCursor) peek() ([]byte, bool, bool) {
	if c.i >= len(c.t.index) {
		return nil, false, false
	}
	e := &c.t.index[c.i]
	return e.key, e.tomb, true
}

func (c *sstCursor) value(ctx *platform.MemCtx) []byte {
	rec := c.t.read(ctx, c.db.pmReg, c.t.index[c.i], c.db.scratch)
	c.db.scratch = rec[:cap(rec)]
	_, v, _, err := decodeRecord(rec)
	if err != nil {
		panic(err) // the index was built from the very bytes the table holds
	}
	return v
}

func (c *sstCursor) advance(*platform.MemCtx) { c.i++ }

// tableCursors appends to cs a cursor per table, newest first, each at
// the table's first key ≥ start.
func (db *DB) tableCursors(cs []cursor, start []byte) []cursor {
	if len(db.tableCurs) < len(db.ssts) {
		db.tableCurs = make([]sstCursor, len(db.ssts))
	}
	for j := range db.ssts {
		t := db.ssts[len(db.ssts)-1-j]
		db.tableCurs[j] = sstCursor{db: db, t: t, i: sort.Search(len(t.index), func(i int) bool {
			return bytes.Compare(t.index[i].key, start) >= 0
		})}
		cs = append(cs, &db.tableCurs[j])
	}
	return cs
}

// Scan streams up to n live records with key ≥ start through fn in
// ascending key order, merging the memtable with every SST — the native
// sorted-range scan (an LSM range read), as opposed to synthesizing a
// range as n point lookups. For duplicate keys the newest source wins and
// tombstones shadow older versions (and are not counted). Returns the
// number of records emitted; fn returning false stops early. fn's key and
// val are valid only until it returns.
func (db *DB) Scan(ctx *platform.MemCtx, start []byte, n int, fn func(key, val []byte) bool) int {
	db.mu.Lock(ctx.Proc())
	defer db.mu.Unlock()
	db.cursors = db.tableCursors(append(db.cursors[:0], db.memCur.seek(ctx, db.mem, start)), start)
	return db.merge(ctx, db.cursors, false, n, func(key, val []byte, _ bool) bool { return fn(key, val) })
}

// merge is the LSM's one producer of sorted runs: the native scan, a
// flush and a compaction all drive it. It streams up to n records from
// cursors through fn in ascending key order and returns how many fn saw;
// fn returning false stops it early. cursors are in precedence order,
// newest first: where several hold a key, the first one's version wins
// and the rest are skipped. A winning tombstone reaches fn only when
// keepTombs is set (a flush carries tombstones so they keep shadowing
// older tables); otherwise it hides the key and is not counted. The
// winner's value is loaded only when fn will see it.
func (db *DB) merge(ctx *platform.MemCtx, cursors []cursor, keepTombs bool, n int, fn func(key, val []byte, tomb bool) bool) int {
	emitted := 0
	for emitted < n {
		var win cursor
		var minKey []byte
		var tomb bool
		for _, c := range cursors {
			if k, t, ok := c.peek(); ok && (win == nil || bytes.Compare(k, minKey) < 0) {
				win, minKey, tomb = c, k, t
			}
		}
		if win == nil {
			break // every source exhausted
		}
		// Advancing a cursor overwrites its buffers, so the merge keeps its
		// own copy of the winner before consuming the key from every source.
		db.winKey = append(db.winKey[:0], minKey...)
		db.winVal = db.winVal[:0]
		if !tomb {
			db.winVal = append(db.winVal, win.value(ctx)...)
		}
		for _, c := range cursors {
			for k, _, ok := c.peek(); ok && bytes.Equal(k, db.winKey); k, _, ok = c.peek() {
				c.advance(ctx)
			}
		}
		if tomb && !keepTombs {
			continue
		}
		emitted++
		if !fn(db.winKey, db.winVal, tomb) {
			break
		}
	}
	return emitted
}
