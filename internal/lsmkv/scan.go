package lsmkv

import (
	"bytes"
	"sort"

	"optanestudy/internal/platform"
)

// cursor is one source of sorted records for the merge scan.
type cursor interface {
	// peek returns the current record without advancing; ok is false when
	// the source is exhausted.
	peek(ctx *platform.MemCtx) (key, val []byte, tomb, ok bool)
	advance(ctx *platform.MemCtx)
}

// memCursor walks a skiplist's level-0 chain from a start key.
type memCursor struct {
	s   *Skiplist
	cur nodeRef
	// loaded caches the current node's key/val to avoid re-reading on
	// repeated peeks.
	key, val []byte
	tomb     bool
	done     bool
	primed   bool
}

func newMemCursor(ctx *platform.MemCtx, s *Skiplist, start []byte) *memCursor {
	preds := s.findPredecessors(ctx, start)
	return &memCursor{s: s, cur: preds[0]}
}

func (c *memCursor) step(ctx *platform.MemCtx) {
	nextOff := c.s.loadNext(ctx, c.cur, 0)
	if nextOff == 0 {
		c.done = true
		return
	}
	c.cur = c.s.loadNode(ctx, nextOff)
	c.key = c.s.nodeKeyInto(ctx, c.cur, nil)
	c.val = c.s.nodeValInto(ctx, c.cur, nil)
	c.tomb = c.cur.tomb
}

func (c *memCursor) peek(ctx *platform.MemCtx) ([]byte, []byte, bool, bool) {
	if !c.primed {
		c.primed = true
		c.step(ctx)
	}
	if c.done {
		return nil, nil, false, false
	}
	return c.key, c.val, c.tomb, true
}

func (c *memCursor) advance(ctx *platform.MemCtx) {
	if c.primed && !c.done {
		c.step(ctx)
	}
}

// sstCursor walks one table's index from the first key ≥ start.
type sstCursor struct {
	t        *sst
	db       *DB
	i        int
	key, val []byte
	tomb     bool
	loaded   bool
}

func newSSTCursor(t *sst, db *DB, start []byte) *sstCursor {
	i := sort.Search(len(t.index), func(i int) bool {
		return bytes.Compare(t.index[i].key, start) >= 0
	})
	return &sstCursor{t: t, db: db, i: i}
}

func (c *sstCursor) peek(ctx *platform.MemCtx) ([]byte, []byte, bool, bool) {
	if c.i >= len(c.t.index) {
		return nil, nil, false, false
	}
	if !c.loaded {
		k, v, tomb, err := decodeRecord(c.t.read(ctx, c.db.pmReg, c.t.index[c.i], nil))
		if err != nil {
			c.i = len(c.t.index)
			return nil, nil, false, false
		}
		c.key, c.val, c.tomb, c.loaded = k, v, tomb, true
	}
	return c.key, c.val, c.tomb, true
}

func (c *sstCursor) advance(*platform.MemCtx) {
	c.i++
	c.loaded = false
}

// Scan streams up to n live records with key ≥ start through fn in
// ascending key order, merging the memtable with every SST — the native
// sorted-range scan (an LSM range read), as opposed to synthesizing a
// range as n point lookups. For duplicate keys the newest source wins and
// tombstones shadow older versions (and are not counted). Returns the
// number of records emitted; fn returning false stops early.
func (db *DB) Scan(ctx *platform.MemCtx, start []byte, n int, fn func(key, val []byte) bool) int {
	db.mu.Lock(ctx.Proc())
	defer db.mu.Unlock()
	// Cursors in newest-first precedence order: memtable, then SSTs from
	// newest to oldest.
	cursors := make([]cursor, 0, 1+len(db.ssts))
	cursors = append(cursors, newMemCursor(ctx, db.mem, start))
	for i := len(db.ssts) - 1; i >= 0; i-- {
		cursors = append(cursors, newSSTCursor(db.ssts[i], db, start))
	}
	emitted := 0
	for emitted < n {
		// Find the smallest current key; precedence order breaks ties.
		var minKey []byte
		winner := -1
		var winVal []byte
		var winTomb bool
		for i, c := range cursors {
			k, v, tomb, ok := c.peek(ctx)
			if !ok {
				continue
			}
			if winner == -1 || bytes.Compare(k, minKey) < 0 {
				minKey, winner, winVal, winTomb = k, i, v, tomb
			}
		}
		if winner == -1 {
			break // every source exhausted
		}
		// Consume this key from every source (duplicates in the memtable
		// sit adjacent, newest first — the first peek already won).
		for _, c := range cursors {
			for {
				k, _, _, ok := c.peek(ctx)
				if !ok || !bytes.Equal(k, minKey) {
					break
				}
				c.advance(ctx)
			}
		}
		if winTomb {
			continue
		}
		emitted++
		if !fn(minKey, winVal) {
			break
		}
	}
	return emitted
}
