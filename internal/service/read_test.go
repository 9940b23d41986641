package service

import (
	"bytes"
	"reflect"
	"testing"

	"optanestudy/internal/devstat"
	"optanestudy/internal/hottier"
	"optanestudy/internal/lsmkv"
	"optanestudy/internal/platform"
	"optanestudy/internal/sim"
)

const (
	readKeys   = 1024
	readKeyLen = 16
	readVal    = 100
)

var readKey = KeyFor(7, readKeyLen)

// readFunc is one store's lookup of a fixed key: the value's full length
// and presence, with the value's prefix in dst.
type readFunc func(ctx *platform.MemCtx, dst []byte) (int, bool)

// readBuilder preloads a store on a fresh platform and returns its lookup.
type readBuilder func(t *testing.T, p *platform.Platform) readFunc

// readRun is what one lookup left behind.
type readRun struct {
	n       int
	ok      bool
	val     []byte // the bytes that landed in dst
	elapsed sim.Time
	dev     devstat.Snapshot
	xpReads int64 // 3D XPoint controller read bytes the lookup cost
}

// runRead builds a fresh platform, lets build preload a store on it, then
// times one lookup into dst and snapshots the device counters after it.
// The LLC is shrunk to 16 KB so lookups reach the DIMMs.
func runRead(t *testing.T, build readBuilder, dst []byte) readRun {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.TrackData = true
	cfg.XP.Wear.Enabled = false
	cfg.LLC.Lines = 16 << 10 / 64
	p := platform.MustNew(cfg)
	defer p.Close()
	read := build(t, p)
	before := devstat.Capture(p)
	var r readRun
	p.Go("read", 0, func(ctx *platform.MemCtx) {
		start := ctx.Proc().Now()
		r.n, r.ok = read(ctx, dst)
		r.elapsed = ctx.Proc().Now() - start
	})
	p.Run()
	r.val = dst[:min(r.n, len(dst))]
	r.dev = devstat.Capture(p)
	w := r.dev.Sub(before)
	for i := range w.DIMMs {
		r.xpReads += w.DIMMs[i].Ctr.CtrlReadBytes
	}
	return r
}

// preload runs fn on its own simulated thread to completion.
func preload(t *testing.T, p *platform.Platform, fn func(ctx *platform.MemCtx) error) {
	t.Helper()
	var err error
	p.Go("load", 0, func(ctx *platform.MemCtx) { err = fn(ctx) })
	p.Run()
	if err != nil {
		t.Fatal(err)
	}
}

// newReadBackend preloads the named serving backend.
func newReadBackend(t *testing.T, p *platform.Platform, name string) Backend {
	t.Helper()
	be, err := NewBackend(p, name, BackendSpec{
		Media: "optane", Keys: readKeys, KeySize: readKeyLen, ValSize: readVal,
		NearBytes: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return be
}

// backendRead reads readKey through a serving backend.
func backendRead(name string) readBuilder {
	return func(t *testing.T, p *platform.Platform) readFunc {
		be := newReadBackend(t, p, name)
		return func(ctx *platform.MemCtx, dst []byte) (int, bool) { return be.GetInto(ctx, readKey, dst) }
	}
}

// tierRead reads readKey through a hot tier over pmemkv. A warm tier has
// already admitted the key, so the measured read is a hit, not a
// miss-fill.
func tierRead(warm bool) readBuilder {
	return func(t *testing.T, p *platform.Platform) readFunc {
		tier, err := hottier.New(p, newReadBackend(t, p, "pmemkv"), hottier.Config{
			CapacityBytes: 64 << 10, RecordBytes: readVal, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if warm {
			preload(t, p, func(ctx *platform.MemCtx) error {
				tier.GetInto(ctx, readKey, make([]byte, readVal))
				return nil
			})
		}
		return func(ctx *platform.MemCtx, dst []byte) (int, bool) {
			n, ok := tier.GetInto(ctx, readKey, dst)
			if hits := tier.Counters().Hits; (hits == 1) != warm {
				t.Errorf("tier hits = %d after a warm=%v read", hits, warm)
			}
			return n, ok
		}
	}
}

// skiplistRead reads readKey from a persistent skiplist.
func skiplistRead(t *testing.T, p *platform.Platform) readFunc {
	ns, err := p.Optane("read-skiplist", 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var s *lsmkv.Skiplist
	preload(t, p, func(ctx *platform.MemCtx) error {
		s = lsmkv.NewSkiplist(ctx, ns, 0, 1<<20, true, 5)
		for id := int64(0); id < readKeys; id++ {
			if err := s.Insert(ctx, KeyFor(id, readKeyLen), ValFor(id, readVal)); err != nil {
				return err
			}
		}
		return nil
	})
	return func(ctx *platform.MemCtx, dst []byte) (int, bool) {
		val, ok, _ := s.Find(ctx, readKey, dst)
		copy(dst, val)
		return len(val), ok
	}
}

// dbRead reads key from a preloaded persistent-memtable lsmkv DB after
// the given steps, which shape where key's newest version lives.
func dbRead(key []byte, steps ...func(ctx *platform.MemCtx, db *lsmkv.DB) error) readBuilder {
	return func(t *testing.T, p *platform.Platform) readFunc {
		pm, err := p.Optane("read-pm", 0, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		var db *lsmkv.DB
		preload(t, p, func(ctx *platform.MemCtx) error {
			if db, err = lsmkv.Open(ctx, lsmkv.Options{Mode: lsmkv.ModePersistentMemtable, PM: pm, Seed: 5}); err != nil {
				return err
			}
			for id := int64(0); id < readKeys; id++ {
				if err := db.Set(ctx, KeyFor(id, readKeyLen), ValFor(id, readVal)); err != nil {
					return err
				}
			}
			for _, step := range steps {
				if err := step(ctx, db); err != nil {
					return err
				}
			}
			return nil
		})
		return func(ctx *platform.MemCtx, dst []byte) (int, bool) { return db.GetInto(ctx, key, dst) }
	}
}

// A read's simulated cost does not depend on its buffer: each store's one
// lookup issues the same loads whether the value lands in dst or in a
// fresh slice. Every case runs on identically built platforms once per
// buffer (nil, shorter than, equal to and longer than the value), and
// every run must return the same length and value prefix and leave the
// proc's clock and the DIMM counters exactly where the others do.
func TestReadCostIndependentOfBuffer(t *testing.T) {
	flush := func(ctx *platform.MemCtx, db *lsmkv.DB) error { return db.Flush(ctx) }
	del := func(ctx *platform.MemCtx, db *lsmkv.DB) error { return db.Delete(ctx, readKey) }
	short, exact, long := readVal/2, readVal, readVal+37
	for _, tc := range []struct {
		name  string
		build readBuilder
		found bool
		xp    bool  // the lookup reads 3D XPoint
		bufs  []int // -1 is a nil dst; nil means all four sizes
	}{
		{"cmap", backendRead("pmemkv"), true, true, nil},
		{"memmode", backendRead("memmode"), true, true, nil},
		{"skiplist", skiplistRead, true, true, nil},
		{"db/memtable-hit", dbRead(readKey), true, true, nil},
		{"db/sst-hit", dbRead(readKey, flush), true, true, nil},
		{"db/tombstone-memtable", dbRead(readKey, flush, del), false, true, nil},
		{"db/tombstone-sst", dbRead(readKey, flush, del, flush), false, true, nil},
		{"db/absent", dbRead(KeyFor(readKeys+1, readKeyLen)), false, true, nil},
		{"tier/hit", tierRead(true), true, false, []int{exact, long}},
		{"tier/miss-fill", tierRead(false), true, true, []int{exact, long}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bufs := tc.bufs
			if bufs == nil {
				bufs = []int{exact, -1, short, long}
			}
			var ref readRun
			for i, size := range bufs {
				var dst []byte
				if size >= 0 {
					dst = make([]byte, size)
				}
				r := runRead(t, tc.build, dst)
				if i == 0 {
					ref = r
					if r.ok != tc.found || (r.ok && r.n != readVal) {
						t.Fatalf("n=%d ok=%v, want ok=%v", r.n, r.ok, tc.found)
					}
					if r.ok && !bytes.Equal(r.val, ValFor(7, readVal)) {
						t.Fatalf("value %x, want the preloaded one", r.val)
					}
					if r.elapsed <= 0 || (r.xpReads > 0) != tc.xp {
						t.Fatalf("the lookup took %v and read %d bytes of 3D XPoint, want some iff xp=%v", r.elapsed, r.xpReads, tc.xp)
					}
					continue
				}
				if r.n != ref.n || r.ok != ref.ok {
					t.Errorf("dst %d: n=%d ok=%v, want n=%d ok=%v", size, r.n, r.ok, ref.n, ref.ok)
				}
				if !bytes.Equal(r.val, ref.val[:len(r.val)]) {
					t.Errorf("dst %d: value prefix %x, want %x", size, r.val, ref.val[:len(r.val)])
				}
				if r.elapsed != ref.elapsed {
					t.Errorf("dst %d: lookup took %v, want %v", size, r.elapsed, ref.elapsed)
				}
				if !reflect.DeepEqual(r.dev, ref.dev) {
					t.Errorf("dst %d: device counters differ:\n got %+v\nwant %+v", size, r.dev, ref.dev)
				}
			}
		})
	}
}
