package lsmkv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"
	"testing/quick"

	"optanestudy/internal/platform"
	"optanestudy/internal/pmem"
	"optanestudy/internal/sim"
)

func newDBPlatform(t testing.TB) (*platform.Platform, *platform.Namespace, *platform.Namespace) {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.TrackData = true
	cfg.XP.Wear.Enabled = false
	p := platform.MustNew(cfg)
	pm, err := p.Optane("pm", 0, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	dram, err := p.DRAM("mem", 0, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	return p, pm, dram
}

func TestSkiplistBasic(t *testing.T) {
	p, pm, _ := newDBPlatform(t)
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		s := NewSkiplist(ctx, pm, 0, 1<<20, true, 1)
		for i := 0; i < 100; i++ {
			key := []byte(fmt.Sprintf("key-%03d", i*7%100))
			if err := s.Insert(ctx, key, []byte(fmt.Sprintf("val-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if s.Count() != 100 {
			t.Errorf("count = %d", s.Count())
		}
		v, ok := s.Get(ctx, []byte("key-042"))
		if !ok || !bytes.HasPrefix(v, []byte("val-")) {
			t.Errorf("get = %q, %v", v, ok)
		}
		if _, ok := s.Get(ctx, []byte("key-999")); ok {
			t.Error("phantom key")
		}
		// The memtable cursor walks every entry in sorted order.
		var prev []byte
		var c memCursor
		n := 0
		for c.seek(ctx, s, nil); !c.done; c.advance(ctx) {
			if prev != nil && bytes.Compare(prev, c.key) > 0 {
				t.Error("scan out of order")
			}
			prev = append(prev[:0], c.key...)
			n++
		}
		if n != s.Count() {
			t.Errorf("cursor walked %d entries, want %d", n, s.Count())
		}
	})
	p.Run()
}

func TestSkiplistUpdateNewestWins(t *testing.T) {
	p, pm, _ := newDBPlatform(t)
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		s := NewSkiplist(ctx, pm, 0, 1<<20, true, 2)
		s.Insert(ctx, []byte("k"), []byte("old"))
		s.Insert(ctx, []byte("k"), []byte("new"))
		v, ok := s.Get(ctx, []byte("k"))
		if !ok || string(v) != "new" {
			t.Errorf("got %q", v)
		}
	})
	p.Run()
}

func TestSkiplistSortedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		p, pm, _ := newDBPlatform(t)
		ok := true
		p.Go("t", 0, func(ctx *platform.MemCtx) {
			s := NewSkiplist(ctx, pm, 0, 1<<20, false, seed)
			r := sim.NewRNG(seed)
			model := map[string]string{}
			for i := 0; i < 80; i++ {
				k := fmt.Sprintf("k%04d", r.Intn(500))
				v := fmt.Sprintf("v%d", i)
				if s.Insert(ctx, []byte(k), []byte(v)) != nil {
					ok = false
					return
				}
				model[k] = v
			}
			for k, want := range model {
				got, has := s.Get(ctx, []byte(k))
				if !has || string(got) != want {
					ok = false
					return
				}
			}
			var prev []byte
			var c memCursor
			for c.seek(ctx, s, nil); !c.done; c.advance(ctx) {
				if prev != nil && bytes.Compare(prev, c.key) > 0 {
					ok = false
					return
				}
				prev = append(prev[:0], c.key...)
			}
		})
		p.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

func TestPersistentSkiplistSurvivesCrash(t *testing.T) {
	p, pm, _ := newDBPlatform(t)
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		s := NewSkiplist(ctx, pm, 0, 1<<20, true, 3)
		for i := 0; i < 50; i++ {
			s.Insert(ctx, []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i)))
		}
	})
	p.Run()
	p.Crash()
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		s := RecoverSkiplist(ctx, pm, 0, 1<<20, 3)
		if s.Count() != 50 {
			t.Errorf("recovered count = %d", s.Count())
		}
		for i := 0; i < 50; i++ {
			v, ok := s.Get(ctx, []byte(fmt.Sprintf("k%02d", i)))
			if !ok || string(v) != fmt.Sprintf("v%02d", i) {
				t.Errorf("k%02d lost in crash: %q %v", i, v, ok)
			}
		}
		// And it keeps working: the recovered arena must not overlap.
		if err := s.Insert(ctx, []byte("post-crash"), []byte("x")); err != nil {
			t.Error(err)
		}
		if v, ok := s.Get(ctx, []byte("k25")); !ok || string(v) != "v25" {
			t.Errorf("k25 clobbered by post-crash insert: %q", v)
		}
	})
	p.Run()
}

func TestWALAppendReplay(t *testing.T) {
	p, pm, _ := newDBPlatform(t)
	var w *WAL
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		w = NewWALPolicy(ctx, pm, 0, 1<<20, ModeWALFLEX, pmem.NTStream)
		for i := 0; i < 20; i++ {
			if err := w.Append(ctx, []byte(fmt.Sprintf("record-%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
	})
	p.Run()
	p.Crash()
	var got []string
	w.Replay(func(payload []byte) bool {
		got = append(got, string(payload))
		return true
	})
	if len(got) != 20 {
		t.Fatalf("replayed %d records, want 20", len(got))
	}
	for i, s := range got {
		if s != fmt.Sprintf("record-%02d", i) {
			t.Fatalf("record %d = %q", i, s)
		}
	}
}

func TestWALTruncate(t *testing.T) {
	p, pm, _ := newDBPlatform(t)
	var w *WAL
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		w = NewWALPolicy(ctx, pm, 0, 1<<20, ModeWALPOSIX, pmem.NTStream)
		w.Append(ctx, []byte("gone"))
		w.Truncate(ctx)
		w.Append(ctx, []byte("kept"))
	})
	p.Run()
	var got []string
	w.Replay(func(payload []byte) bool {
		got = append(got, string(payload))
		return true
	})
	if len(got) != 1 || got[0] != "kept" {
		t.Fatalf("after truncate: %v", got)
	}
}

// realWAL returns the record area of a log that 30 Sets and 3 Deletes
// left behind.
func realWAL(tb testing.TB) []byte {
	p, pm, dram := newDBPlatform(tb)
	var head int64
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		db, err := Open(ctx, Options{Mode: ModeWALFLEX, PM: pm, DRAM: dram, Seed: 16})
		if err != nil {
			tb.Error(err)
			return
		}
		for i := 0; i < 30; i++ {
			db.Set(ctx, []byte(fmt.Sprintf("k%02d", i%20)), []byte(fmt.Sprintf("v%02d", i)))
		}
		for _, k := range []string{"k03", "k11", "k19"} {
			db.Delete(ctx, []byte(k))
		}
		head = db.wal.head
	})
	p.Run()
	log := make([]byte, head)
	pm.ReadDurable(walHeaderSize, log)
	return log
}

// replayRef walks a WAL's record area the way recovery must, over data
// followed by the region's zeros: one [4B len][4B crc][payload] frame per
// record, stopping at a zero length, a frame that overruns the region, a
// CRC mismatch or a payload that is no record. It returns how many frames
// replay, the bytes they span, and each key's newest value (nil where the
// newest record is a tombstone).
func replayRef(data []byte) (frames, span int, model map[string][]byte) {
	at := func(off, n int) []byte {
		b := make([]byte, n)
		if off < len(data) {
			copy(b, data[off:])
		}
		return b
	}
	model = map[string][]byte{}
	end := walRegion - walHeaderSize
	for span+8 <= end {
		hdr := at(span, 8)
		n := int(binary.LittleEndian.Uint32(hdr))
		if n == 0 || span+8+n > end {
			break
		}
		rec := at(span+8, n)
		if crc32.ChecksumIEEE(rec) != binary.LittleEndian.Uint32(hdr[4:]) || n < 4 {
			break
		}
		kl, vl := int(binary.LittleEndian.Uint16(rec)), int(binary.LittleEndian.Uint16(rec[2:]))
		switch {
		case vl == 0xFFFF && 4+kl <= n:
			model[string(rec[4:4+kl])] = nil
		case vl != 0xFFFF && 4+kl+vl <= n:
			model[string(rec[4:4+kl])] = rec[4+kl : 4+kl+vl]
		default:
			return frames, span, model
		}
		frames++
		span += 8 + n
	}
	return frames, span, model
}

// FuzzRecoverWAL installs arbitrary bytes as a WAL's record area and
// recovers from it. RecoverWAL must never panic, and it must replay
// exactly the leading frames replayRef accepts, leave the log's head just
// past them, and serve each key's newest replayed version.
func FuzzRecoverWAL(f *testing.F) {
	log := realWAL(f)
	if frames, span, _ := replayRef(log); frames != 33 || span != len(log) {
		f.Fatalf("the reference walk reads %d records over %d of %d bytes of a real log, want 33 over all", frames, span, len(log))
	}
	f.Add(log)
	f.Add(log[:len(log)-5]) // torn tail
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return // larger logs could outgrow the 1 MB memtable
		}
		frames, span, model := replayRef(data)
		p, pm, dram := newDBPlatform(t)
		pm.WriteDurable(walHeaderSize, data)
		p.Go("recover", 0, func(ctx *platform.MemCtx) {
			db, n, err := RecoverWAL(ctx, Options{Mode: ModeWALFLEX, PM: pm, DRAM: dram, Seed: 16})
			if err != nil {
				t.Error(err)
				return
			}
			if n != frames || db.wal.head != int64(span) {
				t.Errorf("replayed %d records over %d bytes, want %d over %d", n, db.wal.head, frames, span)
			}
			for k, want := range model {
				got, ok := db.Get(ctx, []byte(k))
				if ok != (want != nil) || !bytes.Equal(got, want) {
					t.Errorf("key %x = %x (present %v), want %x (present %v)", k, got, ok, want, want != nil)
				}
			}
		})
		p.Run()
	})
}

func TestDBSetGetAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeWALPOSIX, ModeWALFLEX, ModePersistentMemtable} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			p, pm, dram := newDBPlatform(t)
			p.Go("t", 0, func(ctx *platform.MemCtx) {
				db, err := Open(ctx, Options{Mode: mode, PM: pm, DRAM: dram, Seed: 4})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 60; i++ {
					k := []byte(fmt.Sprintf("key-%03d", i))
					if err := db.Set(ctx, k, []byte(fmt.Sprintf("value-%03d", i))); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 60; i++ {
					k := []byte(fmt.Sprintf("key-%03d", i))
					v, ok := db.Get(ctx, k)
					if !ok || string(v) != fmt.Sprintf("value-%03d", i) {
						t.Errorf("%s = %q, %v", k, v, ok)
					}
				}
			})
			p.Run()
		})
	}
}

func TestDBFlushAndReadBack(t *testing.T) {
	p, pm, dram := newDBPlatform(t)
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		db, err := Open(ctx, Options{Mode: ModeWALFLEX, PM: pm, DRAM: dram,
			MemtableBytes: 16 << 10, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			k := []byte(fmt.Sprintf("key-%04d", i))
			if err := db.Set(ctx, k, bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
				t.Fatal(err)
			}
		}
		if db.Flushes() == 0 {
			t.Fatal("memtable never flushed despite tiny cap")
		}
		// Keys from flushed memtables must come back from SSTs.
		for _, i := range []int{0, 57, 123, 299} {
			k := []byte(fmt.Sprintf("key-%04d", i))
			v, ok := db.Get(ctx, k)
			if !ok || !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 100)) {
				t.Errorf("%s wrong after flush", k)
			}
		}
	})
	p.Run()
}

// TestDBWALRecovery re-runs the WAL crash-recovery suite under every pmem
// persist policy for the record stream: whichever instruction sequence
// carried the append, the fenced records must replay in full — including
// tombstones, which must keep their keys dead across the crash.
func TestDBWALRecovery(t *testing.T) {
	for _, pol := range pmem.Policies() {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			p, pm, dram := newDBPlatform(t)
			opt := Options{Mode: ModeWALFLEX, PM: pm, DRAM: dram, Seed: 6, WALPolicy: &pol}
			p.Go("t", 0, func(ctx *platform.MemCtx) {
				db, _ := Open(ctx, opt)
				for i := 0; i < 40; i++ {
					db.Set(ctx, []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i)))
				}
				db.Delete(ctx, []byte("k07"))
				db.Delete(ctx, []byte("k31"))
			})
			p.Run()
			p.Crash() // volatile memtable gone; WAL survives
			p.Go("t", 0, func(ctx *platform.MemCtx) {
				db, n, err := RecoverWAL(ctx, opt)
				if err != nil {
					t.Error(err)
					return
				}
				if n != 42 {
					t.Errorf("replayed %d records, want 42", n)
				}
				for i := 0; i < 40; i++ {
					v, ok := db.Get(ctx, []byte(fmt.Sprintf("k%02d", i)))
					if i == 7 || i == 31 {
						if ok {
							t.Errorf("deleted k%02d resurrected: %q", i, v)
						}
						continue
					}
					if !ok || string(v) != fmt.Sprintf("v%02d", i) {
						t.Errorf("k%02d lost: %q %v", i, v, ok)
					}
				}
			})
			p.Run()
		})
	}
}

func TestDBDeleteTombstones(t *testing.T) {
	p, pm, dram := newDBPlatform(t)
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		db, err := Open(ctx, Options{Mode: ModeWALFLEX, PM: pm, DRAM: dram,
			MemtableBytes: 8 << 10, Seed: 13})
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 50; i++ {
			db.Set(ctx, []byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%03d", i)))
		}
		// Push the first versions into SSTs, then delete some keys.
		if err := db.Flush(ctx); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 50; i += 5 {
			if err := db.Delete(ctx, []byte(fmt.Sprintf("key-%03d", i))); err != nil {
				t.Error(err)
				return
			}
		}
		check := func(when string) {
			for i := 0; i < 50; i++ {
				v, ok := db.Get(ctx, []byte(fmt.Sprintf("key-%03d", i)))
				if i%5 == 0 {
					if ok {
						t.Errorf("%s: deleted key-%03d returned %q", when, i, v)
					}
				} else if !ok || string(v) != fmt.Sprintf("val-%03d", i) {
					t.Errorf("%s: key-%03d = %q, %v", when, i, v, ok)
				}
			}
		}
		check("in-memtable")
		// Tombstones must survive a flush (shadowing the SST versions)...
		if err := db.Flush(ctx); err != nil {
			t.Error(err)
			return
		}
		check("flushed")
		// ...and deleted keys must stay gone through compaction.
		for db.Compactions() == 0 {
			for i := 100; i < 160; i++ {
				db.Set(ctx, []byte(fmt.Sprintf("key-%03d", i)), []byte("fill"))
			}
			if err := db.Flush(ctx); err != nil {
				t.Error(err)
				return
			}
		}
		check("compacted")
	})
	p.Run()
}

// A value whose length equals the tombstone sentinel must be refused, not
// silently re-read as a delete after a flush or WAL replay.
func TestDBRejectsSentinelLengthValue(t *testing.T) {
	p, pm, dram := newDBPlatform(t)
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		db, err := Open(ctx, Options{Mode: ModeWALFLEX, PM: pm, DRAM: dram, Seed: 15})
		if err != nil {
			t.Error(err)
			return
		}
		if err := db.Set(ctx, []byte("k"), make([]byte, 0xFFFF)); err == nil {
			t.Error("sentinel-length value accepted")
		}
		if err := db.Set(ctx, []byte("k"), make([]byte, 0xFFFE)); err != nil {
			t.Errorf("max legal value refused: %v", err)
		}
	})
	p.Run()
}

func TestDBNativeScan(t *testing.T) {
	p, pm, dram := newDBPlatform(t)
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		db, err := Open(ctx, Options{Mode: ModeWALFLEX, PM: pm, DRAM: dram,
			MemtableBytes: 16 << 10, Seed: 14})
		if err != nil {
			t.Error(err)
			return
		}
		// Interleave versions across SSTs and the memtable: first a stale
		// full load, flush, then fresh overwrites of half the keys.
		for i := 0; i < 120; i++ {
			db.Set(ctx, []byte(fmt.Sprintf("key-%03d", i)), []byte("stale"))
		}
		if err := db.Flush(ctx); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 120; i += 2 {
			db.Set(ctx, []byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("fresh-%03d", i)))
		}
		db.Delete(ctx, []byte("key-050"))
		db.Delete(ctx, []byte("key-051"))

		var keys, vals []string
		n := db.Scan(ctx, []byte("key-040"), 20, func(k, v []byte) bool {
			keys = append(keys, string(k))
			vals = append(vals, string(v))
			return true
		})
		if n != 20 || len(keys) != 20 {
			t.Errorf("scan returned %d records, want 20", n)
		}
		if keys[0] != "key-040" {
			t.Errorf("scan starts at %q", keys[0])
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				t.Errorf("scan out of order: %q then %q", keys[i-1], keys[i])
			}
		}
		for i, k := range keys {
			if k == "key-050" || k == "key-051" {
				t.Errorf("scan emitted deleted key %q", k)
			}
			var id int
			fmt.Sscanf(k, "key-%d", &id)
			want := "stale"
			if id%2 == 0 {
				want = fmt.Sprintf("fresh-%03d", id)
			}
			if vals[i] != want {
				t.Errorf("%s = %q, want %q (newest version must win)", k, vals[i], want)
			}
		}
		// The 20 records skip the two tombstones: the run must extend two
		// keys further than a dense range would.
		if keys[len(keys)-1] != "key-061" {
			t.Errorf("scan ended at %q, want key-061 (tombstones skipped, not counted)", keys[len(keys)-1])
		}
		// Early termination.
		count := 0
		if got := db.Scan(ctx, []byte("key-000"), 50, func(_, _ []byte) bool {
			count++
			return count < 5
		}); got != 5 || count != 5 {
			t.Errorf("early-stop scan: emitted %d, callback saw %d", got, count)
		}
	})
	p.Run()
}

func TestDBPersistentMemtableRecovery(t *testing.T) {
	p, pm, _ := newDBPlatform(t)
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		db, _ := Open(ctx, Options{Mode: ModePersistentMemtable, PM: pm, Seed: 7})
		for i := 0; i < 30; i++ {
			db.Set(ctx, []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i)))
		}
	})
	p.Run()
	p.Crash()
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		db, err := RecoverPersistent(ctx, Options{Mode: ModePersistentMemtable, PM: pm, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			v, ok := db.Get(ctx, []byte(fmt.Sprintf("k%02d", i)))
			if !ok || string(v) != fmt.Sprintf("v%02d", i) {
				t.Errorf("k%02d lost: %q %v", i, v, ok)
			}
		}
	})
	p.Run()
}

// TestFig8Inversion is the paper's headline RocksDB result: on emulated
// (DRAM) persistent memory the persistent memtable beats the FLEX WAL, but
// on real 3D XPoint the conclusion reverses.
func TestFig8Inversion(t *testing.T) {
	runMode := func(onDRAM bool, mode Mode) float64 {
		cfg := platform.DefaultConfig()
		cfg.TrackData = true
		cfg.XP.Wear.Enabled = false
		// A small LLC lets a modest prepopulated memtable exceed the
		// cache, standing in for the study's gigabyte memtables.
		cfg.LLC.Lines = (512 << 10) / 64
		p := platform.MustNew(cfg)
		res, err := RunSetBench(BenchSpec{
			Platform: p, PMOnDRAM: onDRAM, Mode: mode,
			Ops: 1200, Prepopulate: 5000, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.KOpsSec
	}
	dramFlex := runMode(true, ModeWALFLEX)
	dramSkip := runMode(true, ModePersistentMemtable)
	optFlex := runMode(false, ModeWALFLEX)
	optSkip := runMode(false, ModePersistentMemtable)
	optPosix := runMode(false, ModeWALPOSIX)

	if dramSkip <= dramFlex {
		t.Errorf("DRAM: persistent skiplist (%.0f) must beat FLEX (%.0f) KOps/s", dramSkip, dramFlex)
	}
	if optFlex <= optSkip {
		t.Errorf("Optane: FLEX (%.0f) must beat persistent skiplist (%.0f) KOps/s", optFlex, optSkip)
	}
	if optPosix >= optFlex {
		t.Errorf("Optane: POSIX WAL (%.0f) must trail FLEX (%.0f) KOps/s", optPosix, optFlex)
	}
}

// xpReadBytes sums the 64 B reads every 3D XPoint DIMM's controller
// received: the device reads of the platform's one PM namespace.
func xpReadBytes(p *platform.Platform) int64 {
	g := p.Config().Geometry
	var n int64
	for sk := 0; sk < g.Sockets; sk++ {
		for ch := 0; ch < g.ChannelsPerSocket; ch++ {
			n += p.XPDIMMCounters(sk, ch).CtrlReadBytes
		}
	}
	return n
}

func TestDBCompaction(t *testing.T) {
	p, pm, dram := newDBPlatform(t)
	var db *DB
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		var err error
		db, err = Open(ctx, Options{Mode: ModeWALFLEX, PM: pm, DRAM: dram,
			MemtableBytes: 8 << 10, Seed: 11})
		if err != nil {
			t.Error(err)
			return
		}
		// Insert with heavy overwrites across many tiny memtable flushes.
		for i := 0; i < 1800; i++ {
			k := []byte(fmt.Sprintf("key-%03d", i%80))
			if err := db.Set(ctx, k, []byte(fmt.Sprintf("val-%04d", i))); err != nil {
				t.Errorf("set %d: %v", i, err)
				return
			}
		}
		if db.Compactions() == 0 {
			t.Error("no compactions despite many flushes")
			return
		}
		if db.Tables() > compactionTrigger+1 {
			t.Errorf("tables = %d, compaction not bounding L0", db.Tables())
			return
		}
		// Every key returns its newest value after merges.
		latest := map[string]string{}
		for i := 0; i < 1800; i++ {
			latest[fmt.Sprintf("key-%03d", i%80)] = fmt.Sprintf("val-%04d", i)
		}
		for k, want := range latest {
			v, ok := db.Get(ctx, []byte(k))
			if !ok || string(v) != want {
				t.Errorf("%s = %q (%v), want %q", k, v, ok, want)
			}
		}
	})
	p.Run()
	if t.Failed() {
		return
	}
	// Compaction orders on the tables' in-DRAM indexes and loads only the
	// records it keeps: over 7 flushes and 1 compaction the workload reads
	// 1920 bytes of PM, where cursors that load every record they pass
	// read 9344.
	if db.Flushes() != 7 || db.Compactions() != 1 {
		t.Fatalf("%d flushes and %d compactions, want 7 and 1", db.Flushes(), db.Compactions())
	}
	if got := xpReadBytes(p); got > 1920 {
		t.Errorf("the workload read %d bytes of PM, want at most 1920", got)
	}
}
