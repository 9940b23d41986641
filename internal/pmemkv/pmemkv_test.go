package pmemkv

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"optanestudy/internal/platform"
	"optanestudy/internal/pmemobj"
	"optanestudy/internal/sim"
)

func newStore(t testing.TB, buckets int) (*platform.Platform, *pmemobj.Pool, *CMap) {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.TrackData = true
	cfg.XP.Wear.Enabled = false
	p := platform.MustNew(cfg)
	ns, err := p.Optane("kv", 0, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := pmemobj.Create(ns)
	if err != nil {
		t.Fatal(err)
	}
	var m *CMap
	p.Go("create", 0, func(ctx *platform.MemCtx) {
		m, err = CreateCMap(ctx, pool, buckets)
	})
	p.Run()
	if err != nil {
		t.Fatal(err)
	}
	return p, pool, m
}

func TestCMapPutGet(t *testing.T) {
	p, _, m := newStore(t, 64)
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		if err := m.Put(ctx, []byte("alpha"), []byte("one")); err != nil {
			t.Error(err)
		}
		if err := m.Put(ctx, []byte("beta"), []byte("two")); err != nil {
			t.Error(err)
		}
		v, ok := m.Get(ctx, []byte("alpha"))
		if !ok || !bytes.Equal(v, []byte("one")) {
			t.Errorf("alpha = %q, %v", v, ok)
		}
		if _, ok := m.Get(ctx, []byte("gamma")); ok {
			t.Error("phantom key")
		}
	})
	p.Run()
}

func TestCMapOverwriteSameSize(t *testing.T) {
	p, _, m := newStore(t, 16)
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		m.Put(ctx, []byte("k"), []byte("AAAA"))
		m.Put(ctx, []byte("k"), []byte("BBBB"))
		v, _ := m.Get(ctx, []byte("k"))
		if !bytes.Equal(v, []byte("BBBB")) {
			t.Errorf("got %q", v)
		}
		if n := m.Count(ctx); n != 1 {
			t.Errorf("count = %d", n)
		}
	})
	p.Run()
}

func TestCMapResizeValue(t *testing.T) {
	p, _, m := newStore(t, 16)
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		m.Put(ctx, []byte("k"), []byte("short"))
		m.Put(ctx, []byte("k"), []byte("a much longer value than before"))
		v, _ := m.Get(ctx, []byte("k"))
		if string(v) != "a much longer value than before" {
			t.Errorf("got %q", v)
		}
		if n := m.Count(ctx); n != 1 {
			t.Errorf("count = %d after resize", n)
		}
	})
	p.Run()
}

func TestCMapDelete(t *testing.T) {
	p, _, m := newStore(t, 8) // few buckets: exercise chains
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		for i := 0; i < 32; i++ {
			m.Put(ctx, []byte(fmt.Sprintf("key-%02d", i)), []byte("v"))
		}
		if !m.Delete(ctx, []byte("key-07")) {
			t.Error("delete of live key failed")
		}
		if m.Delete(ctx, []byte("key-07")) {
			t.Error("double delete succeeded")
		}
		if _, ok := m.Get(ctx, []byte("key-07")); ok {
			t.Error("deleted key readable")
		}
		if n := m.Count(ctx); n != 31 {
			t.Errorf("count = %d", n)
		}
	})
	p.Run()
}

func TestCMapSurvivesCrashAndReopen(t *testing.T) {
	p, pool, m := newStore(t, 32)
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		for i := 0; i < 20; i++ {
			m.Put(ctx, []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
		}
	})
	p.Run()
	p.Crash()
	re, err := pmemobj.Open(pool.NS())
	if err != nil {
		t.Fatal(err)
	}
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		m2, err := OpenCMap(ctx, re)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			v, ok := m2.Get(ctx, []byte(fmt.Sprintf("k%d", i)))
			if !ok || string(v) != fmt.Sprintf("v%d", i) {
				t.Errorf("k%d = %q, %v after crash", i, v, ok)
			}
		}
		if n := m2.Count(ctx); n != 20 {
			t.Errorf("count = %d", n)
		}
	})
	p.Run()
}

func TestCMapConcurrentWriters(t *testing.T) {
	p, _, m := newStore(t, 128)
	const perThread = 40
	for th := 0; th < 4; th++ {
		th := th
		p.Go(fmt.Sprintf("w%d", th), 0, func(ctx *platform.MemCtx) {
			for i := 0; i < perThread; i++ {
				key := []byte(fmt.Sprintf("t%d-k%d", th, i))
				if err := m.Put(ctx, key, key); err != nil {
					t.Error(err)
				}
			}
		})
	}
	p.Run()
	p.Go("check", 0, func(ctx *platform.MemCtx) {
		if n := m.Count(ctx); n != 4*perThread {
			t.Errorf("count = %d, want %d", n, 4*perThread)
		}
		for th := 0; th < 4; th++ {
			for i := 0; i < perThread; i++ {
				key := []byte(fmt.Sprintf("t%d-k%d", th, i))
				if v, ok := m.Get(ctx, key); !ok || !bytes.Equal(v, key) {
					t.Errorf("%s missing after concurrent load", key)
				}
			}
		}
	})
	p.Run()
}

// An insert builds its entry in the buffer an earlier Put gave back. What
// it still allocates is the LLC's data overlay for its two cached metadata
// stores (the block header and the bucket link), not an entry buffer.
// Once warm, a Put allocates nothing: an insert builds its entry in a
// buffer an earlier Put gave back, a same-size update reads the old value
// into the undo log through a stack buffer, and the LLC keeps the dirtied
// lines' bytes in its slab.
func TestCMapPutAllocatesNothing(t *testing.T) {
	p, _, m := newStore(t, 1024)
	key, val := []byte("key-0000"), make([]byte, 100)
	n := 0
	insert := func(ctx *platform.MemCtx) {
		n++
		key[4], key[5], key[6] = byte(n>>16), byte(n>>8), byte(n)
		if err := m.Put(ctx, key, val); err != nil {
			t.Error(err)
		}
	}
	update := func(ctx *platform.MemCtx) {
		val[0]++
		if err := m.Put(ctx, key, val); err != nil {
			t.Error(err)
		}
	}
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		insert(ctx)
		update(ctx)
		if avg := testing.AllocsPerRun(200, func() { insert(ctx) }); avg != 0 {
			t.Errorf("an insert allocates %.1f objects, want 0", avg)
		}
		if avg := testing.AllocsPerRun(200, func() { update(ctx) }); avg != 0 {
			t.Errorf("a same-size update allocates %.1f objects, want 0", avg)
		}
	})
	p.Run()
}

// Property: the map agrees with a Go map under random operations.
func TestCMapModelProperty(t *testing.T) {
	f := func(seed uint64) bool {
		p, _, m := newStore(t, 32)
		model := map[string]string{}
		ok := true
		p.Go("t", 0, func(ctx *platform.MemCtx) {
			r := sim.NewRNG(seed)
			for i := 0; i < 120 && ok; i++ {
				key := fmt.Sprintf("k%d", r.Intn(25))
				switch r.Intn(3) {
				case 0:
					val := fmt.Sprintf("v%d", r.Intn(1000))
					if err := m.Put(ctx, []byte(key), []byte(val)); err != nil {
						ok = false
					}
					model[key] = val
				case 1:
					got, has := m.Get(ctx, []byte(key))
					want, wantHas := model[key]
					if has != wantHas || (has && string(got) != want) {
						ok = false
					}
				case 2:
					has := m.Delete(ctx, []byte(key))
					_, wantHas := model[key]
					if has != wantHas {
						ok = false
					}
					delete(model, key)
				}
			}
			if m.Count(ctx) != len(model) {
				ok = false
			}
		})
		p.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestOverwriteBenchRuns(t *testing.T) {
	cfg := platform.DefaultConfig()
	cfg.TrackData = true
	cfg.XP.Wear.Enabled = false
	p := platform.MustNew(cfg)
	ns, _ := p.Optane("kv", 0, 64<<20)
	res, err := RunOverwrite(OverwriteSpec{
		Platform: p, NS: ns, Socket: 0, Threads: 2, Keys: 100,
		KeySize: 16, ValSize: 64, Duration: 100 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops < 10 {
		t.Fatalf("only %d ops completed", res.Ops)
	}
	if res.GBs <= 0 {
		t.Fatal("no bandwidth reported")
	}
}

func TestOverwriteRemoteSlower(t *testing.T) {
	runAt := func(socket int) float64 {
		cfg := platform.DefaultConfig()
		cfg.TrackData = true
		cfg.XP.Wear.Enabled = false
		p := platform.MustNew(cfg)
		ns, _ := p.Optane("kv", 0, 64<<20)
		res, err := RunOverwrite(OverwriteSpec{
			Platform: p, NS: ns, Socket: socket, Threads: 4, Keys: 200,
			KeySize: 16, ValSize: 64, Duration: 150 * sim.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.GBs
	}
	local := runAt(0)
	remote := runAt(1)
	if remote >= local {
		t.Errorf("remote overwrite (%.3f GB/s) must trail local (%.3f GB/s)", remote, local)
	}
}

// TestCMapCrashDurabilityFuzz crashes the platform after a random number
// of completed operations and checks that every completed Put is durable
// and the recovered structure is consistent (each Put is synchronous:
// fully persistent on return).
func TestCMapCrashDurabilityFuzz(t *testing.T) {
	f := func(seed uint64) bool {
		p, pool, m := newStore(t, 32)
		r := sim.NewRNG(seed)
		stopAfter := 5 + r.Intn(60)
		model := map[string]string{}
		p.Go("t", 0, func(ctx *platform.MemCtx) {
			for i := 0; i < stopAfter; i++ {
				k := fmt.Sprintf("k%d", r.Intn(20))
				v := fmt.Sprintf("v%d-%d", i, r.Intn(100))
				if len(v) > 8 {
					v = v[:8]
				}
				if err := m.Put(ctx, []byte(k), []byte(v)); err != nil {
					t.Error(err)
					return
				}
				model[k] = v
			}
		})
		p.Run()
		p.Crash()
		re, err := pmemobj.Open(pool.NS())
		if err != nil {
			return false
		}
		ok := true
		p.Go("verify", 0, func(ctx *platform.MemCtx) {
			m2, err := OpenCMap(ctx, re)
			if err != nil {
				ok = false
				return
			}
			if m2.Count(ctx) != len(model) {
				ok = false
				return
			}
			for k, want := range model {
				got, has := m2.Get(ctx, []byte(k))
				if !has || string(got) != want {
					ok = false
					return
				}
			}
		})
		p.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
