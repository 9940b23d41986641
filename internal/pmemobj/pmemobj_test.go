package pmemobj

import (
	"bytes"
	"testing"
	"testing/quick"

	"optanestudy/internal/platform"
	"optanestudy/internal/pmem"
	"optanestudy/internal/sim"
)

func newPool(t testing.TB) (*platform.Platform, *Pool) {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.TrackData = true
	cfg.XP.Wear.Enabled = false
	p := platform.MustNew(cfg)
	ns, err := p.Optane("pool", 0, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := Create(ns)
	if err != nil {
		t.Fatal(err)
	}
	return p, pool
}

func run(p *platform.Platform, fn func(ctx *platform.MemCtx)) {
	p.Go("t", 0, fn)
	p.Run()
}

func TestPoolCreateOpen(t *testing.T) {
	p, pool := newPool(t)
	run(p, func(ctx *platform.MemCtx) {
		off, err := pool.Alloc(ctx, 100)
		if err != nil {
			t.Error(err)
		}
		pool.SetRoot(ctx, off)
	})
	reopened, err := Open(pool.NS())
	if err != nil {
		t.Fatal(err)
	}
	run(p, func(ctx *platform.MemCtx) {
		if reopened.Root(ctx) == 0 {
			t.Error("root lost after reopen")
		}
	})
}

func TestOpenRejectsGarbage(t *testing.T) {
	cfg := platform.DefaultConfig()
	cfg.TrackData = true
	p := platform.MustNew(cfg)
	ns, _ := p.Optane("raw", 0, 1<<20)
	if _, err := Open(ns); err == nil {
		t.Fatal("opened an unformatted namespace")
	}
}

func TestAllocFreeReuse(t *testing.T) {
	p, pool := newPool(t)
	run(p, func(ctx *platform.MemCtx) {
		a, err := pool.Alloc(ctx, 256)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := pool.Alloc(ctx, 256)
		if a == b {
			t.Fatal("overlapping allocations")
		}
		pool.Free(ctx, a)
		c, _ := pool.Alloc(ctx, 200) // fits in a's block
		if c != a {
			t.Errorf("free block not reused: got %d, want %d", c, a)
		}
	})
}

// TestAllocLowestAddressFirst: the allocator reuses free blocks lowest
// address first, whatever order they were freed in, and a split block's
// remainder keeps its place below the free blocks above it.
func TestAllocLowestAddressFirst(t *testing.T) {
	p, pool := newPool(t)
	run(p, func(ctx *platform.MemCtx) {
		var offs []int64
		for range 8 {
			off, err := pool.Alloc(ctx, 256)
			if err != nil {
				t.Fatal(err)
			}
			offs = append(offs, off)
		}
		for _, i := range []int{5, 1, 7, 3, 0, 6, 2, 4} {
			pool.Free(ctx, offs[i])
		}
		for i, want := range offs {
			if got, _ := pool.Alloc(ctx, 256); got != want {
				t.Fatalf("allocation %d after the frees: got %d, want %d", i, got, want)
			}
		}

		big, _ := pool.Alloc(ctx, 1024)
		small, _ := pool.Alloc(ctx, 64)
		pool.Free(ctx, small)
		pool.Free(ctx, big)
		if got, _ := pool.Alloc(ctx, 256); got != big {
			t.Fatalf("split: got %d, want the big block %d", got, big)
		}
		if got, _ := pool.Alloc(ctx, 64); got != big+256+blockHeader {
			t.Fatalf("after the split: got %d, want the remainder %d below %d", got, big+256+blockHeader, small)
		}
	})
}

func TestAllocSurvivesReopen(t *testing.T) {
	p, pool := newPool(t)
	var a, b int64
	run(p, func(ctx *platform.MemCtx) {
		a, _ = pool.Alloc(ctx, 128)
		b, _ = pool.Alloc(ctx, 128)
		pool.Free(ctx, a)
	})
	p.Crash()
	re, err := Open(pool.NS())
	if err != nil {
		t.Fatal(err)
	}
	run(p, func(ctx *platform.MemCtx) {
		// a's block is free again; a fresh alloc of the same size reuses it.
		c, _ := re.Alloc(ctx, 128)
		if c != a {
			t.Errorf("recovered allocator did not reuse freed block: %d vs %d", c, a)
		}
		d, _ := re.Alloc(ctx, 128)
		if d == b {
			t.Error("recovered allocator handed out a live block")
		}
	})
}

func TestAllocNonOverlapProperty(t *testing.T) {
	f := func(seed uint64) bool {
		pcfg := platform.DefaultConfig()
		pcfg.TrackData = true
		p := platform.MustNew(pcfg)
		ns, _ := p.Optane("pool", 0, 8<<20)
		pool, _ := Create(ns)
		ok := true
		run(p, func(ctx *platform.MemCtx) {
			r := sim.NewRNG(seed)
			type blk struct{ off, size int64 }
			var live []blk
			for i := 0; i < 150 && ok; i++ {
				if len(live) > 0 && r.Bool(0.35) {
					k := r.Intn(len(live))
					pool.Free(ctx, live[k].off)
					live = append(live[:k], live[k+1:]...)
					continue
				}
				size := 16 + r.Intn(800)
				off, err := pool.Alloc(ctx, size)
				if err != nil {
					continue
				}
				for _, l := range live {
					if off < l.off+l.size && l.off < off+int64(size) {
						ok = false
					}
				}
				live = append(live, blk{off, int64(size)})
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestTxCommitDurable(t *testing.T) {
	p, pool := newPool(t)
	var obj int64
	payload := bytes.Repeat([]byte{0x5A}, 200)
	run(p, func(ctx *platform.MemCtx) {
		obj, _ = pool.Alloc(ctx, 256)
		tx := pool.Begin(ctx)
		if err := tx.Update(obj, payload); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	p.Crash()
	got := make([]byte, len(payload))
	pool.NS().ReadDurable(obj, got)
	if !bytes.Equal(got, payload) {
		t.Fatal("committed data lost")
	}
}

func TestTxAbortRestores(t *testing.T) {
	p, pool := newPool(t)
	before := bytes.Repeat([]byte{1}, 100)
	after := bytes.Repeat([]byte{2}, 100)
	run(p, func(ctx *platform.MemCtx) {
		obj, _ := pool.Alloc(ctx, 128)
		ctx.PersistStore(pool.NS(), obj, len(before), before)
		tx := pool.Begin(ctx)
		tx.Update(obj, after)
		tx.Abort()
		got := make([]byte, 100)
		ctx.LoadInto(pool.NS(), obj, got)
		if !bytes.Equal(got, before) {
			t.Error("abort did not restore old value")
		}
	})
}

// TestTxCrashAtomicity crashes the platform at every protocol stage —
// under every pmem persist policy for the in-place modifications — and
// checks that recovery always yields either the old or the new value,
// never a torn mix. Crash atomicity must not depend on the instruction
// sequence the data writes use.
func TestTxCrashAtomicity(t *testing.T) {
	stages := []string{"entry-logged", "count-bumped", "modified", "pre-truncate", "committed"}
	for _, pol := range pmem.Policies() {
		pol := pol
		for _, crashAt := range stages {
			crashAt := crashAt
			t.Run(pol.String()+"/"+crashAt, func(t *testing.T) {
				p, pool := newPool(t)
				oldVal := bytes.Repeat([]byte{0xAA}, 120)
				newVal := bytes.Repeat([]byte{0xBB}, 120)
				var obj int64
				run(p, func(ctx *platform.MemCtx) {
					obj, _ = pool.Alloc(ctx, 128)
					ctx.PersistStore(pool.NS(), obj, len(oldVal), oldVal)
				})
				type crashSignal struct{}
				run(p, func(ctx *platform.MemCtx) {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(crashSignal); !ok {
								panic(r)
							}
						}
					}()
					tx := pool.BeginPolicy(ctx, pol)
					tx.OnCrash = func(stage string) {
						if stage == crashAt {
							panic(crashSignal{})
						}
					}
					tx.Update(obj, newVal)
					tx.Commit()
				})
				p.Crash()
				re, err := Open(pool.NS())
				if err != nil {
					t.Fatal(err)
				}
				_ = re
				got := make([]byte, len(oldVal))
				pool.NS().ReadDurable(obj, got)
				isOld := bytes.Equal(got, oldVal)
				isNew := bytes.Equal(got, newVal)
				if !isOld && !isNew {
					t.Fatalf("torn object after crash at %q: %v", crashAt, got[:8])
				}
				if crashAt == "committed" && !isNew {
					t.Fatal("committed transaction rolled back")
				}
				if (crashAt == "entry-logged" || crashAt == "count-bumped") && !isOld {
					t.Fatal("uncommitted transaction left new data")
				}
			})
		}
	}
}

// TestTxPolicyEquivalentContents: a committed transaction leaves identical
// durable bytes no matter which persist policy carried its modifications.
func TestTxPolicyEquivalentContents(t *testing.T) {
	want := bytes.Repeat([]byte{0xC7, 0x11}, 90)
	for _, pol := range pmem.Policies() {
		p, pool := newPool(t)
		var obj int64
		run(p, func(ctx *platform.MemCtx) {
			obj, _ = pool.Alloc(ctx, 256)
			tx := pool.BeginPolicy(ctx, pol)
			if err := tx.Update(obj, want); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
		p.Crash()
		got := make([]byte, len(want))
		pool.NS().ReadDurable(obj, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: committed bytes differ", pol)
		}
	}
}

// TestMicroBufCommitPolicies: every policy-committed micro-buffer leaves
// the same durable object.
func TestMicroBufCommitPolicies(t *testing.T) {
	for _, pol := range pmem.Policies() {
		p, pool := newPool(t)
		var obj int64
		run(p, func(ctx *platform.MemCtx) {
			obj, _ = pool.Alloc(ctx, 512)
			init := bytes.Repeat([]byte{3}, 512)
			ctx.PersistStore(pool.NS(), obj, len(init), init)
			mb := pool.OpenBuffered(ctx, obj, 512)
			for i := range mb.Bytes() {
				mb.Bytes()[i] = byte(i)
			}
			if err := mb.CommitPolicy(pol); err != nil {
				t.Fatal(err)
			}
		})
		p.Crash()
		got := make([]byte, 512)
		pool.NS().ReadDurable(obj, got)
		for i, b := range got {
			if b != byte(i) {
				t.Fatalf("%s: byte %d = %d after commit", pol, i, b)
			}
		}
	}
}

// Property: multi-update transactions are all-or-nothing across random
// crash stages.
func TestTxMultiUpdateAtomicityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		p, pool := newPool(t)
		r := sim.NewRNG(seed)
		const nObj = 4
		var objs [nObj]int64
		run(p, func(ctx *platform.MemCtx) {
			for i := range objs {
				objs[i], _ = pool.Alloc(ctx, 64)
				ctx.PersistStore(pool.NS(), objs[i], 8, []byte{0, 0, 0, 0, 0, 0, 0, 0})
			}
		})
		// Crash after a random number of protocol steps.
		steps := r.Intn(3*nObj + 2)
		type crashSignal struct{}
		run(p, func(ctx *platform.MemCtx) {
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(crashSignal); !ok {
						panic(rec)
					}
				}
			}()
			tx := pool.Begin(ctx)
			n := 0
			tx.OnCrash = func(string) {
				n++
				if n == steps {
					panic(crashSignal{})
				}
			}
			for i := range objs {
				tx.Update(objs[i], []byte{9, 9, 9, 9, 9, 9, 9, 9})
			}
			tx.Commit()
		})
		p.Crash()
		if _, err := Open(pool.NS()); err != nil {
			return false
		}
		// All objects must agree: all old or all new.
		var states [nObj]byte
		for i := range objs {
			buf := make([]byte, 8)
			pool.NS().ReadDurable(objs[i], buf)
			states[i] = buf[0]
			if buf[0] != 0 && buf[0] != 9 {
				return false
			}
		}
		for i := 1; i < nObj; i++ {
			if states[i] != states[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestTxAllocRollsBackOnAbort(t *testing.T) {
	p, pool := newPool(t)
	run(p, func(ctx *platform.MemCtx) {
		tx := pool.Begin(ctx)
		off, err := tx.Alloc(300)
		if err != nil {
			t.Fatal(err)
		}
		tx.Abort()
		// The block is free again.
		again, _ := pool.Alloc(ctx, 300)
		if again != off {
			t.Errorf("aborted allocation not released: %d vs %d", again, off)
		}
	})
}

func TestMicroBufModes(t *testing.T) {
	p, pool := newPool(t)
	run(p, func(ctx *platform.MemCtx) {
		obj, _ := pool.Alloc(ctx, 1024)
		init := bytes.Repeat([]byte{7}, 1024)
		ctx.PersistStore(pool.NS(), obj, len(init), init)

		mb := pool.OpenBuffered(ctx, obj, 1024)
		if !bytes.Equal(mb.Bytes(), init) {
			t.Fatal("buffered copy wrong")
		}
		mb.Bytes()[10] = 42
		if err := mb.Commit(NT); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 1024)
		ctx.LoadInto(pool.NS(), obj, got)
		if got[10] != 42 {
			t.Fatal("NT commit lost update")
		}

		mb2 := pool.OpenBuffered(ctx, obj, 1024)
		mb2.Bytes()[20] = 43
		if err := mb2.Commit(CLWB); err != nil {
			t.Fatal(err)
		}
		ctx.LoadInto(pool.NS(), obj, got)
		if got[20] != 43 || got[10] != 42 {
			t.Fatal("CLWB commit lost update")
		}
	})
	p.Crash()
}

// MicroBufLatency measures the mean no-op-transaction latency for an
// object size and write-back mode: each transaction touches a fresh (cold)
// object at low load, like the paper's Figure 15 experiment.
func microBufLatency(t testing.TB, size int, mode WriteBackMode, iters int) float64 {
	cfg := platform.DefaultConfig()
	cfg.TrackData = true
	cfg.XP.Wear.Enabled = false
	p := platform.MustNew(cfg)
	ns, err := p.Optane("pool", 0, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := Create(ns)
	if err != nil {
		t.Fatal(err)
	}
	var total sim.Time
	run(p, func(ctx *platform.MemCtx) {
		for i := 0; i < iters; i++ {
			obj, err := pool.Alloc(ctx, size)
			if err != nil {
				t.Fatal(err)
			}
			ctx.Proc().Sleep(10 * sim.Microsecond) // let queues drain
			start := ctx.Proc().Now()
			mb := pool.OpenBuffered(ctx, obj, size)
			if err := mb.Commit(mode); err != nil {
				t.Fatal(err)
			}
			total += ctx.Proc().Now() - start
		}
	})
	return total.Nanoseconds() / float64(iters)
}

// TestMicroBufCrossover verifies the Figure 15 claim: CLWB write-back wins
// for small objects, NT for large ones.
func TestMicroBufCrossover(t *testing.T) {
	smallNT := microBufLatency(t, 64, NT, 40)
	smallCLWB := microBufLatency(t, 64, CLWB, 40)
	bigNT := microBufLatency(t, 8192, NT, 40)
	bigCLWB := microBufLatency(t, 8192, CLWB, 40)
	if smallCLWB >= smallNT {
		t.Errorf("64B: CLWB (%.0f ns) should beat NT (%.0f ns)", smallCLWB, smallNT)
	}
	if bigNT >= bigCLWB {
		t.Errorf("8KB: NT (%.0f ns) should beat CLWB (%.0f ns)", bigNT, bigCLWB)
	}
}
