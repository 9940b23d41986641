package platform

import (
	"bytes"
	"testing"

	"optanestudy/internal/sim"
)

// run1 executes fn as a single simulated thread on the socket and returns
// the elapsed simulated time.
func run1(p *Platform, socket int, fn func(ctx *MemCtx)) sim.Time {
	start := p.Now()
	p.Go("t0", socket, fn)
	return p.Run() - start
}

func newPlatform(t testing.TB, track bool) *Platform {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TrackData = track
	cfg.XP.Wear.Enabled = false
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// avgLatency measures the mean per-op latency of n fenced operations.
func avgLatency(p *Platform, ns *Namespace, n int, op func(ctx *MemCtx, i int)) float64 {
	var total sim.Time
	run1(p, ns.Socket, func(ctx *MemCtx) {
		for i := 0; i < n; i++ {
			start := ctx.Proc().Now()
			op(ctx, i)
			total += ctx.Proc().Now() - start
		}
	})
	return total.Nanoseconds() / float64(n)
}

func TestRemoteLatencyHigher(t *testing.T) {
	p := newPlatform(t, false)
	ns, _ := p.Optane("pm", 0, 1<<28)
	r := sim.NewRNG(3)
	local := avgLatency(p, ns, 1000, func(ctx *MemCtx, i int) {
		ctx.Load(ns, r.Int63n(ns.Size)&^63, 8)
	})
	p2 := newPlatform(t, false)
	ns2, _ := p2.Optane("pm", 0, 1<<28)
	r2 := sim.NewRNG(3)
	var total sim.Time
	run1(p2, 1, func(ctx *MemCtx) {
		for i := 0; i < 1000; i++ {
			start := ctx.Proc().Now()
			ctx.Load(ns2, r2.Int63n(ns2.Size)&^63, 8)
			total += ctx.Proc().Now() - start
		}
	})
	remote := total.Nanoseconds() / 1000
	ratio := remote / local
	if ratio < 1.15 || ratio > 1.9 {
		t.Errorf("remote/local random read ratio = %.2f (%.0f/%.0f ns), paper: 1.2-1.8",
			ratio, remote, local)
	}
}

func TestDataRoundTrip(t *testing.T) {
	p := newPlatform(t, true)
	ns, _ := p.Optane("pm", 0, 1<<20)
	msg := []byte("persistent memory is not just slow DRAM")
	run1(p, 0, func(ctx *MemCtx) {
		ctx.Store(ns, 1000, len(msg), msg)
		got := make([]byte, len(msg))
		ctx.LoadInto(ns, 1000, got)
		if !bytes.Equal(got, msg) {
			t.Error("cached store not visible to load")
		}
	})
	// Unflushed: durable copy must NOT have it yet.
	durable := make([]byte, len(msg))
	ns.ReadDurable(1000, durable)
	if bytes.Equal(durable, msg) {
		t.Error("unflushed store already durable")
	}
	run1(p, 0, func(ctx *MemCtx) {
		ctx.CLWB(ns, 1000, len(msg))
		ctx.SFence()
	})
	ns.ReadDurable(1000, durable)
	if !bytes.Equal(durable, msg) {
		t.Error("flushed store not durable")
	}
}

func TestCrashSemantics(t *testing.T) {
	p := newPlatform(t, true)
	ns, _ := p.Optane("pm", 0, 1<<20)
	flushed := []byte("flushed-data-xx")
	dirty := []byte("dirty-data-yyyy")
	nt := []byte("ntstore-data-zz")
	ntPartial := []byte("partial")
	run1(p, 0, func(ctx *MemCtx) {
		ctx.Store(ns, 0, len(flushed), flushed)
		ctx.CLWB(ns, 0, len(flushed))
		ctx.SFence()
		ctx.Store(ns, 4096, len(dirty), dirty) // never flushed
		ctx.NTStore(ns, 8192, 64, append(nt, make([]byte, 64-len(nt))...))
		ctx.SFence()
		ctx.NTStore(ns, 12288, len(ntPartial), ntPartial) // partial WC line, no fence
	})
	lost := p.Crash()
	if lost == 0 {
		t.Error("crash lost nothing despite dirty lines and WC partials")
	}
	buf := make([]byte, 64)
	ns.ReadDurable(0, buf)
	if !bytes.Equal(buf[:len(flushed)], flushed) {
		t.Error("flushed data lost in crash")
	}
	ns.ReadDurable(4096, buf)
	if bytes.Equal(buf[:len(dirty)], dirty) {
		t.Error("unflushed cached store survived crash")
	}
	ns.ReadDurable(8192, buf)
	if !bytes.Equal(buf[:len(nt)], nt) {
		t.Error("fenced ntstore lost in crash")
	}
	ns.ReadDurable(12288, buf)
	if bytes.Equal(buf[:len(ntPartial)], ntPartial) {
		t.Error("unfenced partial WC line survived crash")
	}
}

func TestEvictionMakesDirtyDataDurable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrackData = true
	cfg.XP.Wear.Enabled = false
	cfg.LLC.Lines = 64 // tiny cache to force evictions
	p := MustNew(cfg)
	ns, _ := p.Optane("pm", 0, 1<<20)
	msg := bytes.Repeat([]byte{0xCD}, 64)
	run1(p, 0, func(ctx *MemCtx) {
		ctx.Store(ns, 0, 64, msg)
		// Thrash the cache until line 0 must have been evicted.
		for i := int64(1); i < 512; i++ {
			ctx.Store(ns, i*64, 64, nil)
		}
	})
	p.Crash()
	buf := make([]byte, 64)
	ns.ReadDurable(0, buf)
	if !bytes.Equal(buf, msg) {
		t.Error("evicted dirty line did not reach durable storage")
	}
}

func TestPersistIdioms(t *testing.T) {
	p := newPlatform(t, true)
	ns, _ := p.Optane("pm", 0, 1<<20)
	a := bytes.Repeat([]byte{1}, 300)
	b := bytes.Repeat([]byte{2}, 300)
	run1(p, 0, func(ctx *MemCtx) {
		ctx.PersistNT(ns, 0, len(a), a)
		ctx.PersistStore(ns, 512, len(b), b)
	})
	p.Crash()
	buf := make([]byte, 300)
	ns.ReadDurable(0, buf)
	if !bytes.Equal(buf, a) {
		t.Error("PersistNT not durable")
	}
	ns.ReadDurable(512, buf)
	if !bytes.Equal(buf, b) {
		t.Error("PersistStore not durable")
	}
}

func TestNamespaceBoundsChecked(t *testing.T) {
	p := newPlatform(t, false)
	ns, _ := p.Optane("pm", 0, 1<<20)
	caught := false
	run1(p, 0, func(ctx *MemCtx) {
		defer func() {
			if recover() != nil {
				caught = true
			}
		}()
		ctx.Load(ns, ns.Size-4, 64)
	})
	if !caught {
		t.Error("out-of-range access not caught")
	}
}

func TestPMEPPreset(t *testing.T) {
	p := MustNew(PMEPConfig())
	ns, _ := p.DRAM("pmem", 0, 1<<26)
	r := sim.NewRNG(5)
	lat := avgLatency(p, ns, 500, func(ctx *MemCtx, i int) {
		ctx.Load(ns, r.Int63n(ns.Size)&^63, 8)
	})
	if lat < 380 || lat > 440 {
		t.Errorf("PMEP load latency = %.1f ns, want ~401 (DRAM+300)", lat)
	}
}

func TestEADRCrashKeepsDirtyCacheLines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrackData = true
	cfg.XP.Wear.Enabled = false
	cfg.EADR = true
	p := MustNew(cfg)
	ns, _ := p.Optane("pm", 0, 1<<20)
	dirty := []byte("eadr keeps me")
	partial := []byte("wc-lost")
	run1(p, 0, func(ctx *MemCtx) {
		ctx.Store(ns, 0, len(dirty), dirty)          // never flushed
		ctx.NTStore(ns, 4096, len(partial), partial) // partial WC, no fence
	})
	lost := p.Crash()
	buf := make([]byte, len(dirty))
	ns.ReadDurable(0, buf)
	if !bytes.Equal(buf, dirty) {
		t.Error("eADR crash lost a dirty cache line")
	}
	// WC buffers remain outside the eADR domain.
	buf2 := make([]byte, len(partial))
	ns.ReadDurable(4096, buf2)
	if bytes.Equal(buf2, partial) {
		t.Error("unfenced WC data survived (should be outside eADR)")
	}
	if lost == 0 {
		t.Error("WC partials should still count as lost")
	}
}

func TestEADRMakesFlushesOptional(t *testing.T) {
	// The same store sequence loses data under ADR and keeps it under eADR.
	runWith := func(eadr bool) bool {
		cfg := DefaultConfig()
		cfg.TrackData = true
		cfg.XP.Wear.Enabled = false
		cfg.EADR = eadr
		p := MustNew(cfg)
		ns, _ := p.Optane("pm", 0, 1<<20)
		run1(p, 0, func(ctx *MemCtx) {
			ctx.Store(ns, 512, 4, []byte("data"))
			ctx.SFence() // ordering only; no flush
		})
		p.Crash()
		buf := make([]byte, 4)
		ns.ReadDurable(512, buf)
		return bytes.Equal(buf, []byte("data"))
	}
	if runWith(false) {
		t.Error("ADR platform kept unflushed data")
	}
	if !runWith(true) {
		t.Error("eADR platform lost unflushed data")
	}
}
