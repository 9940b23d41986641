package platform

import (
	"runtime"
	"testing"
	"time"
)

// TestHundredPlatformsNoGoroutineLeak is the regression test for the
// platform-per-trial lifecycle the parallel harness depends on: building
// and tearing down 100 platforms — some run to completion, some abandoned
// with spawned-but-never-run threads — must not accumulate goroutines.
func TestHundredPlatformsNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		cfg := DefaultConfig()
		cfg.XP.Wear.Enabled = false
		p := MustNew(cfg)
		ns, err := p.Optane("pm", 0, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		for th := 0; th < 4; th++ {
			p.Go("w", 0, func(ctx *MemCtx) {
				ctx.PersistNT(ns, 0, 256, nil)
			})
		}
		if i%2 == 0 {
			// The happy path: the trial runs to completion, Close is a
			// no-op.
			p.Run()
		}
		// The error path leaves the 4 threads parked; Close must reap them.
		p.Close()
	}
	if after := waitGoroutines(before); after > before {
		t.Errorf("goroutines leaked across 100 platforms: %d before, %d after", before, after)
	}
}

// waitGoroutines polls until the goroutine count drops to at most want, or
// two seconds pass; it returns the final count.
func waitGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestPanickingThreadNoGoroutineLeak covers the scenario shape around a
// thread that panics: the panic surfaces from Run, the deferred Close
// reaps the threads still parked without raising a second panic, and no
// goroutine is left behind.
func TestPanickingThreadNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		cfg := DefaultConfig()
		cfg.XP.Wear.Enabled = false
		p := MustNew(cfg)
		ns, err := p.Optane("pm", 0, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		for th := 0; th < 4; th++ {
			p.Go("w", 0, func(ctx *MemCtx) {
				for off := int64(0); ; off += 256 {
					ctx.PersistNT(ns, off, 256, nil)
				}
			})
		}
		p.Go("boom", 0, func(ctx *MemCtx) {
			ctx.PersistNT(ns, 1<<20, 256, nil)
			panic("boom")
		})
		r := func() (r any) {
			defer func() { r = recover() }()
			defer p.Close()
			p.Run()
			return nil
		}()
		if r != "boom" {
			t.Fatalf("Run under a deferred Close panicked with %v, want %q", r, "boom")
		}
	}
	if after := waitGoroutines(before); after > before {
		t.Errorf("goroutines leaked across 20 panicking platforms: %d before, %d after", before, after)
	}
}

// TestCloseAfterPartialUse checks Close on a platform whose engine already
// ran, then had more threads spawned for a second Run that never happened.
func TestCloseAfterPartialUse(t *testing.T) {
	p := newPlatform(t, false)
	ns, err := p.Optane("pm", 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	run1(p, 0, func(ctx *MemCtx) { ctx.Load(ns, 0, 64) })
	p.Go("never-run", 0, func(ctx *MemCtx) { ctx.Load(ns, 0, 64) })
	p.Close()
	p.Close() // idempotent
}
