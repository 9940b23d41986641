package pmem

import (
	"bytes"
	"testing"

	"optanestudy/internal/platform"
	"optanestudy/internal/sim"
)

func testPlatform(t testing.TB) (*platform.Platform, *platform.Namespace) {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.TrackData = true
	cfg.XP.Wear.Enabled = false
	p := platform.MustNew(cfg)
	t.Cleanup(p.Close)
	ns, err := p.Optane("pmem", 0, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	return p, ns
}

func pattern(seed uint64, n int) []byte {
	r := sim.NewRNG(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return b
}

// Every policy must persist byte-identical contents: after a crash, the
// durable bytes equal what was written, for aligned and unaligned ranges.
func TestPolicyEquivalentContents(t *testing.T) {
	type write struct {
		off  int64
		size int
	}
	writes := []write{{0, 64}, {64, 8}, {100, 200}, {4096, 1024}, {8191, 513}, {65536, 4096}}
	for _, pol := range Policies() {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			p, ns := testPlatform(t)
			reg := Whole(ns)
			w := NewPersister(pol)
			var bufs [][]byte
			p.Go("w", 0, func(ctx *platform.MemCtx) {
				for i, wr := range writes {
					b := pattern(uint64(i)*977+3, wr.size)
					bufs = append(bufs, b)
					w.Persist(ctx, reg, wr.off, wr.size, b)
				}
			})
			p.Run()
			p.Crash()
			for i, wr := range writes {
				got := make([]byte, wr.size)
				reg.ReadDurable(wr.off, got)
				if !bytes.Equal(got, bufs[i]) {
					t.Fatalf("%s: write %d [%d,+%d) not durable", pol, i, wr.off, wr.size)
				}
			}
			ops, bs := w.C.Total()
			if ops != int64(len(writes)) {
				t.Errorf("counted %d ops, want %d", ops, len(writes))
			}
			var want int64
			for _, wr := range writes {
				want += int64(wr.size)
			}
			if bs != want {
				t.Errorf("counted %d bytes, want %d", bs, want)
			}
			if w.C.Fences != int64(len(writes)) {
				t.Errorf("counted %d fences, want %d", w.C.Fences, len(writes))
			}
		})
	}
}

// The write-then-flush-later split (POSIX write/fsync shape) must also be
// durable under every cached-store policy — including Auto, which must
// resolve Flush to the cached-store branch at any size (the staged bytes
// sit dirty in the cache; a size-based no-op would lose them).
func TestFlushSplitDurable(t *testing.T) {
	for _, pol := range []Policy{StoreFlush, StoreFlushOpt, CLFlush, Auto} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			p, ns := testPlatform(t)
			reg := Whole(ns)
			w := NewPersister(pol)
			data := pattern(9, 300)
			p.Go("w", 0, func(ctx *platform.MemCtx) {
				reg.Store(ctx, 128, len(data), data)
				w.Flush(ctx, reg, 128, len(data))
				w.Fence(ctx)
			})
			p.Run()
			p.Crash()
			got := make([]byte, len(data))
			reg.ReadDurable(128, got)
			if !bytes.Equal(got, data) {
				t.Fatalf("%s: flushed range not durable", pol)
			}
		})
	}
}

func TestAutoEffective(t *testing.T) {
	w := NewPersister(Auto)
	if got := w.Effective(AutoThreshold - 1); got != StoreFlush {
		t.Errorf("below threshold: %v", got)
	}
	if got := w.Effective(AutoThreshold); got != NTStream {
		t.Errorf("at threshold: %v", got)
	}
	if got := NewPersister(CLFlush).Effective(8); got != CLFlush {
		t.Errorf("concrete policy must not resolve: %v", got)
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, pol := range Policies() {
		got, err := ParsePolicy(pol.String())
		if err != nil || got != pol {
			t.Errorf("round-trip %v: %v, %v", pol, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("bogus policy must error")
	}
}

func TestRegionBounds(t *testing.T) {
	p, ns := testPlatform(t)
	if _, err := NewRegion(ns, -1, 10); err == nil {
		t.Error("negative base accepted")
	}
	if _, err := NewRegion(ns, 0, ns.Size+1); err == nil {
		t.Error("oversized region accepted")
	}
	reg, err := NewRegion(ns, 4096, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Sub(0, 8193); err == nil {
		t.Error("oversized subregion accepted")
	}
	sub, err := reg.Sub(1024, 512)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Base() != 4096+1024 || sub.Size() != 512 {
		t.Errorf("sub window = [%d,+%d)", sub.Base(), sub.Size())
	}
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: out-of-region access did not panic", name)
			}
		}()
		fn()
	}
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		expectPanic("store-past-end", func() { reg.Store(ctx, 8190, 3, nil) })
		expectPanic("nt-negative", func() { reg.NTStore(ctx, -1, 2, nil) })
		expectPanic("load-past-end", func() { reg.Load(ctx, 8192, 1) })
		expectPanic("readdurable", func() { reg.ReadDurable(8000, make([]byte, 200)) })
		// An in-bounds region access near the end must NOT panic even
		// though the namespace extends further.
		reg.Store(ctx, 8128, 64, nil)
		reg.CLWB(ctx, 8128, 64)
		reg.SFence(ctx)
	})
	p.Run()
}

func TestAppenderWrapAndScratch(t *testing.T) {
	p, ns := testPlatform(t)
	reg, err := NewRegion(ns, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAppender(reg, NewPersister(NTStream))
	var offs []int64
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		for i := 0; i < 5; i++ {
			rec := a.Scratch(300)
			for j := range rec {
				rec[j] = byte(i)
			}
			off, err := a.Append(ctx, rec)
			if err != nil {
				t.Error(err)
				return
			}
			offs = append(offs, off)
		}
		if _, err := a.Append(ctx, make([]byte, 2048)); err == nil {
			t.Error("oversized record accepted")
		}
	})
	p.Run()
	// 1024/300: records at 0, 300, 600, then wrap to 0, 300.
	want := []int64{0, 300, 600, 0, 300}
	for i, off := range offs {
		if off != want[i] {
			t.Fatalf("append %d at %d, want %d", i, off, want[i])
		}
	}
	if a.Wraps() != 1 {
		t.Errorf("wraps = %d, want 1", a.Wraps())
	}
	p.Crash()
	// The last full write of each surviving slot: slot 0 holds record 3,
	// slot 300 holds record 4, slot 600 holds record 2.
	for _, c := range []struct {
		off  int64
		want byte
	}{{0, 3}, {300, 4}, {600, 2}} {
		got := make([]byte, 300)
		reg.ReadDurable(c.off, got)
		for _, b := range got {
			if b != c.want {
				t.Fatalf("slot %d byte = %d, want %d", c.off, b, c.want)
			}
		}
	}
}
