package platform_test

import (
	"testing"

	"optanestudy/internal/lattester"
	. "optanestudy/internal/platform"
	"optanestudy/internal/sim"
)

// These tests measure the calibration points with MemCtx loops of their
// own, below lattester's kernels, and check each against its window in
// lattester's fidelity catalog.

// inWindow fails t when v is outside the window of the catalog point
// called name.
func inWindow(t *testing.T, name string, v float64) {
	t.Helper()
	for _, pt := range lattester.Catalog() {
		if pt.Name == name {
			if !pt.In(v) {
				t.Errorf("%s = %.4g, outside %s (paper %g, %s)", name, v, pt.Window(), pt.Paper, pt.Source)
			}
			return
		}
	}
	t.Fatalf("no catalog point %q", name)
}

func TestLatencyOptaneRandomRead(t *testing.T) {
	p := NewPlatform(t, false)
	ns, _ := p.Optane("pm", 0, 1<<30)
	r := sim.NewRNG(7)
	lat := AvgLatency(p, ns, 2000, func(ctx *MemCtx, i int) {
		ctx.Load(ns, r.Int63n(ns.Size)&^63, 8)
	})
	inWindow(t, "idle_rand_read_ns", lat)
}

func TestLatencyOptaneSequentialRead(t *testing.T) {
	p := NewPlatform(t, false)
	ns, _ := p.Optane("pm", 0, 1<<30)
	lat := AvgLatency(p, ns, 4000, func(ctx *MemCtx, i int) {
		ctx.Load(ns, int64(i)*64, 8)
	})
	inWindow(t, "idle_seq_read_ns", lat)
}

func TestLatencyDRAMReads(t *testing.T) {
	p := NewPlatform(t, false)
	ns, _ := p.DRAM("dram", 0, 1<<30)
	r := sim.NewRNG(9)
	rand := AvgLatency(p, ns, 2000, func(ctx *MemCtx, i int) {
		ctx.Load(ns, r.Int63n(ns.Size)&^63, 8)
	})
	seq := AvgLatency(p, ns, 2000, func(ctx *MemCtx, i int) {
		ctx.Load(ns, int64(i)*64, 8)
	})
	inWindow(t, "dram_seq_read_ns", seq)
	inWindow(t, "dram_rand_read_ns", rand)
	if rand <= seq {
		t.Errorf("random (%.1f) must exceed sequential (%.1f)", rand, seq)
	}
}

func TestLatencyWriteInstructions(t *testing.T) {
	p := NewPlatform(t, false)
	pm, _ := p.Optane("pm", 0, 1<<26)
	dram, _ := p.DRAM("dram", 0, 1<<26)

	measure := func(ns *Namespace, nt bool) float64 {
		return AvgLatency(p, ns, 1000, func(ctx *MemCtx, i int) {
			off := int64(i%1024) * 64
			if nt {
				ctx.NTStore(ns, off, 64, nil)
				ctx.SFence()
			} else {
				ctx.Store(ns, off, 64, nil)
				ctx.CLWB(ns, off, 64)
				ctx.SFence()
			}
		})
	}
	// Warm the cache so store+clwb measures the paper's "line already
	// cached" case.
	Run1(p, 0, func(ctx *MemCtx) {
		for i := int64(0); i < 1024; i++ {
			ctx.Load(pm, i*64, 64)
			ctx.Load(dram, i*64, 64)
		}
	})

	clwbXP := measure(pm, false)
	ntXP := measure(pm, true)
	clwbDRAM := measure(dram, false)
	ntDRAM := measure(dram, true)

	inWindow(t, "store_clwb_ns", clwbXP)
	inWindow(t, "ntstore_ns", ntXP)
	inWindow(t, "dram_store_clwb_ns", clwbDRAM)
	inWindow(t, "dram_ntstore_ns", ntDRAM)
	if ntXP < clwbXP {
		t.Error("ntstore must cost more than store+clwb for 64B")
	}
}

func TestSequentialNTStoreBandwidthNI(t *testing.T) {
	p := NewPlatform(t, false)
	ns, _ := p.OptaneNI("ni", 0, 0, 1<<28)
	const total = 12 << 20
	end := Run1(p, 0, func(ctx *MemCtx) {
		for off := int64(0); off < total; off += 256 {
			ctx.NTStore(ns, off, 256, nil)
		}
		ctx.SFence()
	})
	inWindow(t, "ni_ntstore_gbs", float64(total)/end.Seconds()/1e9)
	c := p.XPCounters(0)
	if c.EWR() < 0.95 {
		t.Errorf("sequential EWR = %.3f", c.EWR())
	}
}

func TestInterleavingScalesWriteBandwidth(t *testing.T) {
	bw := func(interleaved bool, threads int) float64 {
		p := NewPlatform(t, false)
		var ns *Namespace
		if interleaved {
			ns, _ = p.Optane("pm", 0, 1<<30)
		} else {
			ns, _ = p.OptaneNI("pm", 0, 0, 1<<30)
		}
		const per = 3 << 20
		for th := 0; th < threads; th++ {
			th := th
			p.Go("w", 0, func(ctx *MemCtx) {
				base := int64(th) * (ns.Size / int64(threads))
				for off := int64(0); off < per; off += 256 {
					ctx.NTStore(ns, base+off, 256, nil)
				}
				ctx.SFence()
			})
		}
		end := p.Run()
		return float64(per*int64(threads)) / end.Seconds() / 1e9
	}
	ni := bw(false, 1)
	il := bw(true, 6)
	t.Logf("interleaved 6T %.2f GB/s, single DIMM 1T %.2f GB/s", il, ni)
	inWindow(t, "interleave_speedup", il/ni)
}

func TestDRAMReadBandwidthScales(t *testing.T) {
	p := NewPlatform(t, false)
	ns, _ := p.DRAM("dram", 0, 1<<30)
	const per = 4 << 20
	threads := 24
	for th := 0; th < threads; th++ {
		th := th
		p.Go("r", 0, func(ctx *MemCtx) {
			base := int64(th) * (ns.Size / int64(threads))
			for off := int64(0); off < per; off += 256 {
				ctx.LoadStream(ns, base+off, 256)
			}
			ctx.DrainLoads()
		})
	}
	end := p.Run()
	inWindow(t, "dram_read24_gbs", float64(per*int64(threads))/end.Seconds()/1e9)
}
