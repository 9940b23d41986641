// Benchmarks driving the unified harness (internal/harness): the figure
// regenerations and the headline scenarios run through exactly the specs
// cmd/bench executes, so `go test -bench .` and the bench command can
// never disagree. Ablation benchmarks isolate the microarchitectural mechanisms
// DESIGN.md calls out.
package optanestudy_test

import (
	"testing"

	"optanestudy"
	"optanestudy/internal/dimm"
	"optanestudy/internal/harness"
	"optanestudy/internal/lattester"
	"optanestudy/internal/platform"
	_ "optanestudy/internal/scenarios"
	"optanestudy/internal/sim"
)

// benchSpec runs one harness spec per iteration and reports selected
// result metrics (metric name -> Result.Metrics key) plus mean throughput
// when the scenario produces one.
func benchSpec(b *testing.B, spec harness.Spec, metrics map[string]string) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			if res.GBs.Mean > 0 {
				b.ReportMetric(res.GBs.Mean, "GBs")
			}
			for name, key := range metrics {
				if agg, ok := res.Metrics[key]; ok {
					b.ReportMetric(agg.Mean, name)
				}
			}
		}
	}
}

// benchFigure runs a figure scenario and reports per-series maxima from
// the flattened "<figID>/<series>/max" metrics.
func benchFigure(b *testing.B, id string, metrics map[string]string) {
	benchSpec(b, harness.Spec{Scenario: "figures/" + id}, metrics)
}

func BenchmarkFig2Latency(b *testing.B) {
	benchFigure(b, "fig2", map[string]string{
		"optane-ns": "fig2/Optane/max",
		"dram-ns":   "fig2/DRAM/max",
	})
}

func BenchmarkFig3TailLatency(b *testing.B) {
	benchFigure(b, "fig3", map[string]string{
		"max-us": "fig3/Max/max",
	})
}

func BenchmarkFig4ThreadScaling(b *testing.B) {
	benchFigure(b, "fig4", map[string]string{
		"dram-read-GBs":   "fig4-DRAM/Read/max",
		"optane-read-GBs": "fig4-Optane/Read/max",
		"ni-write-GBs":    "fig4-Optane-NI/Write(ntstore)/max",
	})
}

func BenchmarkFig5AccessSize(b *testing.B) {
	benchFigure(b, "fig5", map[string]string{
		"optane-read-GBs": "fig5-Optane/Read/max",
	})
}

func BenchmarkFig6LoadedLatency(b *testing.B) {
	benchFigure(b, "fig6", map[string]string{
		"read-lat-ns": "fig6-read/Optane-Rand/max",
	})
}

func BenchmarkFig7Emulation(b *testing.B) {
	benchFigure(b, "fig7", map[string]string{
		"optane-mix-GBs": "fig7-mix/Optane/max",
		"pmep-mix-GBs":   "fig7-mix/PMEP/max",
	})
}

func BenchmarkFig8RocksDB(b *testing.B) {
	benchFigure(b, "fig8", map[string]string{
		"dram-kops": "fig8-dram/DRAM/max",
		"3dxp-kops": "fig8-optane/3DXP/max",
	})
}

func BenchmarkFig9EWRCorrelation(b *testing.B) {
	benchFigure(b, "fig9", map[string]string{
		"ntstore-max-GBs": "fig9/ntstore/max",
	})
}

func BenchmarkFig10XPBufferProbe(b *testing.B) {
	benchFigure(b, "fig10", map[string]string{
		"max-WA": "fig10/WA/max",
	})
}

func BenchmarkFig12FileIO(b *testing.B) {
	benchFigure(b, "fig12", map[string]string{
		"nova-us":    "fig12/NOVA/max",
		"datalog-us": "fig12/NOVA-datalog/max",
	})
}

func BenchmarkFig13Instructions(b *testing.B) {
	benchFigure(b, "fig13", map[string]string{
		"ntstore-GBs": "fig13-bw/ntstore/max",
	})
}

func BenchmarkFig14SfenceInterval(b *testing.B) {
	benchFigure(b, "fig14", map[string]string{
		"clwb64-GBs": "fig14/clwb(every 64B)/max",
	})
}

func BenchmarkFig15MicroBuffering(b *testing.B) {
	benchFigure(b, "fig15", map[string]string{
		"nt-us":   "fig15/PGL-NT/max",
		"clwb-us": "fig15/PGL-CLWB/max",
	})
}

func BenchmarkFig16IMCContention(b *testing.B) {
	benchFigure(b, "fig16", map[string]string{
		"pinned-write-GBs": "fig16-write/1 Threads/max",
		"spread-write-GBs": "fig16-write/6 Threads/max",
	})
}

func BenchmarkFig17MultiDIMMNova(b *testing.B) {
	benchFigure(b, "fig17", map[string]string{
		"i-sync-GBs":  "fig17-write/I,sync/max",
		"ni-sync-GBs": "fig17-write/NI,sync/max",
	})
}

func BenchmarkFig18NUMAMix(b *testing.B) {
	benchFigure(b, "fig18", map[string]string{
		"local-4-GBs":  "fig18/Optane-4/max",
		"remote-4-GBs": "fig18/Optane-Remote-4/max",
	})
}

func BenchmarkFig19PMemKV(b *testing.B) {
	benchFigure(b, "fig19", map[string]string{
		"optane-GBs": "fig19/Optane/max",
		"remote-GBs": "fig19/Optane-Remote/max",
	})
}

// ---- Headline scenarios: the same specs the bench command runs ----

func BenchmarkScenarioSeqRead(b *testing.B) {
	benchSpec(b, harness.Spec{
		Scenario: "lattester/seq-read", Threads: 4,
		Duration: 100 * sim.Microsecond,
	}, nil)
}

func BenchmarkScenarioSeqNTStore(b *testing.B) {
	benchSpec(b, harness.Spec{
		Scenario: "lattester/seq-ntstore", Threads: 1,
		Duration: 100 * sim.Microsecond,
	}, map[string]string{"ewr": "ewr"})
}

func BenchmarkScenarioFIOSeqWrite(b *testing.B) {
	benchSpec(b, harness.Spec{
		Scenario: "fio/seq-write", Threads: 8, Ops: 32,
	}, nil)
}

func BenchmarkScenarioLSMSet(b *testing.B) {
	benchSpec(b, harness.Spec{
		Scenario: "lsmkv/set-walflex", Ops: 800,
	}, map[string]string{"kops": "kops_per_sec"})
}

func BenchmarkScenarioPMemKVOverwrite(b *testing.B) {
	benchSpec(b, harness.Spec{
		Scenario: "pmemkv/overwrite", Threads: 4,
		Duration: 100 * sim.Microsecond,
	}, nil)
}

func BenchmarkScenarioServePoint(b *testing.B) {
	benchSpec(b, harness.Spec{
		Scenario: "service/kv/pmemkv", Threads: 4,
		Duration: 100 * sim.Microsecond,
	}, map[string]string{"p99-ns": "p99_ns", "achieved-kops": "achieved_kops"})
}

// ---- Ablations: isolate the mechanisms DESIGN.md calls out ----

func niWriteBandwidth(b *testing.B, mutate func(*platform.Config), threads, accessSize int) float64 {
	cfg := platform.DefaultConfig()
	cfg.XP.Wear.Enabled = false
	if mutate != nil {
		mutate(&cfg)
	}
	p := platform.MustNew(cfg)
	ns, err := p.OptaneNI("ni", 0, 0, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	res := lattester.Run(lattester.Spec{
		NS: ns, Op: lattester.OpNTStore, Pattern: lattester.Sequential,
		AccessSize: accessSize, Threads: threads, Duration: 150 * sim.Microsecond,
	})
	return res.GBs
}

// BenchmarkAblationXPBufferSize shows the XPBuffer capacity's effect on
// single-DIMM write bandwidth.
func BenchmarkAblationXPBufferSize(b *testing.B) {
	// Sub-XPLine (128 B) streams need buffered combining: with more
	// concurrent partial lines than buffer slots, combining is forfeit.
	for i := 0; i < b.N; i++ {
		small := niWriteBandwidth(b, func(c *platform.Config) {
			c.XP.BufferLines = 4
			c.XP.StreamPressure = 0 // isolate pure capacity
		}, 8, 128)
		full := niWriteBandwidth(b, func(c *platform.Config) {
			c.XP.StreamPressure = 0
		}, 8, 128)
		if i == b.N-1 {
			b.ReportMetric(small, "4-line-GBs")
			b.ReportMetric(full, "64-line-GBs")
		}
	}
}

// BenchmarkAblationStreamEngines removes the write-stream pressure model
// and shows multi-writer 128 B streams no longer losing combining.
func BenchmarkAblationStreamEngines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := niWriteBandwidth(b, nil, 8, 128)
		without := niWriteBandwidth(b, func(c *platform.Config) { c.XP.StreamPressure = 0 }, 8, 128)
		if i == b.N-1 {
			b.ReportMetric(with, "8thr-GBs")
			b.ReportMetric(without, "8thr-nopressure-GBs")
		}
	}
}

// BenchmarkAblationWPQCapacity varies the per-channel WPQ depth on a
// fenced 4 KB burst. The near-identical results are themselves a model
// finding: with the 16 KB XPBuffer ingesting drains at bus speed, the WPQ
// depth is not the binding buffer for isolated bursts — burst absorption
// lives in the XPBuffer (compare BenchmarkAblationXPBufferSize), and the
// WPQ matters through FIFO head-of-line under cross-thread contention
// (Figure 16) rather than through its capacity.
func BenchmarkAblationWPQCapacity(b *testing.B) {
	burstLatency := func(entries int) float64 {
		cfg := platform.DefaultConfig()
		cfg.XP.Wear.Enabled = false
		cfg.Channel.WPQEntries = entries
		p := platform.MustNew(cfg)
		ns, err := p.OptaneNI("ni", 0, 0, 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		var total sim.Time
		p.Go("burst", 0, func(ctx *platform.MemCtx) {
			const n = 50
			for i := 0; i < n; i++ {
				ctx.Proc().Sleep(10 * sim.Microsecond) // let queues drain
				start := ctx.Proc().Now()
				ctx.NTStore(ns, int64(i)*4096, 4096, nil)
				ctx.SFence()
				total += ctx.Proc().Now() - start
			}
		})
		p.Run()
		return total.Nanoseconds() / 50
	}
	for i := 0; i < b.N; i++ {
		shallow := burstLatency(2)
		deep := burstLatency(24)
		if i == b.N-1 {
			b.ReportMetric(shallow, "wpq2-burst-ns")
			b.ReportMetric(deep, "wpq24-burst-ns")
		}
	}
}

// BenchmarkAblationWearModel measures the tail-latency cost of the
// wear-leveling remap model on a hot line.
func BenchmarkAblationWearModel(b *testing.B) {
	run := func(enabled bool) float64 {
		cfg := platform.DefaultConfig()
		cfg.XP.Wear.Enabled = enabled
		p := platform.MustNew(cfg)
		ns, err := p.Optane("pm", 0, 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		h := lattester.TailLatency(lattester.TailSpec{NS: ns, Hotspot: 256, Ops: 60000})
		return h.Max()
	}
	for i := 0; i < b.N; i++ {
		on := run(true)
		off := run(false)
		if i == b.N-1 {
			b.ReportMetric(on/1000, "wear-max-us")
			b.ReportMetric(off/1000, "nowear-max-us")
		}
	}
}

// BenchmarkSimulatorThroughput reports raw simulation speed: simulated
// memory operations per wall-clock second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := optanestudy.DefaultConfig()
	cfg.XP.Wear.Enabled = false
	p := optanestudy.NewPlatform(cfg)
	ns, err := p.Optane("pm", 0, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	ops := 0
	p.Go("bench", 0, func(ctx *optanestudy.MemCtx) {
		for i := 0; i < b.N; i++ {
			ctx.NTStore(ns, int64(i%4096)*256, 256, nil)
			ctx.SFence()
			ops++
		}
	})
	p.Run()
	_ = ops
}

// Substrate microbenchmarks.

func BenchmarkXPDIMMWriteLine(b *testing.B) {
	cfg := dimm.DefaultXPConfig()
	cfg.Wear.Enabled = false
	d := dimm.NewXPDIMM(cfg)
	var t sim.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = d.WriteLine(t, int64(i%100000)*64)
	}
}

func BenchmarkEngineYield(b *testing.B) {
	eng := sim.NewEngine()
	eng.Go("spin", 0, func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(sim.Nanosecond)
		}
	})
	b.ResetTimer()
	eng.Run()
}
