package figures

import (
	"fmt"
	"strconv"
	"strings"

	"optanestudy/internal/harness"
	"optanestudy/internal/lattester"
	"optanestudy/internal/sim"
	"optanestudy/internal/stats"
)

// Fig2 reproduces "Best-case latency": random and sequential 8 B read
// latency plus 64 B write latency via ntstore and store+clwb, for DRAM and
// Optane. X positions: 0=read-seq, 1=read-rand, 2=write-ntstore,
// 3=write-clwb. Standard deviations land in the Notes field (the paper's
// error bars).
func Fig2(q Quality) []stats.Figure {
	type point struct {
		op  lattester.Op
		pat lattester.PatternKind
	}
	cases := []point{
		{lattester.OpRead, lattester.Sequential},
		{lattester.OpRead, lattester.Random},
		{lattester.OpNTStore, lattester.Sequential},
		{lattester.OpStoreCLWB, lattester.Sequential},
	}
	ops := q.ops(10000)
	fig := stats.Figure{
		ID:     "fig2",
		Title:  "Best-case latency (ns)",
		XLabel: "op (0=read-seq 1=read-rand 2=ntstore 3=store+clwb)",
		YLabel: "idle latency (ns)",
	}
	var b batch
	for _, name := range []string{"DRAM", "Optane"} {
		for i, c := range cases {
			spec := harness.Spec{
				Scenario: "lattester/idle-latency",
				Params: map[string]string{
					"system":  strings.ToLower(name),
					"op":      c.op.String(),
					"pattern": c.pat.String(),
				},
				Ops: ops,
			}
			b.then(spec, func(tr harness.Trial) {
				add(&fig, name, float64(i), tr.Metrics["mean_ns"])
				fig.Notes += fmt.Sprintf("%s[%d] std=%.1f ", name, i, tr.Metrics["std_ns"])
			})
		}
	}
	b.run()
	return []stats.Figure{fig}
}

// Fig3 reproduces "Tail latency": 99.99th, 99.999th and maximum write
// latency (µs) as a function of hotspot size.
func Fig3(q Quality) []stats.Figure {
	hotspots := []int64{256, 2 << 10, 16 << 10, 128 << 10, 1 << 20, 8 << 20, 64 << 20}
	ops := q.ops(1000000)
	fig := stats.Figure{
		ID:     "fig3",
		Title:  "Tail latency over hotspot size",
		XLabel: "hotspot (bytes)",
		YLabel: "latency (us)",
	}
	var b batch
	for _, h := range hotspots {
		spec := harness.Spec{
			Scenario: "lattester/tail-latency",
			Params:   map[string]string{"hotspot": strconv.FormatInt(h, 10)},
			Ops:      ops,
		}
		b.then(spec, func(tr harness.Trial) {
			add(&fig, "99.99%", float64(h), tr.Latency.Percentile(0.9999)/1000)
			add(&fig, "99.999%", float64(h), tr.Latency.Percentile(0.99999)/1000)
			add(&fig, "Max", float64(h), tr.Latency.Max()/1000)
		})
	}
	b.run()
	return []stats.Figure{fig}
}

// Fig6 reproduces "Memory latency and bandwidth under varying load": delay
// injection sweeps load; each point is (achieved bandwidth, mean latency).
// Panel 1 is reads (16 threads), panel 2 ntstores (4 threads).
func Fig6(q Quality) []stats.Figure {
	delays := []sim.Time{0, 100 * sim.Nanosecond, 300 * sim.Nanosecond,
		sim.Microsecond, 3 * sim.Microsecond, 10 * sim.Microsecond, 80 * sim.Microsecond}
	if q == Quick {
		delays = []sim.Time{0, 300 * sim.Nanosecond, 3 * sim.Microsecond, 80 * sim.Microsecond}
	}
	read := stats.Figure{
		ID: "fig6-read", Title: "Latency under load: read",
		XLabel: "bandwidth (GB/s)", YLabel: "latency (ns)",
	}
	write := stats.Figure{
		ID: "fig6-write", Title: "Latency under load: write (ntstore)",
		XLabel: "bandwidth (GB/s)", YLabel: "latency (ns)",
	}
	load := func(system string, op lattester.Op, pat lattester.PatternKind, threads int, d sim.Time) harness.Spec {
		spec := kernel(system, op, pat, 64)
		spec.Threads = threads
		spec.Duration = q.dur(200 * sim.Microsecond)
		spec.Params["delay_ns"] = strconv.FormatInt(int64(d/sim.Nanosecond), 10)
		spec.Params["latency"] = "true"
		return spec
	}
	var b batch
	for _, media := range []string{"DRAM", "Optane"} {
		for _, pat := range []lattester.PatternKind{patRand, patSeq} {
			name := fmt.Sprintf("%s-%s", media, patLabel(pat))
			for _, d := range delays {
				b.plot(&read, name, load(media, lattester.OpRead, pat, 16, d), loaded)
				b.plot(&write, name, load(media, lattester.OpNTStore, pat, 4, d), loaded)
			}
		}
	}
	b.run()
	return []stats.Figure{read, write}
}

// Fig7 reproduces "Microbenchmarks under emulation": left, the sequential
// write latency/bandwidth curve for each emulation; right, bandwidth by
// read/write mix.
func Fig7(q Quality) []stats.Figure {
	systems := []string{"DRAM", "DRAM-Remote", "Optane", "PMEP"}
	curve := stats.Figure{
		ID: "fig7-latbw", Title: "Seq. write latency/BW under emulation",
		XLabel: "bandwidth (GB/s)", YLabel: "latency (ns)",
	}
	delays := []sim.Time{0, 200 * sim.Nanosecond, sim.Microsecond, 10 * sim.Microsecond}
	if q == Quick {
		delays = []sim.Time{0, sim.Microsecond}
	}
	mixFig := stats.Figure{
		ID: "fig7-mix", Title: "Bandwidth by thread mix under emulation",
		XLabel: "mix (0=all-write 1=1:1 2=all-read)", YLabel: "bandwidth (GB/s)",
		Notes: fmt.Sprint([]string{"All Wr.", "1:1 Wr.:Rd.", "All Rd."}),
	}
	var b batch
	for _, sys := range systems {
		for _, d := range delays {
			spec := emulatedSpec(sys, lattester.OpNTStore, patSeq, 64)
			spec.Threads = 4
			spec.Duration = q.dur(150 * sim.Microsecond)
			spec.Params["delay_ns"] = strconv.FormatInt(int64(d/sim.Nanosecond), 10)
			spec.Params["latency"] = "true"
			b.plot(&curve, sys, spec, loaded)
		}
	}
	for _, sys := range systems {
		for i, m := range []string{"0:1", "1:1", "1:0"} {
			spec := emulatedSpec(sys, lattester.OpRead, patSeq, 256)
			spec.Threads = 8
			spec.Duration = q.dur(150 * sim.Microsecond)
			spec.Params["mix"] = m
			b.plot(&mixFig, sys, spec, gbs(float64(i)))
		}
	}
	b.run()
	return []stats.Figure{curve, mixFig}
}

// emulatedSpec builds the kernel spec for one emulation methodology: DRAM
// and DRAM-Remote emulate persistent memory on a 1 GB DRAM pool (local or
// one UPI hop away), Optane is the 1 GB real-media baseline, and PMEP is
// the Persistent Memory Emulator Platform's slowed DRAM timings.
func emulatedSpec(sys string, op lattester.Op, pat lattester.PatternKind, size int) harness.Spec {
	var spec harness.Spec
	switch sys {
	case "DRAM":
		spec = kernel("dram", op, pat, size)
	case "DRAM-Remote":
		spec = kernel("dram", op, pat, size)
		spec.Socket = 1
	case "Optane":
		spec = kernel("optane", op, pat, size)
		spec.Params["nssize"] = strconv.FormatInt(1<<30, 10)
	case "PMEP":
		spec = kernel("dram", op, pat, size)
		spec.Params["platform"] = "pmep"
	default:
		panic("figures: unknown emulation " + sys)
	}
	return spec
}
