package figures

import (
	"fmt"
	"strconv"

	"optanestudy/internal/harness"
	"optanestudy/internal/lattester"
	"optanestudy/internal/sim"
	"optanestudy/internal/stats"
)

var threeOps = []lattester.Op{lattester.OpRead, lattester.OpNTStore, lattester.OpStoreCLWB}

func opLabel(op lattester.Op) string {
	switch op {
	case lattester.OpRead:
		return "Read"
	case lattester.OpNTStore:
		return "Write(ntstore)"
	case lattester.OpStoreCLWB:
		return "Write(clwb)"
	default:
		return op.String()
	}
}

// Fig4 reproduces "Bandwidth vs. thread count": sequential 256 B accesses
// on DRAM, Optane-NI and Optane as thread count rises.
func Fig4(q Quality) []stats.Figure {
	threads := []int{1, 2, 4, 8, 12, 16, 20, 24}
	if q == Quick {
		threads = []int{1, 2, 4, 8, 16, 24}
	}
	systems := []string{"DRAM", "Optane-NI", "Optane"}
	out := make([]stats.Figure, len(systems))
	var b batch
	for i, system := range systems {
		out[i] = stats.Figure{
			ID:     "fig4-" + system,
			Title:  fmt.Sprintf("Bandwidth vs thread count (%s)", system),
			XLabel: "threads",
			YLabel: "bandwidth (GB/s)",
		}
		for _, op := range threeOps {
			for _, th := range threads {
				spec := kernel(system, op, patSeq, 256)
				spec.Threads = th
				spec.Duration = q.dur(200 * sim.Microsecond)
				b.plot(&out[i], opLabel(op), spec, gbs(float64(th)))
			}
		}
	}
	b.run()
	return out
}

// Fig5 reproduces "Bandwidth over access size": random accesses at the
// paper's best-performing thread counts per system
// (DRAM 24/24/24, Optane-NI 4/1/2, Optane 16/4/12).
func Fig5(q Quality) []stats.Figure {
	sizes := []int{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 2 << 20}
	if q == Quick {
		sizes = []int{64, 256, 4 << 10, 64 << 10}
	}
	bestThreads := map[string][3]int{
		"DRAM":      {24, 24, 24},
		"Optane-NI": {4, 1, 2},
		"Optane":    {16, 4, 12},
	}
	systems := []string{"DRAM", "Optane-NI", "Optane"}
	out := make([]stats.Figure, len(systems))
	var b batch
	for i, system := range systems {
		tc := bestThreads[system]
		out[i] = stats.Figure{
			ID:     "fig5-" + system,
			Title:  fmt.Sprintf("Bandwidth over access size (%s %d/%d/%d)", system, tc[0], tc[1], tc[2]),
			XLabel: "access size (bytes)",
			YLabel: "bandwidth (GB/s)",
		}
		for j, op := range threeOps {
			for _, size := range sizes {
				spec := kernel(system, op, patRand, size)
				spec.Threads = tc[j]
				spec.Duration = q.dur(200 * sim.Microsecond)
				b.plot(&out[i], opLabel(op), spec, gbs(float64(size)))
			}
		}
	}
	b.run()
	return out
}

// Fig9 reproduces "Relationship between EWR and throughput on a single
// DIMM": the systematic sweep's scatter with per-instruction least-squares
// fits. Every sweep point is itself a harness trial of lattester/kernel.
func Fig9(q Quality) []stats.Figure {
	sc := lattester.DefaultSweepConfig()
	sc.Parallel = batchWidth()
	if q == Quick {
		sc.AccessSizes = []int{64, 256, 1024}
		sc.Threads = []int{1, 4, 8}
		sc.Duration = 60 * sim.Microsecond
	}
	points := lattester.Sweep(sc)
	fig := stats.Figure{
		ID:     "fig9",
		Title:  "EWR vs device bandwidth (single DIMM)",
		XLabel: "EWR",
		YLabel: "bandwidth (GB/s)",
	}
	notes := ""
	for _, op := range []lattester.Op{lattester.OpNTStore, lattester.OpStore, lattester.OpStoreCLWB} {
		s := stats.Series{Name: op.String()}
		for _, pt := range points {
			if pt.Op == op {
				s.Add(pt.EWR, pt.GBs)
			}
		}
		fit := lattester.CorrelateEWR(points, op)
		notes += fmt.Sprintf("%s: r2=%.2f slope=%.2f; ", op, fit.R2(), fit.Slope())
		fig.Series = append(fig.Series, s)
	}
	fig.Notes = notes
	return []stats.Figure{fig}
}

// Fig10 reproduces "Inferring XPBuffer capacity": write amplification of
// the two-pass half-line workload versus region size.
func Fig10(q Quality) []stats.Figure {
	regions := []int64{64, 512, 4 << 10, 8 << 10, 16 << 10, 24 << 10, 32 << 10, 256 << 10, 2 << 20}
	if q == Quick {
		regions = []int64{4 << 10, 16 << 10, 32 << 10, 256 << 10}
	}
	fig := stats.Figure{
		ID:     "fig10",
		Title:  "XPBuffer capacity probe",
		XLabel: "region size (bytes)",
		YLabel: "write amplification",
	}
	var b batch
	for _, region := range regions {
		spec := harness.Spec{
			Scenario: "lattester/xpbuffer-probe",
			Params: map[string]string{
				"lines":  strconv.FormatInt(max(region/256, 1), 10),
				"rounds": "3",
			},
		}
		b.plot(&fig, "WA", spec, metric("wa", float64(region)))
	}
	b.run()
	return []stats.Figure{fig}
}

// Fig13 reproduces "Performance achievable with persistence instructions":
// sequential-write bandwidth (6 threads) and single-thread latency across
// access sizes for ntstore, store+clwb and bare store.
func Fig13(q Quality) []stats.Figure {
	sizes := []int{64, 128, 256, 512, 1 << 10, 2 << 10, 4 << 10}
	if q == Quick {
		sizes = []int{64, 256, 1 << 10, 4 << 10}
	}
	bw := stats.Figure{
		ID: "fig13-bw", Title: "Bandwidth (6 threads, sequential)",
		XLabel: "access size (bytes)", YLabel: "bandwidth (GB/s)",
	}
	lat := stats.Figure{
		ID: "fig13-lat", Title: "Latency of persistence instructions",
		XLabel: "access size (bytes)", YLabel: "latency (ns)",
	}
	var b batch
	for _, op := range []lattester.Op{lattester.OpNTStore, lattester.OpStoreCLWB, lattester.OpStore} {
		for _, size := range sizes {
			spec := kernel("Optane", op, patSeq, size)
			spec.Threads = 6
			spec.Duration = q.dur(200 * sim.Microsecond)
			if op == lattester.OpStoreCLWB {
				spec.Params["fence64"] = "true"
			}
			b.plot(&bw, op.String(), spec, gbs(float64(size)))
		}
	}
	for _, op := range []lattester.Op{lattester.OpNTStore, lattester.OpStoreCLWB} {
		for _, size := range sizes {
			spec := kernel("Optane", op, patSeq, size)
			spec.Threads = 1
			spec.Duration = q.dur(100 * sim.Microsecond)
			spec.Params["latency"] = "true"
			b.plot(&lat, op.String(), spec, meanLatency(float64(size)))
		}
	}
	b.run()
	return []stats.Figure{bw, lat}
}

// Fig14 reproduces "Bandwidth over sfence intervals" on a single DIMM.
func Fig14(q Quality) []stats.Figure {
	sizes := []int{64, 256, 1 << 10, 4 << 10, 64 << 10, 256 << 10, 1 << 20, 16 << 20}
	if q == Quick {
		sizes = []int{64, 256, 4 << 10, 256 << 10}
	}
	fig := stats.Figure{
		ID:     "fig14",
		Title:  "Bandwidth over sfence interval (single DIMM, 1 thread)",
		XLabel: "sfence interval / write size (bytes)",
		YLabel: "bandwidth (GB/s)",
	}
	modes := []struct{ label, param string }{
		{lattester.CLWBEveryLine.String(), "clwb64"},
		{lattester.CLWBAfterWrite.String(), "clwb"},
		{lattester.NTStoreMode.String(), "ntstore"},
	}
	total := int64(12 << 20)
	if q == Quick {
		total = 4 << 20
	}
	var b batch
	for _, mode := range modes {
		for _, size := range sizes {
			spec := harness.Spec{
				Scenario: "lattester/sfence-interval",
				Params: map[string]string{
					"size":  strconv.Itoa(size),
					"mode":  mode.param,
					"total": strconv.FormatInt(max(total, int64(size)*2), 10),
				},
			}
			b.plot(&fig, mode.label, spec, gbs(float64(size)))
		}
	}
	b.run()
	return []stats.Figure{fig}
}

// Fig16 reproduces "Plotting iMC contention": a fixed thread pool spreads
// accesses over N DIMMs each; bandwidth falls as N rises.
func Fig16(q Quality) []stats.Figure {
	sizes := []int{64, 256, 1 << 10, 4 << 10}
	spreads := []int{1, 2, 3, 6}
	read := stats.Figure{
		ID: "fig16-read", Title: "iMC contention: read (24 threads)",
		XLabel: "access size (bytes)", YLabel: "bandwidth (GB/s)",
	}
	write := stats.Figure{
		ID: "fig16-write", Title: "iMC contention: ntstore (6 threads)",
		XLabel: "access size (bytes)", YLabel: "bandwidth (GB/s)",
	}
	spreadSpec := func(threads, n, size int, isWrite bool, seed uint64) harness.Spec {
		return harness.Spec{
			Scenario: "lattester/spread",
			Params: map[string]string{
				"dimms_each": strconv.Itoa(n),
				"size":       strconv.Itoa(size),
				"write":      strconv.FormatBool(isWrite),
			},
			Threads:  threads,
			Duration: q.dur(200 * sim.Microsecond),
			Seed:     seed,
		}
	}
	var b batch
	for _, n := range spreads {
		name := fmt.Sprintf("%d Threads", n)
		for _, size := range sizes {
			b.plot(&read, name, spreadSpec(24, n, size, false, 11), gbs(float64(size)))
			b.plot(&write, name, spreadSpec(6, n, size, true, 13), gbs(float64(size)))
		}
	}
	b.run()
	return []stats.Figure{read, write}
}

// Fig18 reproduces "Memory bandwidth on Optane and Optane-Remote" across
// read/write mixes for one and four threads.
func Fig18(q Quality) []stats.Figure {
	mixes := []string{"1:0", "4:1", "3:1", "2:1", "1:1", "0:1"}
	fig := stats.Figure{
		ID:     "fig18",
		Title:  "Bandwidth by R/W mix, local vs remote Optane",
		XLabel: "mix index (R, 4:1, 3:1, 2:1, 1:1, W)",
		YLabel: "bandwidth (GB/s)",
	}
	confs := []struct {
		name    string
		socket  int
		threads int
	}{
		{"Optane-1", 0, 1},
		{"Optane-Remote-1", 1, 1},
		{"Optane-4", 0, 4},
		{"Optane-Remote-4", 1, 4},
	}
	var b batch
	for _, conf := range confs {
		for i, m := range mixes {
			spec := kernel("Optane", lattester.OpRead, patSeq, 256)
			spec.Params["mix"] = m
			spec.Socket = conf.socket
			spec.Threads = conf.threads
			spec.Duration = q.dur(150 * sim.Microsecond)
			b.plot(&fig, conf.name, spec, gbs(float64(i)))
		}
	}
	b.run()
	return []stats.Figure{fig}
}
