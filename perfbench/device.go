package main

import (
	"fmt"
	"math"

	"optanestudy/internal/devstat"
	"optanestudy/internal/lattester"
	"optanestudy/internal/platform"
	"optanestudy/internal/telemetry"
	"optanestudy/internal/topology"
)

// fidelity is one paper value the repository's tests pin, with the
// tolerance window that test uses; an open side of a window is NaN.
type fidelity struct {
	name   string
	unit   string
	paper  float64
	lo, hi float64
	test   string
	sim    float64
	seen   bool
}

func (f *fidelity) inWindow() bool {
	return f.seen && (math.IsNaN(f.lo) || f.sim >= f.lo) && (math.IsNaN(f.hi) || f.sim <= f.hi)
}

func (f *fidelity) errPct() float64 { return 100 * math.Abs(f.sim-f.paper) / f.paper }

var open = math.NaN()

// fidelityCatalog lists the 14 paper points in report order.
func fidelityCatalog() []fidelity {
	const (
		idle  = "lattester.TestIdleLatencyMatchesPaper"
		dram  = "platform.TestLatencyDRAMReads"
		write = "platform.TestLatencyWriteInstructions"
		asym  = "lattester.TestBandwidthReadVsWriteAsymmetry"
		ewr   = "lattester.TestSmallRandomAccessesArePoor"
	)
	return []fidelity{
		{name: "idle_seq_read_ns", unit: "sim_ns", paper: 169, lo: 150, hi: 190, test: idle},
		{name: "idle_rand_read_ns", unit: "sim_ns", paper: 305, lo: 270, hi: 340, test: idle},
		{name: "dram_seq_read_ns", unit: "sim_ns", paper: 81, lo: 70, hi: 92, test: dram},
		{name: "dram_rand_read_ns", unit: "sim_ns", paper: 101, lo: 90, hi: 112, test: dram},
		{name: "ntstore_ns", unit: "sim_ns", paper: 90, lo: 75, hi: 105, test: write},
		{name: "store_clwb_ns", unit: "sim_ns", paper: 62, lo: 50, hi: 80, test: write},
		{name: "dram_ntstore_ns", unit: "sim_ns", paper: 86, lo: 70, hi: 100, test: write},
		{name: "dram_store_clwb_ns", unit: "sim_ns", paper: 57, lo: 45, hi: 70, test: write},
		{name: "ni_read_gbs", unit: "GB/s", paper: 6.6, lo: 5.0, hi: 7.5, test: asym},
		{name: "ni_ntstore_gbs", unit: "GB/s", paper: 2.3, lo: 1.7, hi: 2.7, test: asym},
		{name: "ewr_rand64", unit: "ratio", paper: 0.25, lo: open, hi: 0.35, test: ewr},
		{name: "ewr_rand256", unit: "ratio", paper: 0.98, lo: 0.9, hi: open, test: ewr},
		{name: "interleave_speedup", unit: "ratio", paper: 5.6, lo: 3.5, hi: open, test: "platform.TestInterleavingScalesWriteBandwidth"},
		{name: "dram_read24_gbs", unit: "GB/s", paper: 105, lo: 70, hi: 130, test: "platform.TestDRAMReadBandwidthScales"},
	}
}

func (ps *pass) setFidelity(name string, v float64) {
	for i := range ps.fid {
		if ps.fid[i].name == name {
			ps.fid[i].sim, ps.fid[i].seen = v, true
			return
		}
	}
	panic("perfbench: unknown fidelity point " + name)
}

// checkFidelity fails the pass for every point outside its window (or
// never measured).
func (ps *pass) checkFidelity() {
	for i := range ps.fid {
		f := &ps.fid[i]
		if !f.inWindow() {
			ps.fail("fidelity %s = %.4g outside %s (%s)", f.name, f.sim, window(f), f.test)
		}
	}
}

// fidelityErrPct is the mean absolute relative error against the paper.
func fidelityErrPct(fid []fidelity) float64 {
	var sum float64
	for i := range fid {
		sum += fid[i].errPct()
	}
	return sum / float64(len(fid))
}

func window(f *fidelity) string {
	side := func(v float64) string {
		if math.IsNaN(v) {
			return "open"
		}
		return fmt.Sprintf("%g", v)
	}
	return "[" + side(f.lo) + ", " + side(f.hi) + "]"
}

// fidelityTable renders the traced run's fidelity report.
func fidelityTable(fid []fidelity) []string {
	out := []string{fmt.Sprintf("fidelity %-20s %10s %8s %14s %7s", "point", "sim", "paper", "window", "err%")}
	for i := range fid {
		f := &fid[i]
		out = append(out, fmt.Sprintf("fidelity %-20s %10.4g %8g %14s %7.2f  %s", f.name, f.sim, f.paper, window(f), f.errPct(), f.test))
	}
	return out
}

// system is a namespace flavour a device kernel runs on.
type system struct {
	name  string
	build func(p *platform.Platform) (*platform.Namespace, error)
	wear  bool
}

var (
	optaneIL = system{name: "optane", build: func(p *platform.Platform) (*platform.Namespace, error) {
		return p.Optane("optane", 0, 2<<30)
	}}
	optaneNI = system{name: "optane-ni", build: func(p *platform.Platform) (*platform.Namespace, error) {
		return p.CreateNamespace(topology.Spec{Name: "optane-ni", Socket: 0, Media: topology.MediaXP, Size: 1 << 30, Channels: []int{0}})
	}}
	dramIL = system{name: "dram", build: func(p *platform.Platform) (*platform.Namespace, error) {
		return p.DRAM("dram", 0, 1<<30)
	}}
	optaneWear = system{name: "optane-wear", wear: true, build: func(p *platform.Platform) (*platform.Namespace, error) {
		return p.Optane("pm", 0, 1<<30)
	}}
)

// kernel runs one device kernel on a fresh platform: building the
// platform and namespace is set-up, the kernel call is measured. It
// returns the kernel's simulated outputs (nil when the run failed).
func (ps *pass) kernel(name string, sys system, body func(ns *platform.Namespace) []float64) []float64 {
	var p *platform.Platform
	var ns *platform.Namespace
	err := ps.timeSetup(func() error {
		cfg := platform.DefaultConfig()
		cfg.XP.Wear.Enabled = sys.wear
		cfg.Seed = mix(ps.seed, 0xD1CE)
		var err error
		if p, err = platform.New(cfg); err != nil {
			return err
		}
		ns, err = sys.build(p)
		return err
	})
	if p != nil {
		defer p.Close()
	}
	if err != nil {
		ps.fail("%s: set-up: %v", name, err)
		ps.record("%s error", name)
		return nil
	}
	var before devstat.Snapshot
	if ps.traced {
		before = devstat.Capture(p)
	}
	var out []float64
	err = ps.timeMeasured("", func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		out = body(ns)
		return nil
	})
	if err != nil {
		ps.fail("%s: %v", name, err)
		ps.record("%s error", name)
		return nil
	}
	ps.record("%s %s", name, floats(out))
	if ps.traced {
		w := devstat.Capture(p).Sub(before)
		ps.dev.add(w)
		ps.trace = append(ps.trace, kernelTrace(name, w))
	}
	return out
}

// kernelTrace renders one kernel's device window as a trace run: a single
// sample at the kernel's end carrying the active DIMMs' counter deltas.
func kernelTrace(name string, w devstat.Window) telemetry.TraceEntry {
	s := telemetry.Sample{TNS: int64(w.Elapsed.Nanoseconds())}
	for i := range w.DIMMs {
		d := &w.DIMMs[i]
		if !d.Active() {
			continue
		}
		sfx := fmt.Sprintf("_s%dc%d", d.Socket, d.Channel)
		s.Gauges = append(s.Gauges,
			telemetry.Gauge{Name: "xp_ctrl_read_bytes" + sfx, Value: float64(d.Ctr.CtrlReadBytes)},
			telemetry.Gauge{Name: "xp_ctrl_write_bytes" + sfx, Value: float64(d.Ctr.CtrlWriteBytes)},
			telemetry.Gauge{Name: "xp_media_write_bytes" + sfx, Value: float64(d.Ctr.MediaWriteBytes)},
			telemetry.Gauge{Name: "xp_buffer_hits" + sfx, Value: float64(d.Ctr.BufferHits)},
			telemetry.Gauge{Name: "xp_buffer_misses" + sfx, Value: float64(d.Ctr.BufferMisses)},
			telemetry.Gauge{Name: "xp_wpq_stall_ns" + sfx, Value: d.WPQStall.Nanoseconds()})
	}
	return telemetry.TraceEntry{Scenario: "device", Trace: &telemetry.Trace{Runs: []*telemetry.Run{
		{Label: name, Samples: []telemetry.Sample{s}},
	}}}
}

// devicePass runs the paper's Section 3 LATTester kernels, each on a fresh
// platform, and checks the 14 fidelity points.
func devicePass(ps *pass) {
	ps.fid = fidelityCatalog()
	idleKernels(ps)
	sz := ps.sz

	// Bandwidth against thread count (Figure 4): sequential 256 B
	// accesses, for every op on every system.
	type bwKey struct {
		sys string
		op  lattester.Op
		th  int
	}
	bw := map[bwKey]float64{}
	for _, sys := range []system{optaneIL, optaneNI, dramIL} {
		for _, op := range []lattester.Op{lattester.OpRead, lattester.OpNTStore, lattester.OpStoreCLWB} {
			for _, th := range sz.threads {
				bw[bwKey{sys.name, op, th}] = ps.bwKernel(sys, op, th)
			}
		}
	}
	bandwidthFidelity(ps, func(sys system, op lattester.Op, th int) float64 { return bw[bwKey{sys.name, op, th}] })
	// The device workload's knee is the single DIMM's write saturation:
	// the best 256 B ntstore rate over the thread sweep (Figure 4's NI
	// write peak), in thousands of accesses per simulated second.
	for _, th := range sz.threads {
		if k := bw[bwKey{optaneNI.name, lattester.OpNTStore, th}] * 1e9 / 256 / 1e3; k > ps.sim.kneeKops {
			ps.sim.kneeKops = k
		}
	}

	// Access size (Figure 5): random accesses of 64 B to 4 KB.
	for _, op := range []lattester.Op{lattester.OpRead, lattester.OpNTStore} {
		for _, size := range sz.accessSizes {
			ps.kernel(fmt.Sprintf("size/optane/%s/%dB", op, size), optaneIL, func(ns *platform.Namespace) []float64 {
				r := lattester.Run(lattester.Spec{NS: ns, Op: op, Pattern: lattester.Random,
					AccessSize: size, Threads: sz.sizeThreads, Duration: sz.kernelDur, Seed: mix(ps.seed, uint64(size))})
				return []float64{r.GBs, r.EWR()}
			})
		}
	}

	ewrKernels(ps)

	// XPBuffer capacity probe (Figure 10): write amplification per region.
	for _, lines := range sz.probeLines {
		ps.kernel(fmt.Sprintf("xpbuffer/%dlines", lines), optaneNI, func(ns *platform.Namespace) []float64 {
			return []float64{lattester.RegionProbe(ns, lines, 3)}
		})
	}

	// iMC contention (Figure 16): six writers spread over N DIMMs each.
	for _, n := range sz.spreadN {
		ps.kernel(fmt.Sprintf("spread/%dDIMMs", n), optaneIL, func(ns *platform.Namespace) []float64 {
			return []float64{lattester.Spread(lattester.SpreadSpec{NS: ns, Threads: 6, DIMMsEach: n,
				AccessSize: 1024, Write: true, Duration: sz.kernelDur, Seed: mix(ps.seed, uint64(n))})}
		})
	}

	// Wear-model hotspot tail (Figure 3): fenced 64 B ntstores cycling over
	// a 256 B hotspot.
	ps.kernel("tail/optane-wear/256B", optaneWear, func(ns *platform.Namespace) []float64 {
		h := lattester.TailLatency(lattester.TailSpec{NS: ns, Hotspot: 256, Ops: sz.tailOps, Seed: ps.seed})
		q := h.Quantiles([]float64{0.5, 0.99, 0.9999})
		return []float64{q[0], q[1], q[2], h.Max(), float64(h.Count())}
	})

	// Latency under load (Figure 6): random 256 B loads from 16 threads on
	// interleaved Optane, the workload's simulated latency distribution.
	out := ps.kernel("lat/optane/read-rand256/16T", optaneIL, func(ns *platform.Namespace) []float64 {
		r := lattester.Run(lattester.Spec{NS: ns, Op: lattester.OpRead, Pattern: lattester.Random,
			AccessSize: 256, Threads: 16, Duration: sz.kernelDur, RecordLatency: true, Seed: mix(ps.seed, 16)})
		q := r.Latency.Quantiles([]float64{0.5, 0.99})
		return []float64{q[0], q[1], r.Latency.Max(), float64(r.Latency.Count()), r.GBs}
	})
	if out != nil {
		ps.sim.p50us, ps.sim.p99us = out[0]/1e3, out[1]/1e3
		ps.sim.samples = int64(out[3])
		ps.sim.what = "per-load latency of random 256 B loads from 16 threads on interleaved Optane"
	}
	ps.checkFidelity()
}

// calibrate is the serving workloads' fidelity gate: the kernels behind
// the 14 paper points, on fresh default platforms, outside the measured
// phase.
func calibrate(ps *pass) {
	ps.fid = fidelityCatalog()
	idleKernels(ps)
	bandwidthFidelity(ps, ps.bwKernel)
	ewrKernels(ps)
	ps.checkFidelity()
}

// bwKernel runs one Figure 4 bandwidth kernel (sequential 256 B accesses)
// and returns its GB/s, 0 when the run failed.
func (ps *pass) bwKernel(sys system, op lattester.Op, th int) float64 {
	out := ps.kernel(fmt.Sprintf("bw/%s/%s/%dT", sys.name, op, th), sys, func(ns *platform.Namespace) []float64 {
		r := lattester.Run(lattester.Spec{NS: ns, Op: op, Pattern: lattester.Sequential,
			AccessSize: 256, Threads: th, Duration: ps.sz.kernelDur, Seed: mix(ps.seed, uint64(th))})
		return []float64{r.GBs, r.EWR(), float64(r.Bytes)}
	})
	if out == nil {
		return 0
	}
	return out[0]
}

// bandwidthFidelity sets the four bandwidth points from the kernels the
// tests pin them with.
func bandwidthFidelity(ps *pass, bw func(sys system, op lattester.Op, th int) float64) {
	niNT1 := bw(optaneNI, lattester.OpNTStore, 1)
	ps.setFidelity("ni_read_gbs", bw(optaneNI, lattester.OpRead, 4))
	ps.setFidelity("ni_ntstore_gbs", niNT1)
	ps.setFidelity("interleave_speedup", ratio(bw(optaneIL, lattester.OpNTStore, 6), niNT1))
	ps.setFidelity("dram_read24_gbs", bw(dramIL, lattester.OpRead, 24))
}

// ewrKernels measures random 64 B against 256 B ntstores on one DIMM: the
// EWR gap of Section 4.
func ewrKernels(ps *pass) {
	for _, size := range []int{64, 256} {
		out := ps.kernel(fmt.Sprintf("ewr/optane-ni/rand%dB", size), optaneNI, func(ns *platform.Namespace) []float64 {
			r := lattester.Run(lattester.Spec{NS: ns, Op: lattester.OpNTStore, Pattern: lattester.Random,
				AccessSize: size, Threads: 1, Duration: ps.sz.kernelDur, Seed: mix(ps.seed, uint64(size)+1)})
			return []float64{r.EWR(), r.GBs}
		})
		if out != nil {
			ps.setFidelity(fmt.Sprintf("ewr_rand%d", size), out[0])
		}
	}
}

// idleKernels measures idle latency (Figure 2) on Optane and DRAM: 8 B
// loads (sequential and random) and fenced 64 B writes.
func idleKernels(ps *pass) {
	type idle struct {
		op  lattester.Op
		pat lattester.PatternKind
		tag string
	}
	kinds := []idle{
		{lattester.OpRead, lattester.Sequential, "seq_read"},
		{lattester.OpRead, lattester.Random, "rand_read"},
		{lattester.OpNTStore, lattester.Sequential, "ntstore"},
		{lattester.OpStoreCLWB, lattester.Sequential, "store_clwb"},
	}
	for _, sys := range []system{optaneIL, dramIL} {
		for _, k := range kinds {
			out := ps.kernel(fmt.Sprintf("idle/%s/%s", sys.name, k.tag), sys, func(ns *platform.Namespace) []float64 {
				s := lattester.IdleLatency(lattester.IdleLatencySpec{NS: ns, Op: k.op, Pattern: k.pat,
					Ops: ps.sz.idleOps, Seed: mix(ps.seed, 0x1D1E)})
				return []float64{s.Mean(), s.Std(), s.Min(), s.Max()}
			})
			if out == nil {
				continue
			}
			name := k.tag + "_ns"
			switch {
			case sys.name == "dram":
				name = "dram_" + name
			case k.op == lattester.OpRead:
				name = "idle_" + name
			}
			ps.setFidelity(name, out[0])
		}
	}
}

// mix derives a sub-seed (splitmix64 finalizer), so every kernel and point
// draws an independent stream from the one workload seed.
func mix(seed, salt uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15*(salt+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// floats renders values with every digit, so any simulated change shows
// in the digest.
func floats(v []float64) string {
	s := ""
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.17g", x)
	}
	return s
}
