package lattester

import (
	"fmt"
	"math"

	"optanestudy/internal/platform"
	"optanestudy/internal/sim"
)

// A Point is one paper value the simulator is calibrated to: what the
// paper reports, the window the simulated value must fall in, and the
// lattester call that measures it.
type Point struct {
	Name   string
	Unit   string
	Paper  float64
	Lo, Hi float64 // the window; an open side is NaN
	Source string  // the paper's figure or section
	Probe
}

// A Probe is the lattester call behind a point.
type Probe struct {
	How string // the call and its arguments, in words
	// Measure runs the call on fresh default platforms with wear off;
	// seed seeds both the platform config and the kernel.
	Measure func(seed uint64) Reading
}

// A Reading is one measurement of a point: its value, and the outputs of
// the call behind it that calibration cross-checks read.
type Reading struct {
	Value float64
	Std   float64 // an idle latency's sample standard deviation (ns)
	GBs   float64 // a Run's bandwidth
	EWR   float64 // a Run's effective write ratio
}

// In reports whether v falls in the point's window.
func (pt *Point) In(v float64) bool {
	return (math.IsNaN(pt.Lo) || v >= pt.Lo) && (math.IsNaN(pt.Hi) || v <= pt.Hi)
}

// ErrPct is v's absolute error against the paper value, in percent.
func (pt *Point) ErrPct(v float64) float64 { return 100 * math.Abs(v-pt.Paper) / pt.Paper }

// Window renders the window as "[lo, hi]", an open side as "open".
func (pt *Point) Window() string {
	side := func(v float64) string {
		if math.IsNaN(v) {
			return "open"
		}
		return fmt.Sprintf("%g", v)
	}
	return "[" + side(pt.Lo) + ", " + side(pt.Hi) + "]"
}

var open = math.NaN()

// Catalog returns the 14 calibration points in perfbench's report order.
func Catalog() []Point {
	niNT1 := bandwidth("optane-ni", OpNTStore, 1)
	ilNT6 := bandwidth("optane", OpNTStore, 6)
	return []Point{
		{"idle_seq_read_ns", "sim_ns", 169, 150, 190, "Figure 2", idle("optane", OpRead, Sequential)},
		{"idle_rand_read_ns", "sim_ns", 305, 270, 340, "Figure 2", idle("optane", OpRead, Random)},
		{"dram_seq_read_ns", "sim_ns", 81, 70, 92, "Figure 2", idle("dram", OpRead, Sequential)},
		{"dram_rand_read_ns", "sim_ns", 101, 90, 112, "Figure 2", idle("dram", OpRead, Random)},
		{"ntstore_ns", "sim_ns", 90, 75, 105, "Figure 2", idle("optane", OpNTStore, Sequential)},
		{"store_clwb_ns", "sim_ns", 62, 50, 80, "Figure 2", idle("optane", OpStoreCLWB, Sequential)},
		{"dram_ntstore_ns", "sim_ns", 86, 70, 100, "Figure 2", idle("dram", OpNTStore, Sequential)},
		{"dram_store_clwb_ns", "sim_ns", 57, 45, 70, "Figure 2", idle("dram", OpStoreCLWB, Sequential)},
		{"ni_read_gbs", "GB/s", 6.6, 5.0, 7.5, "Figure 4", bandwidth("optane-ni", OpRead, 4)},
		{"ni_ntstore_gbs", "GB/s", 2.3, 1.7, 2.7, "Figure 4", niNT1},
		{"ewr_rand64", "ratio", 0.25, open, 0.35, "§5.1", ewr(64)},
		{"ewr_rand256", "ratio", 0.98, 0.9, open, "§5.1", ewr(256)},
		{"interleave_speedup", "ratio", 5.6, 3.5, open, "Figure 4", Probe{
			How: "GB/s ratio of " + ilNT6.How + " to " + niNT1.How,
			Measure: func(seed uint64) Reading {
				return Reading{Value: ilNT6.Measure(seed).Value / niNT1.Measure(seed).Value}
			},
		}},
		{"dram_read24_gbs", "GB/s", 105, 70, 130, "Figure 4", bandwidth("dram", OpRead, 24)},
	}
}

// idle is a Figure 2 probe: the mean of 3000 IdleLatency ops.
func idle(system string, op Op, pat PatternKind) Probe {
	return Probe{
		How: fmt.Sprintf("IdleLatency %s %s on %s, 3000 ops", pat, op, system),
		Measure: func(seed uint64) Reading {
			s := IdleLatency(IdleLatencySpec{NS: fresh(system, seed), Op: op, Pattern: pat, Ops: 3000, Seed: seed})
			return Reading{Value: s.Mean(), Std: s.Std()}
		},
	}
}

// bandwidth is a Figure 4 probe: the GB/s of sequential 256 B accesses.
func bandwidth(system string, op Op, threads int) Probe {
	return Probe{
		How: fmt.Sprintf("Run seq 256 B %s on %s, %dT, 200 µs", op, system, threads),
		Measure: func(seed uint64) Reading {
			r := run200(system, seed, Spec{Op: op, Pattern: Sequential, AccessSize: 256, Threads: threads})
			return Reading{Value: r.GBs, GBs: r.GBs, EWR: r.EWR()}
		},
	}
}

// ewr is a §5.1 probe: the EWR of random ntstores of size bytes from one
// thread on one DIMM.
func ewr(size int) Probe {
	return Probe{
		How: fmt.Sprintf("Run rand %d B ntstore on optane-ni, 1T, 200 µs", size),
		Measure: func(seed uint64) Reading {
			r := run200("optane-ni", seed, Spec{Op: OpNTStore, Pattern: Random, AccessSize: size, Threads: 1})
			return Reading{Value: r.EWR(), GBs: r.GBs, EWR: r.EWR()}
		},
	}
}

// run200 runs spec for 200 µs on the system, seeded with seed.
func run200(system string, seed uint64, spec Spec) Result {
	spec.NS, spec.Duration, spec.Seed = fresh(system, seed), 200*sim.Microsecond, seed
	return Run(spec)
}

// fresh builds the system's namespace on a new default platform with wear
// off and the given seed: "optane" is 2 GB interleaved, "optane-ni" 1 GB
// on one DIMM and "dram" 1 GB interleaved, all on socket 0.
func fresh(system string, seed uint64) *platform.Namespace {
	cfg := platform.DefaultConfig()
	cfg.XP.Wear.Enabled = false
	cfg.Seed = seed
	p := platform.MustNew(cfg)
	var ns *platform.Namespace
	var err error
	switch system {
	case "optane":
		ns, err = p.Optane("optane", 0, 2<<30)
	case "optane-ni":
		ns, err = p.OptaneNI("optane-ni", 0, 0, 1<<30)
	case "dram":
		ns, err = p.DRAM("dram", 0, 1<<30)
	default:
		err = fmt.Errorf("unknown system %q", system)
	}
	if err != nil {
		panic("lattester: " + err.Error())
	}
	return ns
}
