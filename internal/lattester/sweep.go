package lattester

import (
	"strconv"

	"optanestudy/internal/harness"
	"optanestudy/internal/platform"
	"optanestudy/internal/sim"
	"optanestudy/internal/stats"
	"optanestudy/internal/topology"
)

// DataPoint is one configuration's outcome in the systematic sweep
// (Section 3.1: "a broad, systematic sweep over 3D XPoint configuration
// parameters").
type DataPoint struct {
	Op         Op
	Pattern    PatternKind
	AccessSize int
	Threads    int
	GBs        float64
	EWR        float64
}

// SweepConfig bounds the systematic sweep.
type SweepConfig struct {
	Ops         []Op
	Patterns    []PatternKind
	AccessSizes []int
	Threads     []int
	Duration    sim.Time
	Channel     int // DIMM used for the single-DIMM namespaces
	// Parallel is the worker-pool width the sweep's trials fan out over
	// (0 = GOMAXPROCS). The data points are identical at any width.
	Parallel int
}

// DefaultSweepConfig mirrors the paper's sweep axes at a size that runs in
// reasonable simulated time. (Wear-leveling outliers are off in the kernel
// scenario by default: they would blur bandwidth means.)
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		Ops:         []Op{OpNTStore, OpStore, OpStoreCLWB},
		Patterns:    []PatternKind{Sequential, Random},
		AccessSizes: []int{64, 128, 256, 512, 1024, 4096},
		Threads:     []int{1, 2, 4, 8},
		Duration:    120 * sim.Microsecond,
	}
}

// Sweep runs every configuration against a single non-interleaved DIMM and
// returns the data points (the Figure 9 scatter) in grid order. Each point
// is one harness trial of the "lattester/kernel" scenario, so the sweep and
// the bench command can never disagree on how a configuration is measured; the
// trials fan out across SweepConfig.Parallel workers with seeds derived
// from each point's resolved spec, so the scatter is identical at any
// pool width.
func Sweep(sc SweepConfig) []DataPoint {
	var specs []harness.Spec
	var points []DataPoint
	for _, op := range sc.Ops {
		for _, pat := range sc.Patterns {
			for _, size := range sc.AccessSizes {
				for _, threads := range sc.Threads {
					specs = append(specs, harness.Spec{
						Scenario: "lattester/kernel",
						Params: map[string]string{
							"system":  "optane-ni",
							"channel": strconv.Itoa(sc.Channel),
							"op":      op.String(),
							"pattern": pat.String(),
							"size":    strconv.Itoa(size),
						},
						Threads:  threads,
						Duration: sc.Duration,
						Seed:     uint64(size*31+threads*7) + 1,
					})
					points = append(points, DataPoint{
						Op:         op,
						Pattern:    pat,
						AccessSize: size,
						Threads:    threads,
					})
				}
			}
		}
	}
	for i, sr := range harness.RunSpecs(specs, sc.Parallel) {
		if sr.Err != nil {
			panic("lattester: sweep: " + sr.Err.Error())
		}
		tr := sr.Result.Trials[0]
		points[i].GBs = tr.GBs
		points[i].EWR = tr.Metrics["ewr"]
	}
	return points
}

// CorrelateEWR fits device bandwidth against EWR for one op across the
// sweep's points, reproducing the per-instruction fits of Figure 9.
func CorrelateEWR(points []DataPoint, op Op) *stats.LinReg {
	var fit stats.LinReg
	for _, pt := range points {
		if pt.Op == op {
			fit.Add(pt.EWR, pt.GBs)
		}
	}
	return &fit
}

// NewNIPlatform builds a fresh default platform with one non-interleaved
// Optane namespace — the sweep's and several figures' workhorse setup.
func NewNIPlatform(track bool) (*platform.Platform, *platform.Namespace) {
	cfg := platform.DefaultConfig()
	cfg.TrackData = track
	cfg.XP.Wear.Enabled = false
	p := platform.MustNew(cfg)
	ns, err := p.CreateNamespace(topology.Spec{
		Name: "optane-ni", Socket: 0, Media: topology.MediaXP,
		Size: 1 << 30, Channels: []int{0},
	})
	if err != nil {
		panic(err)
	}
	return p, ns
}
