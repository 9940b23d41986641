package service

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"optanestudy/internal/harness"
	"optanestudy/internal/sim"
	"optanestudy/internal/telemetry"
)

// SweepConfig bounds one load sweep: the point scenario to drive, the
// offered-load grid, and the knobs shared by every point. Each point is
// one harness trial of the "service/kv/<backend>" scenario, so sweeps and
// single-point CLI runs can never disagree on how a load level is
// measured, and the points fan out across Parallel workers with seeds
// derived from each point's resolved spec — the curve is identical at any
// pool width.
type SweepConfig struct {
	// Backend is "pmemkv" or "lsmkv".
	Backend string
	// Scenario is the point scenario the sweep drives; empty means
	// "service/kv/"+Backend. The cluster layer points it at its own
	// shard-aware point scenario ("cluster/point") to reuse the identical
	// grid/knee machinery.
	Scenario string
	// Params are extra point-scenario params (media, arrival, mix, ...).
	Params map[string]string
	// Threads is the worker-pool size at every point.
	Threads int
	// Duration and Warmup are the per-point measured window and warmup.
	Duration sim.Time
	Warmup   sim.Time
	Seed     uint64
	// MinKops to MaxKops in Points linear steps is the offered-load grid
	// (thousands of ops per simulated second).
	MinKops, MaxKops float64
	Points           int
	// Parallel is the worker-pool width the sweep's trials fan out over
	// (0 = GOMAXPROCS).
	Parallel int
	// Trace asks every point trial to record phase spans and a timeline;
	// each Point then carries its trial's Trace. Non-identity, like
	// Parallel: point seeds and results are unchanged.
	Trace bool
}

// Point is one load level's outcome.
type Point struct {
	// OfferedKops is the requested load (the grid coordinate); GenKops is
	// what the arrival process actually generated over the window.
	OfferedKops float64
	GenKops     float64
	// AchievedKops is the completed-request rate.
	AchievedKops float64
	// DropFrac is the shed fraction of offered requests.
	DropFrac float64
	// P50/P95/P99/P999 are end-to-end latency percentiles in ns.
	P50, P95, P99, P999 float64
	// Util is the worker pool's busy fraction.
	Util float64
	// Metrics is the point trial's full metric map (per-tenant shed
	// counts, per-shard breakdowns, ...) for callers that aggregate more
	// than the curve fields.
	Metrics map[string]float64
	// Trace is the point trial's recording, present only on traced sweeps
	// (SweepConfig.Trace).
	Trace *telemetry.Trace
}

// Curve is a throughput-latency curve, in ascending offered-load order.
type Curve []Point

// Grid returns the sweep's offered-load grid in kops.
func (sc SweepConfig) Grid() []float64 {
	n := sc.Points
	if n < 2 {
		n = 2
	}
	grid := make([]float64, n)
	step := (sc.MaxKops - sc.MinKops) / float64(n-1)
	for i := range grid {
		grid[i] = sc.MinKops + float64(i)*step
	}
	return grid
}

// RunSweep measures the curve.
func RunSweep(sc SweepConfig) (Curve, error) {
	if sc.Backend == "" {
		sc.Backend = "pmemkv"
	}
	if sc.Scenario == "" {
		sc.Scenario = "service/kv/" + sc.Backend
	}
	if sc.MinKops <= 0 || sc.MaxKops < sc.MinKops {
		return nil, fmt.Errorf("service: bad sweep grid [%g, %g]", sc.MinKops, sc.MaxKops)
	}
	grid := sc.Grid()
	specs := make([]harness.Spec, len(grid))
	for i, kops := range grid {
		params := make(map[string]string, len(sc.Params)+1)
		for k, v := range sc.Params {
			params[k] = v
		}
		params["offered"] = strconv.FormatFloat(kops, 'g', -1, 64)
		specs[i] = harness.Spec{
			Scenario: sc.Scenario,
			Params:   params,
			Threads:  sc.Threads,
			Duration: sc.Duration,
			Warmup:   sc.Warmup,
			Seed:     sc.Seed,
			Trace:    sc.Trace,
		}
	}
	curve := make(Curve, len(grid))
	for i, sr := range harness.RunSpecs(specs, sc.Parallel) {
		if sr.Err != nil {
			return nil, sr.Err
		}
		m := sr.Result.Trials[0].Metrics
		curve[i] = Point{
			OfferedKops:  grid[i],
			GenKops:      m["offered_kops"],
			AchievedKops: m["achieved_kops"],
			DropFrac:     m["drop_frac"],
			P50:          m["p50_ns"],
			P95:          m["p95_ns"],
			P99:          m["p99_ns"],
			P999:         m["p999_ns"],
			Util:         m["util"],
			Metrics:      m,
			Trace:        sr.Result.Trials[0].Trace,
		}
	}
	return curve, nil
}

// GridParams consumes the sweep grid params ("minkops", "maxkops",
// "points") from params — leaving everything else for the point scenario —
// and returns the grid bounds, falling back to the given defaults. Both
// the service and cluster sweep scenarios parse their grids through this
// one helper so they can never drift.
func GridParams(params map[string]string, defMin, defMax, defPoints float64) (minKops, maxKops, points float64, err error) {
	take := func(key string, def float64) (float64, error) {
		v, ok := params[key]
		if !ok {
			return def, nil
		}
		delete(params, key)
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("param %s=%q: not a valid float", key, v)
		}
		return f, nil
	}
	if minKops, err = take("minkops", defMin); err != nil {
		return 0, 0, 0, err
	}
	if maxKops, err = take("maxkops", defMax); err != nil {
		return 0, 0, 0, err
	}
	if points, err = take("points", defPoints); err != nil {
		return 0, 0, 0, err
	}
	return minKops, maxKops, points, nil
}

// Leg is one cell of a sweep's axis cross product: the worker count and
// point params one curve runs with, and how that curve is labelled.
type Leg struct {
	// Threads is the leg's worker count: its threadgrid value, or the
	// threads Legs was given.
	Threads int
	// Params are the leg's point-scenario params: the sweep's base params
	// plus whatever the leg's axis values inject. No two legs share a map.
	Params map[string]string
	// On maps the point key of every axis the leg injects to its value;
	// it is empty when every axis sits at its off value.
	On map[string]string
	// Suffix tags the leg's metric keys ("@t16@b8"); only axes with more
	// than one value contribute.
	Suffix string
	// Title is the tail of the leg's TSV title (", batch 8, cache 65536 B").
	Title string
}

// sweepAxis is one row of the sweep-axis table.
type sweepAxis struct {
	grid  string // sweep param holding the comma-separated axis values
	key   string // point param a value sets; "" for the worker count
	tag   string // metric-suffix tag, followed by the value
	title string // TSV title tail format; "" when the runner's title prints the axis
	off   string // value that injects nothing; "" when every value injects
	// numeric axes take integers, written back in strconv form so that
	// "08" is the leg "8" and "01" the off value "1".
	numeric bool
	// companions map sweep params to the point params they set on the legs
	// where the axis is on. They are consumed only with grid itself.
	companions map[string]string
}

// sweepAxes lists the sweep axes outermost first: Legs expands their cross
// product, and composes metric suffixes and titles, in this order. The
// grid and companion names are frozen: a sweep's params are hashed into
// its derived seed, which every point inherits, so renaming one would
// move the results of every sweep that sets it.
var sweepAxes = []sweepAxis{
	{grid: "threadgrid", tag: "@t", numeric: true},
	{grid: "policygrid", key: "policy", tag: "@"},
	{grid: "batchgrid", key: "batch", tag: "@b", title: ", batch %s", off: "1", numeric: true,
		companions: map[string]string{"batchlinger": "linger"}},
	{grid: "cachegrid", key: "cache", tag: "@c", title: ", cache %s B", off: "0", numeric: true,
		companions: map[string]string{
			"cachequota": "quota", "cacheadmit": "admit",
			"cacheevict": "evict", "cachetier": "tier",
		}},
	{grid: "faultgrid", key: "fault", tag: "@f", title: ", fault %s", off: "none",
		companions: map[string]string{
			"faultshard": "faultshard", "faultat": "faultat", "faultdur": "faultdur",
			"detect": "detect", "faultsocket": "faultsocket",
			"churnperiod": "churnperiod", "churndown": "churndown", "churnjitter": "churnjitter",
		}},
}

// Legs consumes the grids named in grids that are present in params,
// together with each consumed grid's companions, and returns the cross
// product of their values in sweepAxes order; with no grid present it
// returns one leg of threads workers over params. A grid the caller does
// not name stays in params with its companions, so the point's reader
// rejects it as unknown. A leg at an axis's off value injects neither the
// axis key nor its companions, so its point specs, and the seeds the
// harness derives from them, are exactly those of a sweep without that
// axis. Values are checked only where the point cannot check them: a
// numeric axis takes integers, the worker count must be positive, and a
// grid may neither hold an empty value nor repeat one (two legs would
// share a suffix and overwrite each other's metrics).
func Legs(params map[string]string, threads int, grids ...string) ([]Leg, error) {
	type axisValues struct {
		sweepAxis
		vals   []string          // the grid's values, in order
		extras map[string]string // companion values, keyed by point param
	}
	// Consume every grid and companion before expanding, so no leg's
	// params copy can carry another axis's grid keys.
	var present []axisValues
	for _, a := range sweepAxes {
		raw, ok := params[a.grid]
		if !ok || !slices.Contains(grids, a.grid) {
			continue
		}
		delete(params, a.grid)
		av := axisValues{sweepAxis: a, extras: make(map[string]string)}
		for _, s := range strings.Split(raw, ",") {
			v := strings.TrimSpace(s)
			if v == "" {
				return nil, fmt.Errorf("param %s=%q: empty value", a.grid, raw)
			}
			if a.numeric {
				n, err := strconv.Atoi(v)
				if err != nil {
					return nil, fmt.Errorf("param %s=%q: want comma-separated ints", a.grid, raw)
				}
				if a.key == "" && n < 1 {
					return nil, fmt.Errorf("param %s=%q: want comma-separated positive ints", a.grid, raw)
				}
				v = strconv.Itoa(n)
			}
			if slices.Contains(av.vals, v) {
				return nil, fmt.Errorf("param %s=%q: duplicate value %q", a.grid, raw, v)
			}
			av.vals = append(av.vals, v)
		}
		for param, key := range a.companions {
			if v, ok := params[param]; ok {
				delete(params, param)
				av.extras[key] = v
			}
		}
		present = append(present, av)
	}
	legs := []Leg{{Threads: threads, Params: params}}
	for _, a := range present {
		next := make([]Leg, 0, len(legs)*len(a.vals))
		for _, outer := range legs {
			for _, v := range a.vals {
				leg := outer
				leg.Params = maps.Clone(outer.Params)
				if len(a.vals) > 1 {
					leg.Suffix += a.tag + v
					if a.title != "" {
						leg.Title += fmt.Sprintf(a.title, v)
					}
				}
				switch {
				case a.key == "":
					leg.Threads, _ = strconv.Atoi(v)
				case v != a.off:
					leg.Params[a.key] = v
					maps.Copy(leg.Params, a.extras)
					leg.On = map[string]string{a.key: v}
					maps.Copy(leg.On, outer.On)
				}
				next = append(next, leg)
			}
		}
		legs = next
	}
	return legs, nil
}

// EmitCurve folds one measured curve into a trial: the knee and saturation
// summary plus per-point achieved/p99 metrics, all under an optional key
// suffix (used when one scenario races several grids), counting one op per
// point.
func EmitCurve(tr *harness.Trial, c Curve, suffix string) {
	knee := c.KneeIndex()
	tr.Metrics["knee_kops"+suffix] = c[knee].OfferedKops
	tr.Metrics["sat_kops"+suffix] = c.SaturationKops()
	tr.Metrics["p99_knee_ns"+suffix] = c[knee].P99
	tr.Metrics["p99_max_ns"+suffix] = c[len(c)-1].P99
	for _, pt := range c {
		tr.Metrics[fmt.Sprintf("achieved@%g%s", pt.OfferedKops, suffix)] = pt.AchievedKops
		tr.Metrics[fmt.Sprintf("p99@%g%s", pt.OfferedKops, suffix)] = pt.P99
		tr.Ops++
	}
}

// KneeIndex locates the saturation knee: the last grid point still keeping
// up with the load its arrival process actually generated (achieved ≥ 95%
// of generated — a Poisson process undershoots its nominal rate at light
// load, which must not read as saturation). Past the knee the platform
// sheds load and achieved throughput flattens while tail latency climbs.
// Returns 0 if even the first point is saturated.
func (c Curve) KneeIndex() int {
	for i, pt := range c {
		if pt.AchievedKops < 0.95*pt.GenKops {
			if i == 0 {
				return 0
			}
			return i - 1
		}
	}
	return len(c) - 1
}

// SaturationKops returns the maximum achieved throughput on the curve.
func (c Curve) SaturationKops() float64 {
	var max float64
	for _, pt := range c {
		if pt.AchievedKops > max {
			max = pt.AchievedKops
		}
	}
	return max
}

// TSV renders the curve as a figure-style table.
func (c Curve) TSV(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	b.WriteString("offered_kops\tachieved_kops\tdrop_frac\tp50_ns\tp95_ns\tp99_ns\tp999_ns\tutil\n")
	for _, pt := range c {
		fmt.Fprintf(&b, "%g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\n",
			pt.OfferedKops, pt.AchievedKops, pt.DropFrac,
			pt.P50, pt.P95, pt.P99, pt.P999, pt.Util)
	}
	return b.String()
}
