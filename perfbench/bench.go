package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"optanestudy/internal/devstat"
	"optanestudy/internal/dimm"
	"optanestudy/internal/sim"
	"optanestudy/internal/telemetry"
)

// namedWorkload is one benchmark workload.
type namedWorkload struct {
	name string
	// pass runs the workload once, every kernel or sweep point on a fresh
	// platform, recording host time, simulated outputs and checks into ps.
	pass func(ps *pass)
	// calibrate runs the fidelity kernels outside the measured phase:
	// the serving workloads report paper fidelity from this gate, while
	// the device workload's pass already measures the same kernels.
	calibrate bool
}

var workloads = map[string]*namedWorkload{
	"device":      {name: "device", pass: devicePass},
	"serve-write": {name: "serve-write", pass: serveWrite.pass, calibrate: true},
	"serve-read":  {name: "serve-read", pass: serveRead.pass, calibrate: true},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// pass accumulates one execution of a workload.
type pass struct {
	seed   uint64
	sz     *sizes
	traced bool

	// setup and wall are the host time spent building platforms (and
	// their backends, logs and tiers) and inside the measured calls.
	setup, wall time.Duration
	// outs holds one canonical line of simulated outputs per run (one
	// device kernel or one sweep point); the digest hashes them in order.
	outs     []string
	failures []string
	failed   int
	notes    []string // human-readable detail, such as the load curves

	sim  simHeadline
	fid  []fidelity
	rt   rtDelta // runtime/metrics deltas summed over the measured calls
	legs map[string]*legHost
	dev  devAgg // traced: device counters over the windows that feed dimm.*
	// layer holds the traced run's simulated per-layer metrics.
	layer map[string]float64
	trace []telemetry.TraceEntry
}

// simHeadline is the workload's simulated end-to-end result.
type simHeadline struct {
	kneeKops, p50us, p99us float64
	samples                int64
	what                   string // what the numbers describe, for the notes
}

// legHost is the host cost of one serving leg's Serve calls.
type legHost struct {
	wall    time.Duration
	allocs  float64
	ops     int64
	preload time.Duration
}

func newPass(seed uint64, sz *sizes, traced bool) *pass {
	return &pass{seed: seed, sz: sz, traced: traced, legs: map[string]*legHost{}, layer: map[string]float64{}}
}

// timeSetup runs fn as set-up: its host time counts toward setup_s.
func (ps *pass) timeSetup(fn func() error) error {
	t0 := time.Now()
	err := fn()
	ps.setup += time.Since(t0)
	return err
}

// timeMeasured runs fn as measured work: its host time counts toward
// wall_s, and its runtime/metrics deltas toward the rt.* metrics (and the
// leg's per-op cost when leg is set).
func (ps *pass) timeMeasured(leg string, fn func() error) error {
	before := readRT()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	delta := readRT().sub(before)
	ps.wall += d
	ps.rt.add(delta)
	if leg != "" {
		lh := ps.legHost(leg)
		lh.wall += d
		lh.allocs += delta.allocObjects
	}
	return err
}

func (ps *pass) legHost(leg string) *legHost {
	lh := ps.legs[leg]
	if lh == nil {
		lh = &legHost{}
		ps.legs[leg] = lh
	}
	return lh
}

// record appends one run's canonical simulated output line.
func (ps *pass) record(format string, args ...any) {
	ps.outs = append(ps.outs, fmt.Sprintf(format, args...))
}

// fail marks the current run failed.
func (ps *pass) fail(format string, args ...any) {
	ps.failed++
	ps.failures = append(ps.failures, fmt.Sprintf(format, args...))
}

// digest hashes the pass's simulated outputs.
func (ps *pass) digest() string {
	h := sha256.New()
	for _, l := range ps.outs {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// compareOuts fails every run of got whose simulated output differs from
// the same run of want: the cross-pass determinism check and the
// traced-equals-untraced check.
func compareOuts(r *result, what string, want, got *pass) {
	if len(want.outs) != len(got.outs) {
		r.fail("%s: %d runs, reference has %d", what, len(got.outs), len(want.outs))
		return
	}
	for i := range got.outs {
		if got.outs[i] != want.outs[i] {
			r.fail("%s: run %d differs:\n  got  %s\n  want %s", what, i, got.outs[i], want.outs[i])
		}
	}
}

// measure runs untraced passes until the host-time budget is spent (at
// least minPasses) and reports the end-to-end metrics: host times as
// medians over passes, simulated results from the first pass (every pass
// must reproduce them exactly).
func measure(w *namedWorkload, seed uint64, sz *sizes, budget time.Duration) (*result, error) {
	const minPasses = 3
	res := &result{metrics: map[string]metric{}}
	start := time.Now()
	var first *pass
	var walls, setups []float64
	for n := 1; ; n++ {
		runtime.GC()
		ps := newPass(seed, sz, false)
		w.pass(ps)
		res.absorb(ps)
		if first == nil {
			first = ps
		} else {
			compareOuts(res, fmt.Sprintf("pass %d vs pass 1", n), first, ps)
		}
		walls = append(walls, ps.wall.Seconds())
		setups = append(setups, ps.setup.Seconds())
		elapsed := time.Since(start)
		perPass := elapsed / time.Duration(n)
		if n >= minPasses && (elapsed >= budget || elapsed+perPass > maxRun) {
			break
		}
	}
	peak := peakRSSMiB()
	fid := fidelityOf(w, res, first)
	res.digest = first.digest()
	res.metrics["wall_s"] = metric{median(walls), "s"}
	res.metrics["setup_s"] = metric{median(setups), "s"}
	res.metrics["peak_rss_mb"] = metric{peak, "MiB"}
	res.metrics["fidelity_err_pct"] = metric{fidelityErrPct(fid), "%"}
	res.metrics["sim_knee_kops"] = metric{first.sim.kneeKops, "kops"}
	res.metrics["sim_p50_us"] = metric{first.sim.p50us, "sim_us"}
	res.metrics["sim_p99_us"] = metric{first.sim.p99us, "sim_us"}
	res.notes = append(res.notes,
		fmt.Sprintf("passes %d  wall_s quartiles %s  setup_s quartiles %s", len(walls), quartiles(walls), quartiles(setups)),
		fmt.Sprintf("sim_p50_us/sim_p99_us over %d samples: %s", first.sim.samples, first.sim.what))
	res.notes = append(res.notes, first.notes...)
	return res, nil
}

// traced runs one untraced reference pass and one traced pass of the
// workload, checks that their simulated outputs are identical, then runs
// the layer drives, and reports the per-layer metrics.
func traced(w *namedWorkload, seed uint64, sz *sizes) (*result, error) {
	res := &result{metrics: map[string]metric{}}
	runtime.GC()
	ref := newPass(seed, sz, false)
	w.pass(ref)
	runtime.GC()
	tr := newPass(seed, sz, true)
	w.pass(tr)
	res.absorb(ref)
	res.absorb(tr)
	compareOuts(res, "traced vs untraced", ref, tr)
	res.digest = tr.digest()
	res.trace = tr.trace

	fid := fidelityOf(w, res, tr)
	m := res.metrics
	m["trace.overhead_frac"] = metric{tr.wall.Seconds()/ref.wall.Seconds() - 1, "ratio"}
	ref.rt.metrics(m)
	tr.dev.metrics(m)
	for _, k := range simLayerMetrics {
		m[k.name] = metric{tr.layer[k.name], k.unit}
	}
	for _, f := range fid {
		m["lattester."+f.name] = metric{f.sim, f.unit}
	}
	res.notes = append(res.notes, fidelityTable(fid)...)
	res.notes = append(res.notes, fmt.Sprintf("untraced wall %.4f s, traced wall %.4f s", ref.wall.Seconds(), tr.wall.Seconds()))
	if err := drives(m, seed, sz); err != nil {
		return nil, err
	}
	legDrives(res, seed, sz)
	return res, nil
}

// absorb counts a pass's runs and failures into the result.
func (r *result) absorb(ps *pass) {
	r.attempted += len(ps.outs)
	r.failed += ps.failed
	r.failures = append(r.failures, ps.failures...)
}

// fidelityOf returns the workload's fidelity points: from its pass, or
// from the calibration gate for workloads whose pass has no device
// kernels.
func fidelityOf(w *namedWorkload, res *result, ps *pass) []fidelity {
	if !w.calibrate {
		return ps.fid
	}
	cal := newPass(ps.seed, ps.sz, false)
	calibrate(cal)
	res.absorb(cal)
	return cal.fid
}

// rtDelta is a runtime/metrics difference.
type rtDelta struct {
	allocBytes, allocObjects, gcCycles, gcCPU, totalCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRT() rtDelta {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return rtDelta{v[0], v[1] + v[2], v[3], v[4], v[5]}
}

func (a rtDelta) sub(b rtDelta) rtDelta {
	return rtDelta{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects,
		a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a *rtDelta) add(b rtDelta) {
	a.allocBytes += b.allocBytes
	a.allocObjects += b.allocObjects
	a.gcCycles += b.gcCycles
	a.gcCPU += b.gcCPU
	a.totalCPU += b.totalCPU
}

func (a rtDelta) metrics(m map[string]metric) {
	m["rt.alloc_mb"] = metric{a.allocBytes / (1 << 20), "MiB"}
	m["rt.gc_cycles"] = metric{a.gcCycles, "count"}
	m["rt.gc_cpu_frac"] = metric{ratio(a.gcCPU, a.totalCPU), "ratio"}
}

// devAgg sums devstat windows: device counters over every window that
// feeds the dimm.* and imc.* metrics.
type devAgg struct {
	ctr     dimm.Counters
	stall   sim.Time
	elapsed sim.Time
}

func (d *devAgg) add(w devstat.Window) {
	for i := range w.DIMMs {
		d.ctr.Add(w.DIMMs[i].Ctr)
		d.stall += w.DIMMs[i].WPQStall
	}
	d.elapsed += w.Elapsed
}

func (d *devAgg) metrics(m map[string]metric) {
	w := devstat.DIMMWindow{Ctr: d.ctr, WPQStall: d.stall, Elapsed: d.elapsed}
	m["dimm.ewr"] = metric{w.EWR(), "ratio"}
	m["dimm.buffer_hit_rate"] = metric{w.BufferHitRate(), "ratio"}
	m["dimm.early_close_rate"] = metric{w.EarlyCloseRate(), "ratio"}
	m["dimm.media_write_mb"] = metric{float64(d.ctr.MediaWriteBytes) / (1 << 20), "MiB"}
	m["imc.wpq_stall_frac"] = metric{w.WPQStallFrac(), "ratio"}
}

// simLayerMetrics are the traced run's simulated per-layer metrics of the
// serving path. A workload whose path lacks the layer reports 0.
var simLayerMetrics = []struct{ name, unit string }{
	{"service.queue_wait_p99_us", "sim_us"},
	{"service.service_p50_us", "sim_us"},
	{"service.persist_p50_us", "sim_us"},
	{"service.batch_wait_p50_us", "sim_us"},
	{"service.shed_frac", "ratio"},
	{"service.util", "ratio"},
	{"service.gen_ratio", "ratio"},
	{"service.knee_kops-d1", "kops"},
	{"service.p99_us-d1", "sim_us"},
	{"service.knee_kops-tier0", "kops"},
	{"service.p99_us-tier0", "sim_us"},
	{"pmem.fence_per_op", "ratio"},
	{"pmem.batch_fill", "count"},
	{"hottier.hit_rate", "ratio"},
	{"hottier.evictions", "count"},
	{"cluster.max_shard_share", "ratio"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles renders the first quartile, median and third quartile.
func quartiles(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(f float64) float64 {
		pos := f * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return fmt.Sprintf("%.4g/%.4g/%.4g", q(0.25), q(0.5), q(0.75))
}

// peakRSSMiB is the process's peak resident set (VmHWM), falling back to
// the Go runtime's total mapped memory where /proc is unavailable.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if f := strings.Fields(l); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
