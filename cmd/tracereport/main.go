// Command tracereport renders an optanestudy-trace/v1 JSONL stream (the
// -trace output of the bench command) for humans, in one of three views:
//
//   - spans (the default): per run, a phase-breakdown table, the slowest
//     ops and the fault/failover events;
//   - timeline: each run's timeline as CSV, the cumulative counters
//     differenced into per-interval rates (throughput, shed fraction,
//     queue depth, per-shard share, windowed EWR, cache hit rate, batch
//     fill, per-DIMM bandwidth and WPQ stall), with fault/failover markers
//     folded into an events column on runs that carry them;
//   - dimms: a per-DIMM utilization table over time, the simulator's
//     answer to `ipmctl show -performance`: effective bandwidth, write and
//     media write bandwidth, windowed EWR, XPBuffer hit rate and WPQ stall
//     fraction, one row per active DIMM per interval.
//
// Both interval views walk the timeline the same way and render every
// -every'th interval. Everything rendered derives from the trace's
// sim-time samples, so the output is byte-identical at any -parallel width
// of the producing run.
//
// Usage:
//
//	tracereport trace.jsonl
//	tracereport -view timeline trace.jsonl > timeline.csv
//	tracereport -view dimms -every 4 trace.jsonl
//	tracereport -view dimms - < trace.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"optanestudy/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracereport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "tracereport: render an %s JSONL stream\n\n", telemetry.TraceSchema)
		fmt.Fprintf(stderr, "usage: tracereport [flags] <trace.jsonl | ->\n\nflags:\n")
		fs.PrintDefaults()
	}
	view := fs.String("view", "spans", "what to render: spans (phase, slowest-op and event tables), timeline (interval-differenced CSV) or dimms (per-DIMM utilization table)")
	every := fs.Int("every", 1, "render every Nth timeline interval (timeline and dimms views)")
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 || *every < 1 {
		fs.Usage()
		return 2
	}
	var render func(w io.Writer, title string, rn *telemetry.Run, every int)
	switch *view {
	case "spans":
		render = renderSpans
	case "timeline":
		render = renderTimeline
	case "dimms":
		render = renderDIMMs
	default:
		fmt.Fprintf(stderr, "tracereport: unknown -view %q (want spans, timeline or dimms)\n", *view)
		return 2
	}
	var in io.Reader = os.Stdin
	if path := fs.Arg(0); path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "tracereport: %v\n", err)
			return 1
		}
		defer f.Close()
		in = f
	}
	entries, err := telemetry.ReadJSONL(in)
	if err != nil {
		fmt.Fprintf(stderr, "tracereport: %v\n", err)
		return 1
	}
	for _, e := range entries {
		for _, rn := range e.Trace.Runs {
			title := fmt.Sprintf("%s trial %d", e.Scenario, e.Trial)
			if rn.Label != "" {
				title += " [" + rn.Label + "]"
			}
			render(stdout, title, rn, *every)
		}
	}
	return 0
}

// renderSpans prints one run's phase breakdown, slowest-ops and
// fault/failover-event tables. It has no intervals, so every is unused.
func renderSpans(w io.Writer, title string, rn *telemetry.Run, _ int) {
	fmt.Fprintf(w, "== %s  ops=%d sheds=%d samples=%d\n", title, rn.Ops, rn.Sheds, len(rn.Samples))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\tcount\tmean_ns\tp50_ns\tp99_ns\tmax_ns")
	for _, ps := range rn.Phases {
		if ps.Count == 0 {
			fmt.Fprintf(tw, "%s\t0\t-\t-\t-\t-\n", ps.Phase)
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%.4g\t%.4g\t%.4g\t%.4g\n",
			ps.Phase, ps.Count, ps.MeanNS, ps.P50NS, ps.P99NS, ps.MaxNS)
	}
	tw.Flush()
	if len(rn.Slowest) > 0 {
		fmt.Fprintln(w, "slowest ops:")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "rank\top\ttenant\tshard\tworker\tkey\tbatch\thit\tarrival_ns\ttotal_ns\tqueue_ns\tbatch_ns\tservice_ns\tpersist_ns")
		for _, s := range rn.Slowest {
			hit := "-"
			switch s.CacheHit {
			case 1:
				hit = "y"
			case 0:
				hit = "n"
			}
			fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\n",
				s.Rank, s.Op, s.Tenant, s.Shard, s.Worker, s.Key, s.Batch, hit,
				s.ArrivalNS, s.TotalNS, s.QueueNS, s.BatchNS, s.ServiceNS, s.PersistNS)
		}
		tw.Flush()
	}
	if len(rn.Events) > 0 {
		fmt.Fprintln(w, "events:")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "t_us\tevent\tshard")
		for _, e := range rn.Events {
			fmt.Fprintf(tw, "%.3f\t%s\t%d\n", float64(e.TNS)/1e3, e.Name, e.Shard)
		}
		tw.Flush()
	}
	fmt.Fprintln(w)
}

// renderTimeline prints one run's intervals as CSV. Derived gauge columns
// appear only when the run carries the gauges they need: cache runs get a
// hit-rate column, group-commit runs a batch-fill column, every probed
// socket a summed windowed-EWR column, and every active DIMM its own
// windowed EWR, effective bandwidth (GB/s) and WPQ-stall-fraction columns.
func renderTimeline(w io.Writer, title string, rn *telemetry.Run, every int) {
	if len(rn.Samples) == 0 {
		return
	}
	first := rn.Samples[0]
	has := func(name string) bool { _, ok := gauge(first, name); return ok }
	shards := len(first.Shards)
	hasCache := has("cache_hits")
	hasBatch := has("pmem_batches")
	dimms, active, nsock := probedDIMMs(rn)

	fmt.Fprintf(w, "# %s\n", title)
	cols := []string{"t_us", "offered_kops", "completed_kops", "shed_frac", "qdepth", "qdepth_mean"}
	for i := 0; i < shards; i++ {
		cols = append(cols, fmt.Sprintf("s%d_share", i), fmt.Sprintf("s%d_qdepth", i))
	}
	if hasCache {
		cols = append(cols, "cache_hit_rate")
	}
	if hasBatch {
		cols = append(cols, "batch_fill", "fence_per_op")
	}
	for s := 0; s < nsock; s++ {
		cols = append(cols, fmt.Sprintf("ewr_s%d", s))
	}
	for _, d := range active {
		cols = append(cols, "ewr"+d.suffix(), "bw"+d.suffix(), "stall"+d.suffix())
	}
	hasEvents := len(rn.Events) > 0
	if hasEvents {
		cols = append(cols, "events")
	}
	fmt.Fprintln(w, strings.Join(cols, ","))

	nextEvent := 0
	eachInterval(rn, every, func(iv interval) {
		s, prev := iv.cur, iv.prev
		dOff := float64(s.Offered - prev.Offered)
		dDone := float64(s.Completed - prev.Completed)
		dDrop := float64(s.Dropped - prev.Dropped)
		row := []string{
			fmt.Sprintf("%.3f", float64(s.TNS)/1e3),
			// counts per interval over ns → Mops/s; ×1e3 → kops.
			fmt.Sprintf("%.4g", dOff/iv.dtNS*1e6),
			fmt.Sprintf("%.4g", dDone/iv.dtNS*1e6),
			fmt.Sprintf("%.4g", ratio(dDrop, dOff)),
		}
		depth, occ := 0, 0.0
		for i := range s.Shards {
			depth += s.Shards[i].QDepth
			occ += s.Shards[i].QOccNS
			if i < len(prev.Shards) {
				occ -= prev.Shards[i].QOccNS
			}
		}
		row = append(row, fmt.Sprintf("%d", depth), fmt.Sprintf("%.4g", occ/iv.dtNS))
		for i := 0; i < shards; i++ {
			di := float64(s.Shards[i].Completed)
			if i < len(prev.Shards) {
				di -= float64(prev.Shards[i].Completed)
			}
			row = append(row,
				fmt.Sprintf("%.4g", ratio(di, dDone)),
				fmt.Sprintf("%d", s.Shards[i].QDepth))
		}
		if hasCache {
			h, m := iv.delta("cache_hits"), iv.delta("cache_misses")
			row = append(row, fmt.Sprintf("%.4g", ratio(h, h+m)))
		}
		if hasBatch {
			row = append(row,
				fmt.Sprintf("%.4g", ratio(iv.delta("pmem_batch_ops"), iv.delta("pmem_batches"))),
				fmt.Sprintf("%.4g", ratio(iv.delta("pmem_fences"), dDone)))
		}
		for sk := 0; sk < nsock; sk++ {
			var ctrl, media float64
			for _, d := range dimms {
				if d.s != sk {
					continue
				}
				ctrl += iv.delta("xp_ctrl_write_bytes" + d.suffix())
				media += iv.delta("xp_media_write_bytes" + d.suffix())
			}
			row = append(row, fmt.Sprintf("%.4g", ratio(ctrl, media)))
		}
		for _, d := range active {
			r := iv.dimm(d)
			row = append(row,
				fmt.Sprintf("%.4g", r.ewr),
				fmt.Sprintf("%.4g", r.bw),
				fmt.Sprintf("%.4g", r.stall))
		}
		if hasEvents {
			// Every not-yet-emitted marker up to this sample instant lands
			// in this row's cell: warmup markers in the first row, markers
			// of intervals -every skipped in the next rendered one.
			var marks []string
			for nextEvent < len(rn.Events) && rn.Events[nextEvent].TNS <= s.TNS {
				e := rn.Events[nextEvent]
				marks = append(marks, fmt.Sprintf("%s:s%d", e.Name, e.Shard))
				nextEvent++
			}
			row = append(row, strings.Join(marks, ";"))
		}
		fmt.Fprintln(w, strings.Join(row, ","))
	})
	fmt.Fprintln(w)
}

// renderDIMMs prints one run's per-DIMM utilization rows, one per active
// DIMM per rendered interval.
func renderDIMMs(w io.Writer, title string, rn *telemetry.Run, every int) {
	if len(rn.Samples) == 0 {
		return
	}
	dimms, active, _ := probedDIMMs(rn)
	if len(dimms) == 0 {
		fmt.Fprintf(w, "== %s: no per-DIMM device gauges in trace\n\n", title)
		return
	}
	fmt.Fprintf(w, "== %s  samples=%d dimms=%d active=%d\n", title, len(rn.Samples), len(dimms), len(active))
	if len(active) == 0 {
		fmt.Fprintln(w)
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "t_us\tdimm\tbw_gbs\twr_gbs\tmedia_wr_gbs\tewr\thit_rate\tstall")
	eachInterval(rn, every, func(iv interval) {
		for _, d := range active {
			r := iv.dimm(d)
			fmt.Fprintf(tw, "%.3f\ts%dc%d\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\n",
				float64(iv.cur.TNS)/1e3, d.s, d.c,
				r.bw, r.wr, r.mediaWr, r.ewr, r.hitRate, r.stall)
		}
	})
	tw.Flush()
	fmt.Fprintln(w)
}

// gauge returns a sample's named probe gauge.
func gauge(s telemetry.Sample, name string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// dimm names one probed XP DIMM by socket and channel.
type dimm struct{ s, c int }

// suffix is the DIMM's gauge-name suffix, "_s<s>c<c>".
func (d dimm) suffix() string { return fmt.Sprintf("_s%dc%d", d.s, d.c) }

// probedDIMMs finds a run's per-DIMM device gauges (devstat.AddProbes):
// the probed geometry, socket-major, from the first sample, and the DIMMs
// that moved controller bytes by the last one. Activity is a measured
// result, so the active set, and every column or row keyed on it, is
// deterministic. nsock counts the probed sockets.
func probedDIMMs(rn *telemetry.Run) (dimms, active []dimm, nsock int) {
	first, last := rn.Samples[0], rn.Samples[len(rn.Samples)-1]
	probed := func(s, c int) bool {
		_, ok := gauge(first, "xp_ctrl_write_bytes"+dimm{s, c}.suffix())
		return ok
	}
	for s := 0; probed(s, 0); s++ {
		nsock = s + 1
		for c := 0; probed(s, c); c++ {
			dimms = append(dimms, dimm{s, c})
		}
	}
	for _, d := range dimms {
		r, _ := gauge(last, "xp_ctrl_read_bytes"+d.suffix())
		w, _ := gauge(last, "xp_ctrl_write_bytes"+d.suffix())
		if r+w > 0 {
			active = append(active, d)
		}
	}
	return dimms, active, nsock
}

// interval is one step of a run's timeline: a sample and the one before
// it, dtNS nanoseconds of sim time apart.
type interval struct {
	prev, cur telemetry.Sample
	dtNS      float64
}

// delta is a gauge's change over the interval.
func (iv interval) delta(name string) float64 {
	cur, _ := gauge(iv.cur, name)
	old, _ := gauge(iv.prev, name)
	return cur - old
}

// dimmRates is one DIMM's utilization over one interval. Bandwidths are in
// bytes per ns (GB/s); stall is WPQ stall time per ns, which exceeds 1
// when several threads stall at once.
type dimmRates struct {
	bw, wr, mediaWr, ewr, hitRate, stall float64
}

// dimm differences one DIMM's device gauges over the interval.
func (iv interval) dimm(d dimm) dimmRates {
	ctrlR := iv.delta("xp_ctrl_read_bytes" + d.suffix())
	ctrlW := iv.delta("xp_ctrl_write_bytes" + d.suffix())
	mediaW := iv.delta("xp_media_write_bytes" + d.suffix())
	hits := iv.delta("xp_buffer_hits" + d.suffix())
	misses := iv.delta("xp_buffer_misses" + d.suffix())
	stall := iv.delta("xp_wpq_stall_ns" + d.suffix())
	return dimmRates{
		bw:      (ctrlR + ctrlW) / iv.dtNS,
		wr:      ctrlW / iv.dtNS,
		mediaWr: mediaW / iv.dtNS,
		ewr:     ratio(ctrlW, mediaW),
		hitRate: ratio(hits, hits+misses),
		stall:   stall / iv.dtNS,
	}
}

// eachInterval walks a run's timeline, differencing every sample against
// the one before it, and calls fn on every Nth interval, counting
// intervals from 0. The walk starts from zero counters at t=0; a sample
// that does not advance time, such as the sampler's baseline at t_ns 0,
// opens no interval and only becomes the next interval's start.
func eachInterval(rn *telemetry.Run, every int, fn func(iv interval)) {
	prev := telemetry.Sample{}
	k := 0
	for _, s := range rn.Samples {
		if s.TNS > prev.TNS {
			if k%every == 0 {
				fn(interval{prev: prev, cur: s, dtNS: float64(s.TNS - prev.TNS)})
			}
			k++
		}
		prev = s
	}
}
