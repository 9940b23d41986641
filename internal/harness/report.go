package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"text/tabwriter"

	"optanestudy/internal/sim"
)

// Reporter renders a batch of results.
type Reporter interface {
	Report(w io.Writer, results []*Result) error
}

// NewReporter returns the reporter for a format name: "table", "csv" or
// "json". With deterministic set it suppresses host wall-clock fields.
func NewReporter(format string, deterministic bool) (Reporter, error) {
	switch format {
	case "table", "":
		return TableReporter{Deterministic: deterministic}, nil
	case "csv":
		return CSVReporter{Deterministic: deterministic}, nil
	case "json":
		return JSONReporter{Deterministic: deterministic}, nil
	default:
		return nil, fmt.Errorf("harness: unknown format %q (want table, csv or json)", format)
	}
}

// TableReporter renders a human-readable summary table, followed by any
// scenario metrics and text artifacts. With Deterministic set the wall
// column is suppressed, so serial and parallel runs of the same specs
// print byte-identical tables.
type TableReporter struct {
	Deterministic bool
}

// Report implements Reporter.
func (t TableReporter) Report(w io.Writer, results []*Result) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tthreads\ttrials\tGB/s\tops/s\tp50(ns)\tp99(ns)\tsim\twall")
	for _, r := range results {
		wall := r.WallTotal.Round(1e6).String()
		if t.Deterministic {
			wall = "-"
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.3f\t%.0f\t%.0f\t%.0f\t%v\t%s\n",
			r.Name, r.Spec.Threads, len(r.Trials), r.GBs.Mean, r.OpsPerSec.Mean,
			r.P50NS, r.P99NS, r.SimTotal, wall)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, r := range results {
		if len(r.Metrics) > 0 {
			names := make([]string, 0, len(r.Metrics))
			for k := range r.Metrics {
				names = append(names, k)
			}
			sort.Strings(names)
			fmt.Fprintf(w, "# %s metrics:", r.Name)
			for _, k := range names {
				fmt.Fprintf(w, " %s=%.4g", k, r.Metrics[k].Mean)
			}
			fmt.Fprintln(w)
		}
		for _, tr := range r.Trials {
			if tr.Text != "" {
				fmt.Fprintln(w, tr.Text)
			}
		}
	}
	return nil
}

// CSVReporter emits one row per result with the headline aggregates. With
// Deterministic set the wall_ns column is zeroed.
type CSVReporter struct {
	Deterministic bool
}

// Report implements Reporter.
func (c CSVReporter) Report(w io.Writer, results []*Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"scenario", "threads", "socket", "trials", "gbs_mean", "gbs_std",
		"ops_per_sec_mean", "p50_ns", "p99_ns", "sim_ns", "wall_ns",
	}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range results {
		wallNS := r.WallTotal.Nanoseconds()
		if c.Deterministic {
			wallNS = 0
		}
		rec := []string{
			r.Name,
			strconv.Itoa(r.Spec.Threads),
			strconv.Itoa(r.Spec.Socket),
			strconv.Itoa(len(r.Trials)),
			f(r.GBs.Mean), f(r.GBs.Std), f(r.OpsPerSec.Mean),
			f(r.P50NS), f(r.P99NS),
			strconv.FormatInt(int64(r.SimTotal/sim.Nanosecond), 10),
			strconv.FormatInt(wallNS, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SchemaVersion identifies the JSON result schema emitted by JSONReporter.
const SchemaVersion = "optanestudy-bench/v1"

// JSONReporter emits the stable machine-readable schema (see DESIGN.md).
// With Deterministic set, host wall-clock fields are zeroed so that two
// runs of the same deterministic spec produce byte-identical output.
type JSONReporter struct {
	Deterministic bool
}

type jsonEnvelope struct {
	Schema  string        `json:"schema"`
	Results []*jsonResult `json:"results"`
}

type jsonResult struct {
	Name          string             `json:"name"`
	Config        jsonConfig         `json:"config"`
	Trials        []jsonTrial        `json:"trials"`
	ThroughputGBs float64            `json:"throughput_gbs"`
	GBsStd        float64            `json:"throughput_gbs_std"`
	OpsPerSec     float64            `json:"ops_per_sec"`
	P50NS         float64            `json:"p50_ns"`
	P99NS         float64            `json:"p99_ns"`
	SimNS         int64              `json:"sim_ns"`
	WallNS        int64              `json:"wall_ns"`
	Metrics       map[string]float64 `json:"metrics,omitempty"`
}

type jsonConfig struct {
	Params     map[string]string `json:"params,omitempty"`
	Threads    int               `json:"threads"`
	Socket     int               `json:"socket"`
	DurationNS int64             `json:"duration_ns"`
	WarmupNS   int64             `json:"warmup_ns"`
	Ops        int               `json:"ops"`
	Trials     int               `json:"trials"`
	Seed       uint64            `json:"seed"`
}

type jsonTrial struct {
	Bytes     int64              `json:"bytes"`
	Ops       int64              `json:"ops"`
	SimNS     int64              `json:"sim_ns"`
	WallNS    int64              `json:"wall_ns"`
	GBs       float64            `json:"gbs"`
	OpsPerSec float64            `json:"ops_per_sec"`
	P50NS     float64            `json:"p50_ns,omitempty"`
	P99NS     float64            `json:"p99_ns,omitempty"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
}

// Report implements Reporter.
func (j JSONReporter) Report(w io.Writer, results []*Result) error {
	env := jsonEnvelope{Schema: SchemaVersion, Results: make([]*jsonResult, 0, len(results))}
	for _, r := range results {
		jr := &jsonResult{
			Name: r.Name,
			Config: jsonConfig{
				Params:     r.Spec.Params,
				Threads:    r.Spec.Threads,
				Socket:     r.Spec.Socket,
				DurationNS: int64(r.Spec.Duration / sim.Nanosecond),
				WarmupNS:   int64(r.Spec.Warmup / sim.Nanosecond),
				Ops:        r.Spec.Ops,
				Trials:     r.Spec.Trials,
				Seed:       r.Spec.Seed,
			},
			ThroughputGBs: r.GBs.Mean,
			GBsStd:        r.GBs.Std,
			OpsPerSec:     r.OpsPerSec.Mean,
			P50NS:         r.P50NS,
			P99NS:         r.P99NS,
			SimNS:         int64(r.SimTotal / sim.Nanosecond),
			WallNS:        r.WallTotal.Nanoseconds(),
		}
		if len(r.Metrics) > 0 {
			jr.Metrics = make(map[string]float64, len(r.Metrics))
			for k, agg := range r.Metrics {
				jr.Metrics[k] = agg.Mean
			}
		}
		for _, tr := range r.Trials {
			jt := jsonTrial{
				Bytes:     tr.Bytes,
				Ops:       tr.Ops,
				SimNS:     int64(tr.Sim / sim.Nanosecond),
				WallNS:    tr.Wall.Nanoseconds(),
				GBs:       tr.GBs,
				OpsPerSec: tr.OpsPerSec,
				Metrics:   tr.Metrics,
			}
			if tr.Latency != nil && tr.Latency.Count() > 0 {
				jt.P50NS = tr.Latency.Percentile(0.5)
				jt.P99NS = tr.Latency.Percentile(0.99)
			}
			if j.Deterministic {
				jt.WallNS = 0
			}
			jr.Trials = append(jr.Trials, jt)
		}
		if j.Deterministic {
			jr.WallNS = 0
		}
		env.Results = append(env.Results, jr)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(env)
}
