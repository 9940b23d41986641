// Command benchdiff compares two optanestudy-bench/v1 JSON result files
// and reports per-scenario, per-metric relative deltas — the regression
// harness for bench sweeps. Scenarios are matched by name; each scenario
// compares the headline aggregates (throughput_gbs, ops_per_sec, p50_ns,
// p99_ns) plus every key in the metrics maps.
//
// By default benchdiff is report-only (exit 0) so it can run as an
// informational CI step; -fail turns threshold violations into exit 1.
//
// Usage:
//
//	benchdiff old.json new.json
//	benchdiff -threshold 0.10 -all old.json new.json
//	benchdiff -format json -fail ci/sweep_baseline.json sweep-new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// envelope mirrors the harness's optanestudy-bench/v1 schema, keeping only
// the fields benchdiff compares.
type envelope struct {
	Schema  string   `json:"schema"`
	Results []result `json:"results"`
}

type result struct {
	Name          string             `json:"name"`
	ThroughputGBs float64            `json:"throughput_gbs"`
	OpsPerSec     float64            `json:"ops_per_sec"`
	P50NS         float64            `json:"p50_ns"`
	P99NS         float64            `json:"p99_ns"`
	Metrics       map[string]float64 `json:"metrics"`
}

const benchSchema = "optanestudy-bench/v1"

// delta is one compared value pair. Rel is (new-old)/|old|; nil (JSON
// null) marks a pair with no finite relative delta: a metric present on
// only one side, or one moving from 0.
type delta struct {
	Scenario string   `json:"scenario"`
	Metric   string   `json:"metric"`
	Old      float64  `json:"old"`
	New      float64  `json:"new"`
	Rel      *float64 `json:"rel"`
	Flagged  bool     `json:"flagged"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "benchdiff: per-scenario metric deltas between two %s files\n\n", benchSchema)
		fmt.Fprintf(stderr, "usage: benchdiff [flags] <old.json> <new.json>\n\nflags:\n")
		fs.PrintDefaults()
	}
	threshold := fs.Float64("threshold", 0.05, "relative delta beyond which a metric is flagged")
	all := fs.Bool("all", false, "print every compared metric, not just flagged ones")
	format := fs.String("format", "table", "output format: table or json")
	failOn := fs.Bool("fail", false, "exit 1 when any metric is flagged (default: report-only)")
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() != 2 || *threshold < 0 {
		fs.Usage()
		return 2
	}
	oldEnv, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	newEnv, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}

	deltas, onlyOld, onlyNew := diff(oldEnv, newEnv, *threshold)
	flagged := 0
	for _, d := range deltas {
		if d.Flagged {
			flagged++
		}
	}

	switch *format {
	case "table", "":
		shown := deltas
		if !*all {
			shown = shown[:0:0]
			for _, d := range deltas {
				if d.Flagged {
					shown = append(shown, d)
				}
			}
		}
		tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "scenario\tmetric\told\tnew\tdelta")
		for _, d := range shown {
			mark := ""
			if d.Flagged {
				mark = " !"
			}
			rel := "n/a"
			if d.Rel != nil {
				rel = fmt.Sprintf("%+.2f%%", *d.Rel*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s%s\n", d.Scenario, d.Metric, d.Old, d.New, rel, mark)
		}
		tw.Flush()
		for _, name := range onlyOld {
			fmt.Fprintf(stdout, "# scenario only in old: %s\n", name)
		}
		for _, name := range onlyNew {
			fmt.Fprintf(stdout, "# scenario only in new: %s\n", name)
		}
		fmt.Fprintf(stdout, "# %d metrics compared, %d beyond %.0f%% threshold\n",
			len(deltas), flagged, *threshold*100)
	case "json":
		out := struct {
			Schema    string   `json:"schema"`
			Threshold float64  `json:"threshold"`
			Compared  int      `json:"compared"`
			Flagged   int      `json:"flagged"`
			Deltas    []delta  `json:"deltas"`
			OnlyOld   []string `json:"only_old,omitempty"`
			OnlyNew   []string `json:"only_new,omitempty"`
		}{"optanestudy-benchdiff/v1", *threshold, len(deltas), flagged, deltas, onlyOld, onlyNew}
		if !*all {
			out.Deltas = out.Deltas[:0:0]
			for _, d := range deltas {
				if d.Flagged {
					out.Deltas = append(out.Deltas, d)
				}
			}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 1
		}
	default:
		fmt.Fprintf(stderr, "benchdiff: unknown format %q (want table or json)\n", *format)
		return 2
	}
	if *failOn && flagged > 0 {
		return 1
	}
	return 0
}

func load(path string) (*envelope, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if env.Schema != benchSchema {
		return nil, fmt.Errorf("%s: unknown schema %q (want %s)", path, env.Schema, benchSchema)
	}
	return &env, nil
}

// diff compares the two envelopes scenario by scenario. Output order is
// old-file result order, then metric name order, so two runs over the
// same inputs render byte-identically.
func diff(oldEnv, newEnv *envelope, threshold float64) (deltas []delta, onlyOld, onlyNew []string) {
	newBy := make(map[string]*result, len(newEnv.Results))
	for i := range newEnv.Results {
		newBy[newEnv.Results[i].Name] = &newEnv.Results[i]
	}
	seen := make(map[string]bool, len(oldEnv.Results))
	for i := range oldEnv.Results {
		or := &oldEnv.Results[i]
		seen[or.Name] = true
		nr, ok := newBy[or.Name]
		if !ok {
			onlyOld = append(onlyOld, or.Name)
			continue
		}
		deltas = append(deltas, compare(or, nr, threshold)...)
	}
	for i := range newEnv.Results {
		if !seen[newEnv.Results[i].Name] {
			onlyNew = append(onlyNew, newEnv.Results[i].Name)
		}
	}
	sort.Strings(onlyNew)
	return deltas, onlyOld, onlyNew
}

func compare(or, nr *result, threshold float64) []delta {
	var out []delta
	add := func(metric string, ov, nv float64, inBoth bool) {
		var rel *float64
		flagged := true
		switch {
		case !inBoth:
			// present on one side only: always worth flagging
		case ov == nv:
			rel, flagged = new(float64), false
		case ov == 0:
			// 0 -> nonzero has no finite relative delta; flag it
		default:
			r := (nv - ov) / math.Abs(ov)
			rel, flagged = &r, math.Abs(r) > threshold
		}
		out = append(out, delta{or.Name, metric, ov, nv, rel, flagged})
	}
	add("throughput_gbs", or.ThroughputGBs, nr.ThroughputGBs, true)
	add("ops_per_sec", or.OpsPerSec, nr.OpsPerSec, true)
	add("p50_ns", or.P50NS, nr.P50NS, true)
	add("p99_ns", or.P99NS, nr.P99NS, true)
	keys := make(map[string]bool, len(or.Metrics)+len(nr.Metrics))
	for k := range or.Metrics {
		keys[k] = true
	}
	for k := range nr.Metrics {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		ov, okOld := or.Metrics[k]
		nv, okNew := nr.Metrics[k]
		add(k, ov, nv, okOld && okNew)
	}
	return out
}
