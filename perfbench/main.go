// Command perfbench is the repository benchmark. It runs one named
// workload (device, serve-write or serve-read) in this process for a fixed
// host-time budget, checks every simulated output, and prints the
// end-to-end metrics — or, with -trace 1, the per-layer metrics — as one
// JSON object on the last line of standard output.
//
//	go run . -workload serve-write -seed 1 -seconds 10 -trace 0
//
// Each workload is built from the layers' exported Go entry points
// (platform.New, lattester kernels, service.NewBackend/NewAppendLog/Serve,
// cluster.New, devstat.Watch, telemetry.NewRecorder), never from the
// scenario registry or the bench CLIs. README.md explains the workloads,
// the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"optanestudy/internal/telemetry"
)

// maxRun caps one invocation's host time well inside the 180 s budget a
// caller may enforce: the timing loop stops early rather than overrun.
const maxRun = 150 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs the workload and prints the result.
// It returns the process exit code: 0 on a completed run (whether or not
// its outputs passed the checks), 2 on bad usage, 1 on an internal error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed (inputs are a pure function of it)")
	seconds := fs.Int("seconds", 10, "host seconds an untraced run measures for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	traceDir := fs.String("trace-dir", "", "directory for the optanestudy-trace/v1 stream of a traced run (empty: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want -workload %s, -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}
	procs := fixProcs()
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d numcpu=%d %s\n",
		w.name, *seed, *seconds, *trace, procs, runtime.NumCPU(), runtime.Version())

	budget := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 0 {
		res, err = measure(w, *seed, fullSizes, budget)
	} else {
		res, err = traced(w, *seed, fullSizes)
		if err == nil && *traceDir != "" {
			err = writeTrace(*traceDir, w.name, *seed, res.trace)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res.print(stdout, w.name, *seed)
	return 0
}

// fixProcs pins GOMAXPROCS to at most two and never above the CPUs this
// process may run on, so host timings compare across machines of
// different widths. The simulator serializes its procs, so a second
// thread only hosts the garbage collector.
func fixProcs() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	runtime.GOMAXPROCS(n)
	return n
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one invocation prints.
type result struct {
	attempted, failed int
	failures          []string
	digest            string
	metrics           map[string]metric
	notes             []string // human-readable lines printed before the result
	trace             []telemetry.TraceEntry
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// print writes the summary lines, then the contract's JSON object as the
// last line.
func (r *result) print(w io.Writer, workload string, seed uint64) {
	fmt.Fprintf(w, "sim_digest workload=%s seed=%d %s\n", workload, seed, r.digest)
	fmt.Fprintf(w, "fail_frac %.6g ratio (%d of %d runs failed)\n", r.failFrac(), r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "metric %-36s %.6g %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		// Every value is a finite float64 by construction; a NaN or Inf
		// here is a bug in a metric definition.
		panic(err)
	}
	fmt.Fprintln(w, string(b))
}

func (r *result) failFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// writeTrace writes the traced run's stream as
// <dir>/<workload>-seed<seed>.jsonl.
func writeTrace(dir, workload string, seed uint64, entries []telemetry.TraceEntry) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteJSONL(f, entries); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", path, err)
	}
	return nil
}
