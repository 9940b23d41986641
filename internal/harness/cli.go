package harness

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"optanestudy/internal/sim"
	"optanestudy/internal/telemetry"
)

// paramFlag accumulates repeated -p key=value flags.
type paramFlag map[string]string

func (p paramFlag) String() string { return "" }

func (p paramFlag) Set(v string) error {
	key, val, ok := strings.Cut(v, "=")
	if !ok || key == "" {
		return fmt.Errorf("want key=value, got %q", v)
	}
	p[key] = val
	return nil
}

// CLIMain is the bench command: list scenarios or run them by name or
// glob (every registered scenario when none is given) through the driver,
// and render the results in the chosen format. It returns the process exit
// code.
func CLIMain(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprint(stderr, "bench: run the study's scenarios on the simulated platform\n\n",
			"usage: bench [flags] [scenario|glob ...]\n",
			"no scenario argument selects every registered scenario\n\nflags:\n")
		fs.PrintDefaults()
	}

	list := fs.Bool("list", false, "list matching scenarios and exit")
	format := fs.String("format", "table", "output format: table, csv or json")
	parallel := fs.Int("parallel", 0, "max concurrent (scenario, trial) jobs (0 = GOMAXPROCS); output is identical at any width")
	trials := fs.Int("trials", 0, "measured trials per scenario (0 = scenario default)")
	threads := fs.Int("threads", 0, "worker threads (0 = scenario default)")
	socket := fs.Int("socket", 0, "socket the workers run on (0 = scenario default)")
	durationUS := fs.Int("duration", 0, "measured window in simulated microseconds (0 = default)")
	warmupUS := fs.Int("warmup", 0, "per-trial warmup in simulated microseconds (0 = default)")
	ops := fs.Int("ops", 0, "operation budget for count-style scenarios (0 = default)")
	seed := fs.Uint64("seed", 0, "base RNG seed (0 = scenario default); trial seeds derive from it and the resolved spec")
	det := fs.Bool("deterministic", false, "suppress wall-clock fields so repeated and parallel runs are byte-identical")
	tracePath := fs.String("trace", "", "write per-op phase spans and timeline samples as an optanestudy-trace/v1 JSONL stream to this file (tracing is off when empty; results are unchanged either way)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	params := paramFlag{}
	fs.Var(params, "p", "scenario param as key=value (repeatable)")

	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	// The pprof flags profile the host-side runner (scenario execution,
	// the scheduler, reporting). The simulation itself is wall-clock-free,
	// so profiling never changes results.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			f.Close()
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so live objects dominate
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
			}
		}()
	}
	globs := fs.Args()
	if len(globs) == 0 {
		globs = Names()
	}
	scs, err := Match(globs...)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}

	if *list {
		for _, sc := range scs {
			fmt.Fprintf(stdout, "%-28s %s\n", sc.Name, sc.Doc)
		}
		return 0
	}

	rep, err := NewReporter(*format, *det)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}

	// Run every matched scenario's trials as one job batch over the worker
	// pool; results and errors come back in registry order, so output is
	// identical at any -parallel width. A failure in one scenario (e.g. a
	// -p param a sibling scenario does not understand) must not discard
	// the results of the others.
	specs := make([]Spec, len(scs))
	for i, sc := range scs {
		spec := Spec{
			Scenario: sc.Name,
			Threads:  *threads,
			Socket:   *socket,
			Duration: sim.Time(*durationUS) * sim.Microsecond,
			Warmup:   sim.Time(*warmupUS) * sim.Microsecond,
			Ops:      *ops,
			Trials:   *trials,
			Seed:     *seed,
			Trace:    *tracePath != "",
		}
		if len(params) > 0 {
			spec.Params = make(map[string]string, len(params))
			for k, v := range params {
				spec.Params[k] = v
			}
		}
		specs[i] = spec
	}
	var results []*Result
	failed := 0
	for _, sr := range RunSpecs(specs, *parallel) {
		if sr.Err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", sr.Err)
			failed++
			continue
		}
		results = append(results, sr.Result)
	}

	if len(results) > 0 {
		if err := rep.Report(stdout, results); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	// The trace sink: one JSONL stream over every traced trial, emitted
	// in result order (input order, regardless of schedule), so the file
	// is byte-identical at any -parallel width.
	if *tracePath != "" {
		var entries []telemetry.TraceEntry
		for _, r := range results {
			for ti := range r.Trials {
				if tr := r.Trials[ti].Trace; tr != nil {
					entries = append(entries, telemetry.TraceEntry{Scenario: r.Name, Trial: ti, Trace: tr})
				}
			}
		}
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if err := telemetry.WriteJSONL(f, entries); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			f.Close()
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}
