package lattester

import (
	"fmt"

	"optanestudy/internal/harness"
	"optanestudy/internal/platform"
	"optanestudy/internal/sim"
	"optanestudy/internal/workload"
)

// Harness scenarios. The fully parameterized "lattester/kernel" scenario is
// the measurement primitive behind the figure runners and the sweep; the
// named presets expose the paper's headline configurations to the bench
// command.
func init() {
	harness.Register(harness.Scenario{
		Name: "lattester/kernel",
		Doc:  "parameterized LATTester kernel (op, pattern, size, system, mix, delay)",
		Run:  runKernel,
	})
	presets := []struct {
		name, doc string
		params    map[string]string
	}{
		{"lattester/seq-read", "sequential 256 B reads on interleaved Optane",
			map[string]string{"op": "read", "pattern": "seq"}},
		{"lattester/rand-read", "random 256 B reads on interleaved Optane",
			map[string]string{"op": "read", "pattern": "rand"}},
		{"lattester/seq-ntstore", "sequential 256 B ntstore+sfence on interleaved Optane",
			map[string]string{"op": "ntstore", "pattern": "seq"}},
		{"lattester/rand-ntstore", "random 256 B ntstore+sfence on interleaved Optane",
			map[string]string{"op": "ntstore", "pattern": "rand"}},
		{"lattester/seq-store-clwb", "sequential 256 B store+clwb+sfence on interleaved Optane",
			map[string]string{"op": "store+clwb", "pattern": "seq"}},
	}
	for _, p := range presets {
		harness.Register(harness.Scenario{
			Name:     p.name,
			Doc:      p.doc,
			Defaults: harness.Defaults{Params: p.params},
			Run:      runKernel,
		})
	}
	harness.Register(harness.Scenario{
		Name: "lattester/idle-latency",
		Doc:  "best-case per-op latency, idle machine (Figure 2)",
		Run:  runIdleLatency,
	})
	harness.Register(harness.Scenario{
		Name: "lattester/tail-latency",
		Doc:  "write tail latency over a hotspot, wear model on (Figure 3)",
		Run:  runTailLatency,
	})
	harness.Register(harness.Scenario{
		Name: "lattester/sfence-interval",
		Doc:  "single-DIMM bandwidth over sfence interval (Figure 14)",
		Run:  runSfenceInterval,
	})
	harness.Register(harness.Scenario{
		Name:     "lattester/spread",
		Doc:      "iMC contention: threads spread over N DIMMs each (Figure 16)",
		Defaults: harness.Defaults{Threads: 6},
		Run:      runSpread,
	})
	harness.Register(harness.Scenario{
		Name: "lattester/xpbuffer-probe",
		Doc:  "XPBuffer capacity probe via two-pass half-line writes (Figure 10)",
		Run:  runRegionProbe,
	})
}

// parseOp maps an op param back to the Op it stringifies as.
func parseOp(s string) (Op, error) {
	for _, op := range []Op{OpRead, OpNTStore, OpStoreCLWB, OpStore, OpStoreCLFlushOpt} {
		if op.String() == s {
			return op, nil
		}
	}
	return 0, fmt.Errorf("unknown op %q", s)
}

func parsePattern(s string) (PatternKind, error) {
	switch s {
	case "seq":
		return Sequential, nil
	case "rand":
		return Random, nil
	default:
		return 0, fmt.Errorf("unknown pattern %q", s)
	}
}

// parseMix parses "reads:writes" (e.g. "4:1"; "1:0" is all reads).
func parseMix(s string) (*workload.Mix, error) {
	var reads, writes int
	if _, err := fmt.Sscanf(s, "%d:%d", &reads, &writes); err != nil {
		return nil, fmt.Errorf("mix %q: want reads:writes", s)
	}
	return workload.NewMix(reads, writes), nil
}

// scenarioNS builds the namespace for a system label on a fresh platform,
// mirroring the paper's standard configurations: "dram" and "optane" are
// interleaved, "optane-ni" is one DIMM. The nssize param overrides the
// pool size; otherwise defSize applies when non-zero, then the standard
// size for the system (2 GB interleaved Optane, 1 GB otherwise).
func scenarioNS(r *harness.ParamReader, defSize int64) (*platform.Namespace, error) {
	system := r.Str("system", "optane")
	size := r.Int64("nssize", defSize)
	channel := r.Int("channel", 0)
	wear := r.Bool("wear", false)
	var cfg platform.Config
	if r.Str("platform", "default") == "pmep" {
		cfg = platform.PMEPConfig()
	} else {
		cfg = platform.DefaultConfig()
	}
	cfg.XP.Wear.Enabled = wear
	p := platform.MustNew(cfg)
	switch system {
	case "dram":
		if size == 0 {
			size = 1 << 30
		}
		return p.DRAM("pm", 0, size)
	case "optane":
		if size == 0 {
			size = 2 << 30
		}
		return p.Optane("pm", 0, size)
	case "optane-ni":
		if size == 0 {
			size = 1 << 30
		}
		return p.OptaneNI("pm", 0, channel, size)
	default:
		return nil, fmt.Errorf("unknown system %q", system)
	}
}

func runKernel(spec harness.Spec) (harness.Trial, error) {
	r := harness.NewParamReader(spec.Params)
	op, opErr := parseOp(r.Str("op", "read"))
	pat, patErr := parsePattern(r.Str("pattern", "seq"))
	size := r.Int("size", 256)
	region := r.Int64("region", 0)
	delay := sim.Time(r.Int64("delay_ns", 0)) * sim.Nanosecond
	fence64 := r.Bool("fence64", false)
	latency := r.Bool("latency", false)
	var mix *workload.Mix
	var mixErr error
	if m := r.Str("mix", ""); m != "" {
		mix, mixErr = parseMix(m)
	}
	ns, nsErr := scenarioNS(r, 0)
	for _, err := range []error{opErr, patErr, mixErr, nsErr, r.Err()} {
		if err != nil {
			return harness.Trial{}, err
		}
	}
	defer ns.Platform().Close()
	res := Run(Spec{
		NS: ns, Socket: spec.Socket, Op: op, Pattern: pat,
		AccessSize: size, Threads: spec.Threads, PerThreadRegion: region,
		Duration: spec.Duration, Warmup: spec.Warmup, Delay: delay,
		Mix: mix, FencePerLine: fence64, RecordLatency: latency,
		Seed: spec.Seed,
	})
	return harness.Trial{
		Bytes:   res.Bytes,
		Ops:     res.Bytes / int64(res.Spec.AccessSize),
		Sim:     res.Elapsed,
		Metrics: map[string]float64{"ewr": res.EWR()},
		Latency: res.Latency,
	}, nil
}

func runIdleLatency(spec harness.Spec) (harness.Trial, error) {
	r := harness.NewParamReader(spec.Params)
	op, opErr := parseOp(r.Str("op", "read"))
	pat, patErr := parsePattern(r.Str("pattern", "seq"))
	// Figure 2 measures on a 1 GB pool regardless of system.
	ns, nsErr := scenarioNS(r, 1<<30)
	for _, err := range []error{opErr, patErr, nsErr, r.Err()} {
		if err != nil {
			return harness.Trial{}, err
		}
	}
	defer ns.Platform().Close()
	sum := IdleLatency(IdleLatencySpec{
		NS: ns, Socket: spec.Socket, Op: op, Pattern: pat,
		Ops: spec.Ops, Seed: spec.Seed,
	})
	return harness.Trial{
		Ops: sum.N(),
		Metrics: map[string]float64{
			"mean_ns": sum.Mean(), "std_ns": sum.Std(),
			"min_ns": sum.Min(), "max_ns": sum.Max(),
		},
	}, nil
}

func runTailLatency(spec harness.Spec) (harness.Trial, error) {
	r := harness.NewParamReader(spec.Params)
	hotspot := r.Int64("hotspot", 256)
	wear := r.Bool("wear", true)
	if err := r.Err(); err != nil {
		return harness.Trial{}, err
	}
	cfg := platform.DefaultConfig()
	cfg.XP.Wear.Enabled = wear
	p := platform.MustNew(cfg)
	defer p.Close()
	ns, err := p.Optane("pm", 0, 1<<30)
	if err != nil {
		return harness.Trial{}, err
	}
	hist := TailLatency(TailSpec{NS: ns, Hotspot: hotspot, Ops: spec.Ops, Seed: spec.Seed})
	return harness.Trial{Ops: hist.Count(), Latency: hist}, nil
}

func runSfenceInterval(spec harness.Spec) (harness.Trial, error) {
	r := harness.NewParamReader(spec.Params)
	size := r.Int("size", 256)
	total := r.Int64("total", 0)
	var mode SfenceMode
	switch m := r.Str("mode", "clwb64"); m {
	case "clwb64":
		mode = CLWBEveryLine
	case "clwb":
		mode = CLWBAfterWrite
	case "ntstore":
		mode = NTStoreMode
	default:
		return harness.Trial{}, fmt.Errorf("unknown sfence mode %q", m)
	}
	if err := r.Err(); err != nil {
		return harness.Trial{}, err
	}
	p, ns := NewNIPlatform(false)
	defer p.Close()
	gbs := SfenceInterval(SfenceIntervalSpec{NS: ns, WriteSize: size, Mode: mode, Total: total})
	return harness.Trial{GBs: gbs}, nil
}

func runSpread(spec harness.Spec) (harness.Trial, error) {
	r := harness.NewParamReader(spec.Params)
	dimms := r.Int("dimms_each", 1)
	size := r.Int("size", 1024)
	write := r.Bool("write", true)
	if err := r.Err(); err != nil {
		return harness.Trial{}, err
	}
	cfg := platform.DefaultConfig()
	cfg.XP.Wear.Enabled = false
	p := platform.MustNew(cfg)
	defer p.Close()
	ns, err := p.Optane("pm", 0, 2<<30)
	if err != nil {
		return harness.Trial{}, err
	}
	gbs := Spread(SpreadSpec{
		NS: ns, Threads: spec.Threads, DIMMsEach: dimms, AccessSize: size,
		Write: write, Duration: spec.Duration, Seed: spec.Seed,
	})
	return harness.Trial{GBs: gbs}, nil
}

func runRegionProbe(spec harness.Spec) (harness.Trial, error) {
	r := harness.NewParamReader(spec.Params)
	lines := r.Int64("lines", 256)
	rounds := r.Int("rounds", 3)
	if err := r.Err(); err != nil {
		return harness.Trial{}, err
	}
	p, ns := NewNIPlatform(false)
	defer p.Close()
	wa := RegionProbe(ns, lines, rounds)
	return harness.Trial{
		Ops:     lines * 2 * int64(rounds),
		Metrics: map[string]float64{"wa": wa},
	}, nil
}
