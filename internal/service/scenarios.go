package service

import (
	"cmp"
	"fmt"
	"maps"
	"strings"

	"optanestudy/internal/harness"
	"optanestudy/internal/hottier"
	"optanestudy/internal/sim"
	"optanestudy/internal/telemetry"
)

// Harness scenarios. Single load points register as "service/kv/pmemkv"
// and "service/kv/lsmkv"; load sweeps ("service/kv/sweep-*") step offered
// load across a grid of point trials and emit the throughput-latency
// curve, with "sweep-contention" repeating the grid per worker count
// against a single-DIMM pool — the paper's threads-per-DIMM best practice
// as a serving experiment.
func init() {
	harness.Register(harness.Scenario{
		Name: "service/kv/pmemkv",
		Doc:  "open-loop GET/PUT/SCAN serving against the pmemkv cmap",
		Defaults: harness.Defaults{
			Threads: 8, Duration: 400 * sim.Microsecond, Seed: 23,
			Params: map[string]string{"backend": "pmemkv"},
		},
		Run: runPoint,
	})
	harness.Register(harness.Scenario{
		Name: "service/kv/lsmkv",
		Doc:  "open-loop GET/PUT/SCAN serving against the lsmkv store",
		Defaults: harness.Defaults{
			Threads: 4, Duration: 4 * sim.Millisecond, Seed: 24,
			Params: map[string]string{"backend": "lsmkv", "offered": "150"},
		},
		Run: runPoint,
	})
	// The scan preset exercises the redesigned Backend interface: lsmkv
	// serves SCANs natively (one sorted memtable + SST merge walk instead
	// of ScanLen point lookups) and a small DELETE fraction writes
	// tombstones through the blind-delete path.
	harness.Register(harness.Scenario{
		Name: "service/kv/lsmkv-scan",
		Doc:  "open-loop serving with native sorted-range SCANs and tombstone DELETEs on lsmkv",
		Defaults: harness.Defaults{
			Threads: 4, Duration: 2 * sim.Millisecond, Seed: 26,
			Params: map[string]string{
				"backend": "lsmkv", "offered": "150", "scanmode": "native",
				"get": "0.5", "put": "0.2", "scan": "0.25", "del": "0.05",
			},
		},
		Run: runPoint,
	})
	harness.Register(harness.Scenario{
		Name: "service/kv/sweep-pmemkv",
		Doc:  "pmemkv throughput-vs-latency curve across an offered-load grid",
		Defaults: harness.Defaults{
			Threads: 8, Duration: 300 * sim.Microsecond, Seed: 33,
			Params: map[string]string{
				"backend": "pmemkv",
				"minkops": "2000", "maxkops": "44000", "points": "7",
			},
		},
		Run: runSweepScenario,
	})
	harness.Register(harness.Scenario{
		Name: "service/kv/sweep-lsmkv",
		Doc:  "lsmkv throughput-vs-latency curve across an offered-load grid",
		Defaults: harness.Defaults{
			Threads: 4, Duration: 2 * sim.Millisecond, Seed: 34,
			Params: map[string]string{
				"backend": "lsmkv",
				"minkops": "100", "maxkops": "700", "points": "5",
			},
		},
		Run: runSweepScenario,
	})
	// The contention preset journals sub-XPLine (128 B) records per worker
	// onto one DIMM: each worker is a sequential write stream whose
	// partially-filled XPLines stay open between requests, so once the
	// worker count exceeds the controller's combining capacity the streams
	// close each other's lines early, EWR collapses, and saturation
	// arrives at a lower offered load with 16 workers than with 4 — the
	// paper's threads-per-DIMM limit as a serving experiment.
	harness.Register(harness.Scenario{
		Name: "service/kv/sweep-contention",
		Doc:  "per-worker-count saturation curves on a single DIMM (threads-per-DIMM limit)",
		Defaults: harness.Defaults{
			Threads: 4, Duration: 300 * sim.Microsecond, Seed: 35,
			Params: map[string]string{
				"backend": "pmemkv", "media": "optane-ni",
				"putlog": "1", "keysize": "8", "valsize": "112",
				"get": "0.3", "put": "0.7", "scan": "0",
				"minkops": "3000", "maxkops": "21000", "points": "7",
				"threadgrid": "4,16",
			},
		},
		Run: runSweepScenario,
	})
	// The batch family turns group commit on: workers drain up to `batch`
	// admitted requests per wakeup and journal the group's PUTs through
	// ONE fence (lingering up to `linger` ns to fill short batches), the
	// write-behind shape of van Renen et al.'s buffered log primitives.
	// The point scenario reports the fence-amortization counters
	// (pmem_fence_per_op well below 1); the sweep repeats the
	// single-DIMM contention grid at depths 1/8/32, where the depth-1 leg
	// is byte-identical to an unbatched sweep and the deeper legs shift
	// the saturation knee right.
	harness.Register(harness.Scenario{
		Name: "service/batch/point",
		Doc:  "group-commit dispatch at one load level: batched drain, one fence per batch",
		Defaults: harness.Defaults{
			Threads: 4, Duration: 300 * sim.Microsecond, Seed: 36,
			Params: map[string]string{
				"backend": "pmemkv", "media": "optane-ni",
				"putlog": "1", "keysize": "8", "valsize": "112",
				"get": "0.3", "put": "0.7", "scan": "0",
				"offered": "15000", "batch": "8", "linger": "1000",
			},
		},
		Run: runPoint,
	})
	// The cache family puts the DRAM hot tier in front of the PM backend:
	// a read-heavy Zipf mix over a keyspace much larger than the
	// (deliberately shrunk) LLC, so GETs that the tier absorbs run at DRAM
	// latency while misses pay the 3D XPoint read path. The sweep repeats
	// the load grid per tier size (cachegrid, @c<N> suffixes, size-0 leg
	// byte-identical to an uncached sweep) and the memmode point runs the
	// competing configuration: the same DRAM budget spent as the memory
	// controller's near cache instead of a software record tier.
	harness.Register(harness.Scenario{
		Name: "service/cache/point",
		Doc:  "read-heavy Zipf serving with a DRAM hot tier fronting pmemkv",
		Defaults: harness.Defaults{
			Threads: 8, Duration: 400 * sim.Microsecond, Seed: 41,
			Params: map[string]string{
				"backend": "pmemkv", "mix": "zipf",
				"keys": "2000", "valsize": "128", "llckb": "16",
				"get": "0.95", "put": "0.05", "scan": "0",
				"offered": "8000", "cache": "262144",
			},
		},
		Run: runPoint,
	})
	harness.Register(harness.Scenario{
		Name: "service/cache/memmode",
		Doc:  "the same DRAM budget as Memory-Mode: hardware near cache instead of a software hot tier",
		Defaults: harness.Defaults{
			Threads: 8, Duration: 400 * sim.Microsecond, Seed: 41,
			Params: map[string]string{
				"tier": "memmode", "mix": "zipf",
				"keys": "2000", "valsize": "128", "llckb": "16",
				"get": "0.95", "put": "0.05", "scan": "0",
				"offered": "8000", "cache": "262144",
			},
		},
		Run: runPoint,
	})
	harness.Register(harness.Scenario{
		Name: "service/cache/sweep",
		Doc:  "saturation curves per DRAM tier size on a read-heavy Zipf mix (knee vs cache size)",
		Defaults: harness.Defaults{
			Threads: 8, Duration: 300 * sim.Microsecond, Seed: 42,
			Params: map[string]string{
				"backend": "pmemkv", "mix": "zipf",
				"keys": "2000", "valsize": "128", "llckb": "16",
				"get": "0.95", "put": "0.05", "scan": "0",
				"minkops": "4000", "maxkops": "28000", "points": "7",
				"cachegrid": "0,65536,524288",
			},
		},
		Run: runSweepScenario,
	})
	harness.Register(harness.Scenario{
		Name: "service/cache/sweep-hotspot",
		Doc:  "tier sizes under a shifting hotspot: the moving working set churns the tier",
		Defaults: harness.Defaults{
			Threads: 8, Duration: 300 * sim.Microsecond, Seed: 43,
			Params: map[string]string{
				"backend": "pmemkv", "mix": "hotspot",
				"hotfrac": "0.9", "hotkeys": "200", "hotperiod": "400",
				"keys": "2000", "valsize": "128", "llckb": "16",
				"get": "0.95", "put": "0.05", "scan": "0",
				"minkops": "4000", "maxkops": "28000", "points": "7",
				"cachegrid": "0,524288",
			},
		},
		Run: runSweepScenario,
	})
	harness.Register(harness.Scenario{
		Name: "service/batch/sweep",
		Doc:  "group-commit saturation curves at batch depths 1/8/32 on a single DIMM",
		Defaults: harness.Defaults{
			Threads: 4, Duration: 300 * sim.Microsecond, Seed: 35,
			Params: map[string]string{
				"backend": "pmemkv", "media": "optane-ni",
				"putlog": "1", "keysize": "8", "valsize": "112",
				"get": "0.3", "put": "0.7", "scan": "0",
				"minkops": "3000", "maxkops": "21000", "points": "7",
				"batchgrid": "1,8,32", "batchlinger": "1000",
			},
		},
		Run: runSweepScenario,
	})
}

// runPoint measures one open-loop load level on a single node: one
// backend, behind a hot tier or on a Memory-Mode near cache, and one
// append log, served on Serve's flat fields. It stays off the sharded
// path because flat dispatch draws each key after admission, and every
// single-node result depends on that RNG order.
func runPoint(spec harness.Spec) (harness.Trial, error) {
	return RunPoint(spec, harness.NewParamReader(spec.Params), func(fs FabricSpec, cfg *Config) (*Fabric, error) {
		backend, bs := fs.Backend, fs.BackendSpec
		if fs.Tier == "memmode" {
			backend, bs.NearBytes = "memmode", fs.Cache.CapacityBytes
		}
		be, err := NewBackend(fs.Platform, backend, bs)
		if err != nil {
			return nil, err
		}
		f := &Fabric{Workers: spec.Threads}
		if fs.Tier == "hot" {
			tc := fs.Cache
			tc.Name, tc.Socket = "svc", spec.Socket
			tier, err := hottier.New(fs.Platform, be, tc)
			if err != nil {
				return nil, err
			}
			be, f.Cache = tier, tier.Counters
		}
		if mb, ok := be.(*memModeBackend); ok {
			f.Near = mb.Stats()
		}
		var plog *AppendLog
		if fs.PutLog {
			plog, err = NewAppendLog(fs.Platform, BackendSpec{Media: bs.Media}, spec.Threads, fs.LogRegion)
			if err != nil {
				return nil, err
			}
		}
		cfg.Backend, cfg.Workers, cfg.QueueCap, cfg.PutLog = be, spec.Threads, fs.QueueCap, plog
		return f, nil
	})
}

// runSweepScenario fans a load grid out over point trials, one curve per
// sweep leg (see Legs): worker counts, group-commit depths, tier sizes.
// Grid params are consumed here; everything else, the policy and fault
// grids included, passes through to the point scenario verbatim, whose
// reader catches typos.
func runSweepScenario(spec harness.Spec) (harness.Trial, error) {
	rest := maps.Clone(spec.Params)
	minKops, maxKops, pointsF, err := GridParams(rest, 1000, 16000, 6)
	if err != nil {
		return harness.Trial{}, err
	}
	legs, err := Legs(rest, spec.Threads, "threadgrid", "batchgrid", "cachegrid")
	if err != nil {
		return harness.Trial{}, err
	}
	backend := cmp.Or(rest["backend"], "pmemkv")

	tr := harness.Trial{Metrics: make(map[string]float64)}
	var trace *telemetry.Trace
	var text strings.Builder
	for _, leg := range legs {
		curve, err := RunSweep(SweepConfig{
			Backend: backend, Params: leg.Params,
			Threads: leg.Threads, Duration: spec.Duration, Warmup: spec.Warmup,
			Seed:    spec.Seed,
			MinKops: minKops, MaxKops: maxKops, Points: int(pointsF),
			Parallel: spec.Parallel,
			Trace:    spec.Trace,
		})
		if err != nil {
			return harness.Trial{}, err
		}
		trace = MergeCurveTrace(trace, curve, leg.Suffix)
		EmitCurve(&tr, curve, leg.Suffix)
		// Cached legs add their curve-level cache readout (hit rate at the
		// deepest load, where the tier is warmest, plus the knee's p50);
		// uncached legs emit nothing extra, keeping them byte-identical to
		// a sweep without the cache axis.
		if _, ok := leg.On["cache"]; ok {
			tr.Metrics["cache_hit_rate"+leg.Suffix] = curve[len(curve)-1].Metrics["cache_hit_rate"]
			tr.Metrics["p50_knee_ns"+leg.Suffix] = curve[curve.KneeIndex()].P50
		}
		text.WriteString(curve.TSV(fmt.Sprintf("service sweep: %s, %d workers%s", backend, leg.Threads, leg.Title)))
		text.WriteByte('\n')
	}
	tr.Text = strings.TrimRight(text.String(), "\n")
	tr.Trace = trace
	return tr, nil
}

// MergeCurveTrace folds a traced curve's per-point recordings into one
// trial-level trace, relabelling each run with its grid coordinate (and
// the sweep leg's metric suffix) so a renderer can tell the points apart.
// Returns trace unchanged on untraced sweeps. Shared with the cluster
// sweep scenario.
func MergeCurveTrace(trace *telemetry.Trace, curve Curve, suffix string) *telemetry.Trace {
	for _, pt := range curve {
		if pt.Trace == nil {
			continue
		}
		if trace == nil {
			trace = &telemetry.Trace{}
		}
		for _, rn := range pt.Trace.Runs {
			rn.Label = fmt.Sprintf("offered=%g%s", pt.OfferedKops, suffix)
			trace.Runs = append(trace.Runs, rn)
		}
	}
	return trace
}
