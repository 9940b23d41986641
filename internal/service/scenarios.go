package service

import (
	"cmp"
	"fmt"
	"maps"
	"strings"

	"optanestudy/internal/devstat"
	"optanestudy/internal/harness"
	"optanestudy/internal/hottier"
	"optanestudy/internal/platform"
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

// runPoint measures one open-loop load level.
func runPoint(spec harness.Spec) (harness.Trial, error) {
	r := harness.NewParamReader(spec.Params)
	backend := r.Str("backend", "pmemkv")
	media := r.Str("media", "optane")
	mode := r.Str("mode", "wal-flex")
	arrival := r.Str("arrival", "poisson")
	offered := r.Float("offered", 4000) // kops
	cycleUS := r.Float("cycle", 20)
	onFrac := r.Float("onfrac", 0.25)
	tenants := r.Int("tenants", 2)
	theta := r.Float("theta", 0.99)
	mix := r.Str("mix", "split")
	hotFrac := r.Float("hotfrac", 0.9)
	hotKeys := r.Int64("hotkeys", 0)
	hotPeriod := r.Int64("hotperiod", 2000)
	keys := r.Int64("keys", 200)
	keySize := r.Int("keysize", 16)
	valSize := r.Int("valsize", 128)
	getFrac := r.Float("get", 0.75)
	putFrac := r.Float("put", 0.2)
	scanFrac := r.Float("scan", 0.05)
	delFrac := r.Float("del", 0)
	scanLen := r.Int("scanlen", 16)
	scanMode := r.Str("scanmode", "emulate")
	putlog := r.Bool("putlog", false)
	qcap := r.Int("qcap", 0)
	pollNS := r.Float("poll", 200)
	batch := r.Int("batch", 1)
	lingerNS := r.Float("linger", 0)
	pmBytes := r.Int64("pmbytes", 0)
	dramBytes := r.Int64("drambytes", 0)
	cacheBytes := r.Int64("cache", 0)
	quotaBytes := r.Int64("quota", 0)
	admit := r.Int("admit", 1)
	evict := r.Str("evict", "clock")
	tierKind := r.Str("tier", "")
	llcKB := r.Int64("llckb", 0)
	devOn := r.Bool("devstat", false)
	if err := r.Err(); err != nil {
		return harness.Trial{}, err
	}
	switch tierKind {
	case "":
		if cacheBytes > 0 {
			tierKind = "hot"
		}
	case "hot":
		if cacheBytes <= 0 {
			return harness.Trial{}, fmt.Errorf("service: tier=hot needs a positive cache size, got %d", cacheBytes)
		}
	case "memmode":
		if cacheBytes <= 0 {
			return harness.Trial{}, fmt.Errorf("service: tier=memmode needs a positive cache (near-DRAM) size, got %d", cacheBytes)
		}
	default:
		return harness.Trial{}, fmt.Errorf("service: unknown tier %q (want hot or memmode)", tierKind)
	}
	if cacheBytes < 0 {
		return harness.Trial{}, fmt.Errorf("service: cache must be >= 0, got %d", cacheBytes)
	}
	if llcKB < 0 {
		return harness.Trial{}, fmt.Errorf("service: llckb must be >= 0, got %d", llcKB)
	}
	if batch < 1 {
		return harness.Trial{}, fmt.Errorf("service: batch size must be >= 1, got %d", batch)
	}
	if lingerNS < 0 {
		return harness.Trial{}, fmt.Errorf("service: linger must be >= 0 ns, got %g", lingerNS)
	}
	var nativeScan bool
	switch scanMode {
	case "native":
		nativeScan = true
	case "emulate":
	default:
		return harness.Trial{}, fmt.Errorf("service: unknown scanmode %q (want emulate or native)", scanMode)
	}
	if offered <= 0 {
		return harness.Trial{}, fmt.Errorf("service: offered load must be positive, got %g", offered)
	}
	if tenants < 1 {
		return harness.Trial{}, fmt.Errorf("service: need at least one tenant, got %d", tenants)
	}

	cfg := platform.DefaultConfig()
	cfg.TrackData = true
	cfg.XP.Wear.Enabled = false
	if llcKB > 0 {
		// Cache scenarios shrink the LLC so the working set actually lives
		// beyond it: with the calibrated 12 MB LLC, a small keyspace becomes
		// LLC-resident after warmup and a DRAM tier would measure nothing.
		cfg.LLC.Lines = int(llcKB << 10 / 64)
	}
	p := platform.MustNew(cfg)
	defer p.Close()

	bspec := BackendSpec{
		Media: media, Mode: mode,
		Keys: int64(tenants) * keys, KeySize: keySize, ValSize: valSize,
		PMBytes: pmBytes, DRAMBytes: dramBytes,
		ScanSpan: keys, NativeScan: nativeScan,
	}
	if tierKind == "memmode" {
		backend = "memmode"
		bspec.NearBytes = cacheBytes
	}
	be, err := NewBackend(p, backend, bspec)
	if err != nil {
		return harness.Trial{}, err
	}
	var hotTier *hottier.Tier
	if tierKind == "hot" {
		hotTier, err = hottier.New(p, be, hottier.Config{
			Name: "svc", Socket: spec.Socket,
			CapacityBytes: cacheBytes, RecordBytes: valSize,
			Admit: admit, Policy: evict,
			TenantSpan: keys, QuotaBytes: quotaBytes,
			Seed: spec.Seed ^ 0x407C,
		})
		if err != nil {
			return harness.Trial{}, err
		}
		be = hotTier
	}
	arr, err := NewArrival(arrival, offered*1e3, sim.Micros(cycleUS), onFrac, spec.Seed^0x5A17)
	if err != nil {
		return harness.Trial{}, err
	}
	var plog *AppendLog
	if putlog {
		region := int64(2 << 20)
		if rec := int64(8 + keySize + valSize); region < 4*rec {
			region = 4 * rec // oversized records: keep several per wrap
		}
		plog, err = NewAppendLog(p, BackendSpec{Media: media}, spec.Threads, region)
		if err != nil {
			return harness.Trial{}, err
		}
	}
	if hotKeys == 0 {
		hotKeys = keys/20 + 1
	}
	tens := make([]Tenant, tenants)
	for i := range tens {
		tens[i] = Tenant{Name: fmt.Sprintf("t%d", i)}
		switch mix {
		case "zipf":
			tens[i].Theta = theta
		case "uniform":
		case "split":
			// Even tenants are Zipf-skewed, odd tenants uniform.
			if i%2 == 0 {
				tens[i].Theta = theta
			}
		case "hotspot":
			// Every tenant draws from its own shifting hot window.
			tens[i].HotFrac = hotFrac
			tens[i].HotKeys = hotKeys
			tens[i].HotPeriod = hotPeriod
		default:
			return harness.Trial{}, fmt.Errorf("service: unknown key mix %q (want zipf, uniform, split or hotspot)", mix)
		}
	}
	mb, isMemMode := be.(*memModeBackend)
	var rec *telemetry.Recorder
	var cacheStats func() (int64, int64)
	if spec.Trace {
		rec = telemetry.NewRecorder(TraceInterval(spec.Duration), 0)
		if plog != nil {
			rec.AddProbe(func(add func(string, float64)) {
				c := plog.Counters()
				c.Gauges(add)
			})
		}
		AddDeviceProbes(rec, p)
		switch {
		case hotTier != nil:
			rec.AddProbe(func(add func(string, float64)) { hotTier.Counters().Gauges(add) })
			cacheStats = func() (int64, int64) {
				c := hotTier.Counters()
				return c.Hits, c.Misses
			}
		case isMemMode:
			rec.AddProbe(func(add func(string, float64)) {
				hits, misses, writebacks := mb.Stats().Stats()
				add("cache_hits", float64(hits))
				add("cache_misses", float64(misses))
				add("memmode_writebacks", float64(writebacks))
			})
			cacheStats = func() (int64, int64) {
				hits, misses, _ := mb.Stats().Stats()
				return hits, misses
			}
		}
	}
	// The devstat watcher captures device-counter snapshots at the measured
	// window's boundaries on its own read-only proc — it observes the run
	// without the serving layer knowing, so results are unchanged.
	var dw *devstat.Watcher
	if devOn {
		dw = devstat.Watch(p, spec.Socket, spec.Warmup, spec.Duration)
	}
	res, err := Serve(Config{
		Platform: p, Backend: be,
		Socket: spec.Socket, Workers: spec.Threads, QueueCap: qcap,
		Arrival: arr, Tenants: tens,
		Keys: keys, KeySize: keySize, ValSize: valSize,
		GetFrac: getFrac, PutFrac: putFrac, ScanFrac: scanFrac, DelFrac: delFrac,
		ScanLen:  scanLen,
		PutLog:   plog,
		Duration: spec.Duration, Warmup: spec.Warmup,
		Poll: sim.Nanos(pollNS), Seed: spec.Seed,
		BatchSize: batch, BatchLinger: sim.Nanos(lingerNS),
		Recorder: rec, CacheStats: cacheStats,
	})
	if err != nil {
		return harness.Trial{}, err
	}

	qs := res.Latency.Quantiles([]float64{0.5, 0.95, 0.99, 0.999})
	m := map[string]float64{
		"offered_kops":  res.OfferedRate / 1e3,
		"achieved_kops": res.AchievedRate / 1e3,
		"drop_frac":     dropFrac(res.Dropped, res.Offered),
		"p50_ns":        qs[0],
		"p95_ns":        qs[1],
		"p99_ns":        qs[2],
		"p999_ns":       qs[3],
		"util":          res.Utilization(spec.Threads),
		"qmax":          float64(res.MaxQueueLen),
	}
	for i := range res.Tenants {
		t := &res.Tenants[i]
		m[fmt.Sprintf("t%d_p99_ns", i)] = t.Latency.Percentile(0.99)
		m[fmt.Sprintf("t%d_drop_frac", i)] = dropFrac(t.Dropped, t.Offered)
		// Per-tenant shed accounting appears once the run actually sheds,
		// keeping the light-load baseline scenarios' output byte-stable
		// while skewed overload runs show who gets dropped. The gate
		// depends only on the result, never on the schedule.
		harness.GateMetric(m, res.Dropped > 0, fmt.Sprintf("t%d_shed_ops", i), float64(t.Dropped))
	}
	// Fence-amortization readout, gated on the batch path actually being
	// on so the batch=1 default keeps every pre-existing scenario's output
	// byte-stable (group-commit counters would otherwise add keys).
	harness.GateMetrics(m, batch > 1 && plog != nil, func(m map[string]float64) {
		c := plog.Counters()
		c.Metrics(m)
	})
	// Cache-tier readout, gated the same way: only runs with an explicit
	// DRAM tier (software hot tier or Memory-Mode near cache) emit the
	// cache_* keys, so every pre-existing scenario stays byte-stable.
	harness.GateMetrics(m, hotTier != nil, func(m map[string]float64) {
		hotTier.Counters().Metrics(m)
	})
	// Device-health readout, gated on the devstat param: absent (the
	// default) the run emits zero dev_* keys, so every pre-existing
	// scenario's output stays byte-identical under the neutrality guard.
	harness.GateMetrics(m, dw != nil, func(m map[string]float64) {
		dw.Window().Metrics(m)
	})
	harness.GateMetrics(m, hotTier == nil && isMemMode, func(m map[string]float64) {
		hits, misses, writebacks := mb.Stats().Stats()
		m["cache_hits"] = float64(hits)
		m["cache_misses"] = float64(misses)
		m["cache_evictions"] = float64(mb.Stats().Evictions())
		if hits+misses > 0 {
			m["cache_hit_rate"] = float64(hits) / float64(hits+misses)
		} else {
			m["cache_hit_rate"] = 0
		}
		m["memmode_writebacks"] = float64(writebacks)
	})
	tr := harness.Trial{
		Ops:     res.Completed,
		Sim:     res.Window,
		Latency: res.Latency,
		Metrics: m,
	}
	if rec != nil {
		run := rec.Finish("")
		run.Metrics(m)
		tr.Trace = &telemetry.Trace{Runs: []*telemetry.Run{run}}
	}
	return tr, nil
}

func dropFrac(dropped, offered int64) float64 {
	if offered == 0 {
		return 0
	}
	return float64(dropped) / float64(offered)
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
