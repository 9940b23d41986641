package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"optanestudy/internal/devstat"
	"optanestudy/internal/fault"
	"optanestudy/internal/harness"
	"optanestudy/internal/platform"
	"optanestudy/internal/pmem"
	"optanestudy/internal/service"
	"optanestudy/internal/sim"
	"optanestudy/internal/stats"
	"optanestudy/internal/telemetry"
)

// Harness scenarios. "cluster/point" measures one load level through the
// sharded fabric (spec.Threads is the requested per-shard pool); the
// "cluster/sweep-*" presets step offered load per placement policy and
// emit the throughput-latency curve, knee and saturation — local-packed,
// interleaved and numa-blind on the common two-shard layout, and
// sweep-capped racing the §5.3 worker cap against an uncapped pool on a
// single-DIMM-heavy layout. "cluster/hotspot" drives a shifting hot range
// through block routing so load piles onto one shard at a time.
func init() {
	harness.Register(harness.Scenario{
		Name: "cluster/point",
		Doc:  "one open-loop load level through the sharded, placement-pinned serving fabric",
		Defaults: harness.Defaults{
			Threads: 4, Duration: 300 * sim.Microsecond, Seed: 51,
			Params: map[string]string{"policy": PolicyLocalPacked, "offered": "8000"},
		},
		Run: runClusterPoint,
	})
	harness.Register(harness.Scenario{
		Name: "cluster/hotspot",
		Doc:  "shifting-hotspot skew under block routing: load concentrates on one shard at a time",
		Defaults: harness.Defaults{
			Threads: 2, Duration: 400 * sim.Microsecond, Seed: 57,
			Params: map[string]string{
				"policy": PolicyLocalPacked, "shards": "4", "span": "500",
				"tenants": "2", "keys": "2000", "mix": "hotsplit",
				"hotkeys": "150", "hotperiod": "4000", "hotfrac": "0.95",
				"offered": "9000", "qcap": "24",
			},
		},
		Run: runClusterPoint,
	})
	sweepDefaults := func(policy string, seed uint64) harness.Defaults {
		return harness.Defaults{
			Threads: 4, Duration: 300 * sim.Microsecond, Seed: seed,
			Params: map[string]string{
				"policy": policy, "shards": "2",
				"get": "0.5", "put": "0.5", "scan": "0",
				"minkops": "2000", "maxkops": "34000", "points": "7",
			},
		}
	}
	harness.Register(harness.Scenario{
		Name:     "cluster/sweep-local-packed",
		Doc:      "throughput-latency curve: shards packed on the client socket, DIMMs partitioned",
		Defaults: sweepDefaults(PolicyLocalPacked, 52),
		Run:      runClusterSweep,
	})
	harness.Register(harness.Scenario{
		Name:     "cluster/sweep-interleaved",
		Doc:      "throughput-latency curve: every shard striped across all client-socket DIMMs",
		Defaults: sweepDefaults(PolicyInterleaved, 53),
		Run:      runClusterSweep,
	})
	harness.Register(harness.Scenario{
		Name:     "cluster/sweep-numa-blind",
		Doc:      "throughput-latency curve: shard data round-robined across sockets, workers unpinned",
		Defaults: sweepDefaults(PolicyNUMABlind, 54),
		Run:      runClusterSweep,
	})
	// The capped preset builds the single-DIMM-heavy layout of the §5.3
	// experiment — every shard on one DIMM, 16 write-behind log streams
	// requested per shard — and races the capped policy against the same
	// layout uncapped.
	harness.Register(harness.Scenario{
		Name: "cluster/sweep-capped",
		Doc:  "threads-per-DIMM cap vs uncapped 16-worker pools on single-DIMM shards",
		Defaults: harness.Defaults{
			Threads: 16, Duration: 300 * sim.Microsecond, Seed: 55,
			Params: map[string]string{
				"policygrid": PolicyCapped + "," + PolicyLocalPacked,
				"shards":     "2", "dimms": "1", "capdimm": "4",
				"putlog": "1", "keysize": "8", "valsize": "112",
				"get": "0.3", "put": "0.7", "scan": "0",
				"minkops": "6000", "maxkops": "42000", "points": "7",
			},
		},
		Run: runClusterSweep,
	})
	// The batch preset repeats the capped single-DIMM layout at group-commit
	// depths 1/8/32: the depth-1 leg reproduces the unbatched curve
	// byte-identically (no batch params are injected for it, so its point
	// specs and seeds are unchanged), while the deeper legs amortize the
	// per-PUT fence across the drained group — fences/op drops toward
	// 1/depth and the saturation knee moves to higher offered load, at the
	// price of up to `batchlinger` ns of added latency at light load.
	harness.Register(harness.Scenario{
		Name: "cluster/sweep-batch",
		Doc:  "group-commit depth sweep (1/8/32) on the capped single-DIMM layout",
		Defaults: harness.Defaults{
			Threads: 16, Duration: 300 * sim.Microsecond, Seed: 55,
			Params: map[string]string{
				"policy": PolicyCapped,
				"shards": "2", "dimms": "1", "capdimm": "4",
				"putlog": "1", "keysize": "8", "valsize": "112",
				"get": "0.3", "put": "0.7", "scan": "0",
				"minkops": "6000", "maxkops": "42000", "points": "7",
				"batchgrid": "1,8,32", "batchlinger": "1000",
			},
		},
		Run: runClusterSweep,
	})
	// The cache preset fronts each shard's replica with a per-shard DRAM hot
	// tier on the shard's worker socket and repeats a read-heavy Zipf sweep
	// with the tier off and on. The cache-0 leg injects no cache params, so
	// its point specs and seeds reproduce the uncached curve byte-identically;
	// the cached leg serves repeat GETs from DRAM and moves the knee to
	// higher offered load. llckb shrinks the simulated LLC so the small
	// keyspace is not already LLC-resident (which would hide the tier).
	harness.Register(harness.Scenario{
		Name: "cluster/sweep-cache",
		Doc:  "per-shard DRAM hot tier off/on over a read-heavy Zipf sweep",
		Defaults: harness.Defaults{
			Threads: 8, Duration: 300 * sim.Microsecond, Seed: 56,
			Params: map[string]string{
				"policy": PolicyLocalPacked, "shards": "2",
				"tenants": "2", "keys": "2000", "valsize": "128",
				"mix": "zipf", "llckb": "16",
				"get": "0.95", "put": "0.05", "scan": "0",
				"minkops": "4000", "maxkops": "28000", "points": "7",
				"cachegrid": "0,524288",
			},
		},
		Run: runClusterSweep,
	})
	// The failover family replicates every shard (standby backend + ship
	// log on the next socket) and injects deterministic faults mid-window.
	// The point preset crashes one primary and measures the failover
	// (detect → promote-from-shipped-log → drain); the sweep races the
	// fault-free curve against the crash-injected one (the none leg
	// injects no fault params, so it reproduces an uninjected replicated-
	// less sweep byte-identically); churn cycles standby leave/join and
	// measures the exposure (records a promotion would lose).
	harness.Register(harness.Scenario{
		Name: "cluster/failover/point",
		Doc:  "mid-window primary crash on a replicated shard: detect, promote from the shipped log, drain",
		Defaults: harness.Defaults{
			Threads: 4, Duration: 300 * sim.Microsecond, Seed: 58,
			Params: map[string]string{
				"policy": PolicyLocalPacked, "shards": "2", "putlog": "1",
				"replicate": "1", "fault": "crash",
				"faultshard": "0", "faultat": "0.4", "detect": "2000",
				"get": "0.5", "put": "0.5", "scan": "0",
				"offered": "8000", "qcap": "64",
			},
		},
		Run: runClusterPoint,
	})
	harness.Register(harness.Scenario{
		Name: "cluster/failover/sweep",
		Doc:  "recovery under load: fault-free vs crash-injected curves with recovery time and failover-window p99 per load level",
		Defaults: harness.Defaults{
			Threads: 4, Duration: 300 * sim.Microsecond, Seed: 58,
			Params: map[string]string{
				"policy": PolicyLocalPacked, "shards": "2", "putlog": "1",
				"get": "0.5", "put": "0.5", "scan": "0",
				"minkops": "2000", "maxkops": "26000", "points": "5",
				"faultgrid":  "none,crash",
				"faultshard": "0", "faultat": "0.4", "detect": "2000",
			},
		},
		Run: runClusterSweep,
	})
	harness.Register(harness.Scenario{
		Name: "cluster/failover/churn",
		Doc:  "standby leave/join churn: catch-up traffic and the unreplicated-write exposure a promotion would lose",
		Defaults: harness.Defaults{
			Threads: 4, Duration: 400 * sim.Microsecond, Seed: 59,
			Params: map[string]string{
				"policy": PolicyLocalPacked, "shards": "2", "putlog": "1",
				"replicate": "1", "fault": "churn", "faultat": "0",
				"churnperiod": "80", "churndown": "0.3", "churnjitter": "0.2",
				"get": "0.5", "put": "0.5", "scan": "0",
				"offered": "8000",
			},
		},
		Run: runClusterPoint,
	})
}

// runClusterPoint measures one open-loop load level through the cluster.
func runClusterPoint(spec harness.Spec) (harness.Trial, error) {
	r := harness.NewParamReader(spec.Params)
	policy := r.Str("policy", PolicyLocalPacked)
	shards := r.Int("shards", 2)
	dimms := r.Int("dimms", 0)
	capDIMM := r.Int("capdimm", 4)
	span := r.Int64("span", 1)
	backend := r.Str("backend", "pmemkv")
	media := r.Str("media", "optane")
	mode := r.Str("mode", "wal-flex")
	arrival := r.Str("arrival", "poisson")
	offered := r.Float("offered", 8000) // kops, cluster-wide
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
	replicate := r.Bool("replicate", false)
	faultKind := r.Str("fault", "")
	faultShard := r.Int("faultshard", 0)
	faultAt := r.Float("faultat", 0.4)
	faultDurNS := r.Float("faultdur", 20000)
	detectNS := r.Float("detect", 2000)
	faultSocket := r.Int("faultsocket", 0)
	churnPeriodUS := r.Float("churnperiod", 80)
	churnDown := r.Float("churndown", 0.3)
	churnJitter := r.Float("churnjitter", 0.2)
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
	case "hot":
		if cacheBytes <= 0 {
			return harness.Trial{}, fmt.Errorf("cluster: tier=hot needs a positive cache size, got %d", cacheBytes)
		}
	case "memmode":
		return harness.Trial{}, fmt.Errorf("cluster: tier=memmode is a single-node axis (service/cache/memmode)")
	default:
		return harness.Trial{}, fmt.Errorf("cluster: unknown tier %q (want hot)", tierKind)
	}
	if llcKB < 0 {
		return harness.Trial{}, fmt.Errorf("cluster: llckb must be >= 0, got %d", llcKB)
	}
	if batch < 1 {
		return harness.Trial{}, fmt.Errorf("cluster: batch size must be >= 1, got %d", batch)
	}
	if lingerNS < 0 {
		return harness.Trial{}, fmt.Errorf("cluster: linger must be >= 0 ns, got %g", lingerNS)
	}
	switch faultKind {
	case "", "crash", "stall", "socket", "churn":
	default:
		return harness.Trial{}, fmt.Errorf("cluster: unknown fault %q (want crash, stall, socket or churn)", faultKind)
	}
	if faultKind != "" && faultKind != "stall" && !replicate {
		return harness.Trial{}, fmt.Errorf("cluster: fault=%s needs a standby to fail over to; set replicate", faultKind)
	}
	if faultAt < 0 || faultAt > 1 {
		return harness.Trial{}, fmt.Errorf("cluster: faultat is a fraction of the measured window, got %g", faultAt)
	}
	if detectNS < 0 {
		return harness.Trial{}, fmt.Errorf("cluster: detect must be >= 0 ns, got %g", detectNS)
	}
	var nativeScan bool
	switch scanMode {
	case "native":
		nativeScan = true
	case "emulate":
	default:
		return harness.Trial{}, fmt.Errorf("cluster: unknown scanmode %q (want emulate or native)", scanMode)
	}
	if offered <= 0 {
		return harness.Trial{}, fmt.Errorf("cluster: offered load must be positive, got %g", offered)
	}
	if tenants < 1 {
		return harness.Trial{}, fmt.Errorf("cluster: need at least one tenant, got %d", tenants)
	}
	if hotKeys == 0 {
		hotKeys = keys/20 + 1
	}
	tens := make([]service.Tenant, tenants)
	for i := range tens {
		tens[i] = service.Tenant{Name: fmt.Sprintf("t%d", i)}
		switch mix {
		case "zipf":
			tens[i].Theta = theta
		case "uniform":
		case "split":
			if i%2 == 0 {
				tens[i].Theta = theta
			}
		case "hotspot":
			tens[i].HotFrac = hotFrac
			tens[i].HotKeys = hotKeys
			tens[i].HotPeriod = hotPeriod
		case "hotsplit":
			// Tenant 0 is the skewed hot-range tenant; the rest stay
			// uniform, so shed accounting shows who a hot shard drops.
			if i == 0 {
				tens[i].HotFrac = hotFrac
				tens[i].HotKeys = hotKeys
				tens[i].HotPeriod = hotPeriod
			}
		default:
			return harness.Trial{}, fmt.Errorf("cluster: unknown key mix %q (want zipf, uniform, split, hotspot or hotsplit)", mix)
		}
	}

	cfg := platform.DefaultConfig()
	cfg.TrackData = true
	cfg.XP.Wear.Enabled = false
	if llcKB > 0 {
		// See runPoint: cache scenarios shrink the LLC so the working set
		// actually reaches the memory tiers.
		cfg.LLC.Lines = int(llcKB << 10 / 64)
	}
	p := platform.MustNew(cfg)
	defer p.Close()

	cl, err := New(p, Config{
		Policy: policy, Shards: shards, Workers: spec.Threads,
		DIMMs: dimms, CapPerDIMM: capDIMM, ClientSocket: spec.Socket,
		Span: span, QueueCap: qcap,
		Backend: backend,
		Spec: service.BackendSpec{
			Media: media, Mode: mode,
			Keys: int64(tenants) * keys, KeySize: keySize, ValSize: valSize,
			PMBytes: pmBytes, DRAMBytes: dramBytes,
			ScanSpan: keys, NativeScan: nativeScan,
		},
		PutLog: putlog, Replicate: replicate,
		CacheBytes: cacheBytes, CacheQuota: quotaBytes,
		CacheAdmit: admit, CacheEvict: evict,
		CacheTenantSpan: keys, CacheSeed: spec.Seed ^ 0x407C,
	})
	if err != nil {
		return harness.Trial{}, err
	}
	arr, err := service.NewArrival(arrival, offered*1e3, sim.Micros(cycleUS), onFrac, spec.Seed^0x5A17)
	if err != nil {
		return harness.Trial{}, err
	}
	// The fault schedule is a pure function of the point spec (seed, window,
	// fault params), built on the serving clock: event time 0 is serving
	// start, so faultat=f fires f of the way into the measured window.
	var faults []fault.Event
	if faultKind != "" {
		at := spec.Warmup + sim.Time(faultAt*float64(spec.Duration))
		switch faultKind {
		case "crash":
			faults = fault.Point(fault.Crash, faultShard, at, 0)
		case "stall":
			faults = fault.Point(fault.Stall, faultShard, at, sim.Nanos(faultDurNS))
		case "socket":
			// A whole-socket loss crashes every shard whose data lives on the
			// lost socket — the placement resolves which ones those are.
			var lost []int
			for i, sp := range cl.Placement.Shards {
				if sp.DataSocket == faultSocket {
					lost = append(lost, i)
				}
			}
			if len(lost) == 0 {
				return harness.Trial{}, fmt.Errorf("cluster: no shard's data lives on socket %d", faultSocket)
			}
			faults = fault.SocketLoss(lost, at)
		case "churn":
			faults, err = fault.Churn(fault.ChurnConfig{
				Seed:   spec.Seed ^ 0xFA01,
				Shards: shards,
				Start:  at, End: spec.Warmup + spec.Duration,
				Period:   sim.Micros(churnPeriodUS),
				DownFrac: churnDown, Jitter: churnJitter,
			})
			if err != nil {
				return harness.Trial{}, err
			}
		}
	}
	// Tracing mirrors the single-node point scenario: a recorder keyed off
	// the spec's Trace flag (never a param, so seeds and results are
	// untouched), with cluster-wide probes merged across the shard fabric.
	var rec *telemetry.Recorder
	var cacheStats func() (int64, int64)
	if spec.Trace {
		rec = telemetry.NewRecorder(service.TraceInterval(spec.Duration), 0)
		if putlog {
			rec.AddProbe(func(add func(string, float64)) {
				var c pmem.Counters
				for i := range cl.Shards {
					if pl := cl.Shards[i].PutLog; pl != nil {
						cc := pl.Counters()
						c.Merge(&cc)
					}
				}
				c.Gauges(add)
			})
		}
		service.AddDeviceProbes(rec, p)
		if cacheBytes > 0 {
			rec.AddProbe(func(add func(string, float64)) { cl.CacheCounters().Gauges(add) })
			cacheStats = func() (int64, int64) {
				c := cl.CacheCounters()
				return c.Hits, c.Misses
			}
		}
	}
	// The devstat watcher captures device-counter snapshots at the measured
	// window's boundaries on its own read-only proc; see runPoint.
	var dw *devstat.Watcher
	if devOn {
		dw = devstat.Watch(p, spec.Socket, spec.Warmup, spec.Duration)
	}
	res, err := service.Serve(service.Config{
		Platform: p, Socket: spec.Socket,
		Shards: cl.Shards, Route: cl.Route,
		Arrival: arr, Tenants: tens,
		Keys: keys, KeySize: keySize, ValSize: valSize,
		GetFrac: getFrac, PutFrac: putFrac, ScanFrac: scanFrac, DelFrac: delFrac,
		ScanLen:  scanLen,
		Duration: spec.Duration, Warmup: spec.Warmup,
		Poll: sim.Nanos(pollNS), Seed: spec.Seed,
		BatchSize: batch, BatchLinger: sim.Nanos(lingerNS),
		Faults: faults, Detect: sim.Nanos(detectNS),
		Recorder: rec, CacheStats: cacheStats,
	})
	if err != nil {
		return harness.Trial{}, err
	}

	workers := cl.TotalWorkers()
	qs := res.Latency.Quantiles([]float64{0.5, 0.95, 0.99, 0.999})
	m := map[string]float64{
		"offered_kops":  res.OfferedRate / 1e3,
		"achieved_kops": res.AchievedRate / 1e3,
		"drop_frac":     dropFrac(res.Dropped, res.Offered),
		"p50_ns":        qs[0],
		"p95_ns":        qs[1],
		"p99_ns":        qs[2],
		"p999_ns":       qs[3],
		"util":          res.Utilization(workers),
		"qmax":          float64(res.MaxQueueLen),
		"workers":       float64(workers),
		"remote_shards": float64(cl.Placement.RemoteShards()),
	}
	maxShare := 0.0
	for i := range res.Shards {
		sh := &res.Shards[i]
		share := 0.0
		if res.Completed > 0 {
			share = float64(sh.Completed) / float64(res.Completed)
		}
		if share > maxShare {
			maxShare = share
		}
		m[fmt.Sprintf("s%d_share", i)] = share
		m[fmt.Sprintf("s%d_p99_ns", i)] = sh.Latency.Percentile(0.99)
		m[fmt.Sprintf("s%d_drop_frac", i)] = dropFrac(sh.Dropped, sh.Offered)
		m[fmt.Sprintf("s%d_qmax", i)] = float64(sh.MaxQueueLen)
	}
	m["max_shard_share"] = maxShare
	for i := range res.Tenants {
		t := &res.Tenants[i]
		m[fmt.Sprintf("t%d_p99_ns", i)] = t.Latency.Percentile(0.99)
		m[fmt.Sprintf("t%d_drop_frac", i)] = dropFrac(t.Dropped, t.Offered)
		harness.GateMetric(m, res.Dropped > 0, fmt.Sprintf("t%d_shed_ops", i), float64(t.Dropped))
	}
	// Fence-amortization readout across every shard's append logs, gated
	// on the batch path being on (batch=1 keeps pre-batching scenario
	// output byte-stable).
	harness.GateMetrics(m, batch > 1 && putlog, func(m map[string]float64) {
		var c pmem.Counters
		for i := range cl.Shards {
			if pl := cl.Shards[i].PutLog; pl != nil {
				cc := pl.Counters()
				c.Merge(&cc)
			}
		}
		c.Metrics(m)
	})
	// Cache-tier readout merged across shards, gated on the tier being on
	// (cache-less runs stay byte-stable).
	harness.GateMetrics(m, cacheBytes > 0, func(m map[string]float64) {
		cl.CacheCounters().Metrics(m)
	})
	// Device-health readout, gated on the devstat param (absent ⇒ zero
	// dev_* keys, so pre-existing scenario output stays byte-identical):
	// per-DIMM health metrics plus per-shard attribution through the
	// placement's (socket, channel-set) — the namespace→DIMM-set mapping
	// the cluster pinned when it carved each shard's backend.
	harness.GateMetrics(m, dw != nil, func(m map[string]float64) {
		w := dw.Window()
		w.Metrics(m)
		for i, sp := range cl.Placement.Shards {
			w.GroupMetrics(m, fmt.Sprintf("shard%d", i), sp.DataSocket, sp.Channels)
		}
	})
	// Replication shipping/replay readout, gated on the pairs existing
	// (unreplicated runs stay byte-stable).
	harness.GateMetrics(m, replicate, func(m map[string]float64) {
		rs := cl.ReplStats()
		m["ship_batches"] = float64(rs.ShipBatches)
		m["ship_recs"] = float64(rs.ShipRecs)
		m["ship_bytes"] = float64(rs.ShipBytes)
		m["failovers"] = float64(rs.Failovers)
		m["replay_batches"] = float64(rs.ReplayBatches)
		m["replay_recs"] = float64(rs.ReplayRecs)
		m["lost_recs"] = float64(rs.LostRecs)
		m["repl_leaves"] = float64(rs.Leaves)
		m["repl_joins"] = float64(rs.Joins)
		m["catchup_recs"] = float64(rs.CatchupRecs)
	})
	// Failover outcome readout, gated on faults actually being scheduled.
	// Worst-case promote/recovery latencies across shards, plus the
	// during-failover-window latency distribution and shed count.
	harness.GateMetrics(m, len(faults) > 0, func(m map[string]float64) {
		var crashes, wops, shed int64
		var promote, recovery float64
		wl := stats.NewHistogram()
		for i := range res.Failover {
			fs := &res.Failover[i]
			crashes += fs.Crashes
			wops += fs.WindowOps
			shed += fs.ShedWindow
			if fs.PromoteNS > promote {
				promote = fs.PromoteNS
			}
			if fs.RecoveryNS > recovery {
				recovery = fs.RecoveryNS
			}
			if fs.WindowLatency != nil {
				wl.Merge(fs.WindowLatency)
			}
		}
		m["crashes"] = float64(crashes)
		m["promote_ns"] = promote
		m["recovery_ns"] = recovery
		m["failover_window_ops"] = float64(wops)
		m["failover_p99_ns"] = wl.Percentile(0.99)
		m["failover_shed_ops"] = float64(shed)
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

// runClusterSweep fans a load grid out over nested cluster/point trials,
// once per policy in the policygrid (default: the single policy param).
// Grid params are consumed here; everything else passes through to the
// point scenario verbatim, whose reader catches typos.
func runClusterSweep(spec harness.Spec) (harness.Trial, error) {
	rest := make(map[string]string, len(spec.Params))
	for k, v := range spec.Params {
		rest[k] = v
	}
	minKops, maxKops, pointsF, err := service.GridParams(rest, 2000, 34000, 7)
	if err != nil {
		return harness.Trial{}, err
	}
	policies := []string{rest["policy"]}
	if policies[0] == "" {
		policies[0] = PolicyLocalPacked
	}
	if pg, ok := rest["policygrid"]; ok {
		delete(rest, "policygrid")
		policies = policies[:0]
		for _, s := range strings.Split(pg, ",") {
			policies = append(policies, strings.TrimSpace(s))
		}
	}
	batchGrid, linger, err := service.BatchGridParams(rest)
	if err != nil {
		return harness.Trial{}, err
	}
	cacheGrid, cacheExtras, err := service.CacheGridParams(rest)
	if err != nil {
		return harness.Trial{}, err
	}
	faultGrid, faultExtras, err := faultGridParams(rest)
	if err != nil {
		return harness.Trial{}, err
	}

	tr := harness.Trial{Metrics: make(map[string]float64)}
	var trace *telemetry.Trace
	var text strings.Builder
	for _, policy := range policies {
		for _, batch := range batchGrid {
			for _, cache := range cacheGrid {
				for _, flt := range faultGrid {
					leg := faultLegParams(service.CacheLegParams(service.BatchLegParams(rest, batch, linger), cache, cacheExtras), flt, faultExtras)
					params := make(map[string]string, len(leg)+1)
					for k, v := range leg {
						params[k] = v
					}
					params["policy"] = policy
					curve, err := RunSweep(SweepConfig{
						Params:  params,
						Threads: spec.Threads, Duration: spec.Duration, Warmup: spec.Warmup,
						Seed:    spec.Seed,
						MinKops: minKops, MaxKops: maxKops, Points: int(pointsF),
						Parallel: spec.Parallel,
						Trace:    spec.Trace,
					})
					if err != nil {
						return harness.Trial{}, err
					}
					suffix := ""
					if len(policies) > 1 {
						suffix = "@" + policy
					}
					if len(batchGrid) > 1 {
						suffix += fmt.Sprintf("@b%d", batch)
					}
					if len(cacheGrid) > 1 {
						suffix += fmt.Sprintf("@c%d", cache)
					}
					if len(faultGrid) > 1 {
						suffix += "@f" + flt
					}
					trace = service.MergeCurveTrace(trace, curve, suffix)
					service.EmitCurve(&tr, curve, suffix)
					// Fence amortization at the deepest grid point, present on the
					// group-commit legs only.
					if f, ok := curve[len(curve)-1].Metrics["pmem_fence_per_op"]; ok {
						tr.Metrics["fence_per_op_deep"+suffix] = f
					}
					// Tier hit rate at the deepest grid point, present on the
					// cached legs only (same gating as the point metrics).
					if f, ok := curve[len(curve)-1].Metrics["cache_hit_rate"]; ok {
						tr.Metrics["cache_hit_rate_deep"+suffix] = f
					}
					// Recovery-under-load curve: per-point failover readouts,
					// present only on the fault-injected legs (each point crashes
					// and recovers under its own offered load).
					for _, key := range []string{"recovery_ns", "promote_ns", "failover_p99_ns", "lost_recs"} {
						for _, pt := range curve {
							if f, ok := pt.Metrics[key]; ok {
								tr.Metrics[fmt.Sprintf("%s@%g%s", key, pt.OfferedKops, suffix)] = f
							}
						}
					}
					// Deep-overload shed accounting: who gets dropped at the top of
					// the grid (per-tenant keys appear only once the point sheds).
					deep := curve[len(curve)-1].Metrics
					var shedKeys []string
					for k := range deep {
						if strings.HasSuffix(k, "_shed_ops") {
							shedKeys = append(shedKeys, k)
						}
					}
					sort.Strings(shedKeys)
					for _, k := range shedKeys {
						tr.Metrics[k+suffix] = deep[k]
					}
					title := fmt.Sprintf("cluster sweep: policy %s, %d shards, %s workers/shard",
						policy, atoiOr(rest["shards"], 2), workersLabel(spec.Threads))
					if len(batchGrid) > 1 {
						title += fmt.Sprintf(", batch %d", batch)
					}
					if len(cacheGrid) > 1 {
						title += fmt.Sprintf(", cache %d B", cache)
					}
					if len(faultGrid) > 1 {
						title += ", fault " + flt
					}
					text.WriteString(curve.TSV(title))
					text.WriteByte('\n')
				}
			}
		}
	}
	tr.Text = strings.TrimRight(text.String(), "\n")
	tr.Trace = trace
	return tr, nil
}

// faultGridParams consumes the failover sweep params: "faultgrid" (a
// comma-separated list of fault kinds; "none" is the fault-free leg, and
// the default grid is just that) plus the companions that reach only the
// injected legs — faultshard/faultat/faultdur/detect/faultsocket and the
// churn knobs. Mirrors BatchGridParams/CacheGridParams: the fault-free
// leg's point specs carry no fault keys at all, so its curve reproduces
// an uninjected sweep's byte-identically.
func faultGridParams(params map[string]string) (grid []string, extras map[string]string, err error) {
	grid = []string{"none"}
	if fg, ok := params["faultgrid"]; ok {
		delete(params, "faultgrid")
		grid = grid[:0]
		for _, s := range strings.Split(fg, ",") {
			name := strings.TrimSpace(s)
			switch name {
			case "none", "crash", "stall", "socket", "churn":
			default:
				return nil, nil, fmt.Errorf("param faultgrid=%q: want comma-separated kinds from none, crash, stall, socket, churn", fg)
			}
			grid = append(grid, name)
		}
	}
	for _, key := range []string{
		"faultshard", "faultat", "faultdur", "detect", "faultsocket",
		"churnperiod", "churndown", "churnjitter",
	} {
		if v, ok := params[key]; ok {
			delete(params, key)
			if extras == nil {
				extras = make(map[string]string)
			}
			extras[key] = v
		}
	}
	return grid, extras, nil
}

// faultLegParams renders one fault-grid leg's point params: "none" passes
// base through untouched (no fault keys — the spec must stay byte-identical
// to an uninjected sweep's), injected legs copy base and add the fault kind,
// its companions and — for kinds that fail over — the replicated topology.
func faultLegParams(base map[string]string, name string, extras map[string]string) map[string]string {
	if name == "none" {
		return base
	}
	params := make(map[string]string, len(base)+2+len(extras))
	for k, v := range base {
		params[k] = v
	}
	params["fault"] = name
	if name != "stall" {
		params["replicate"] = "1"
	}
	for k, v := range extras {
		params[k] = v
	}
	return params
}

func atoiOr(s string, def int) int {
	if n, err := strconv.Atoi(s); err == nil {
		return n
	}
	return def
}

func workersLabel(threads int) string {
	if threads <= 0 {
		return "default"
	}
	return strconv.Itoa(threads)
}

// SweepConfig configures a per-policy cluster load sweep (a thin wrapper
// over service.RunSweep pointed at cluster/point).
type SweepConfig struct {
	// Params are cluster/point params (policy, shards, mix, ...).
	Params map[string]string
	// Threads is the requested per-shard worker pool at every point.
	Threads          int
	Duration         sim.Time
	Warmup           sim.Time
	Seed             uint64
	MinKops, MaxKops float64
	Points           int
	Parallel         int
	// Trace asks every point trial to record spans and a timeline
	// (non-identity, like Parallel; see service.SweepConfig.Trace).
	Trace bool
}

// RunSweep measures one policy's throughput-latency curve.
func RunSweep(sc SweepConfig) (service.Curve, error) {
	return service.RunSweep(service.SweepConfig{
		Scenario: "cluster/point",
		Params:   sc.Params,
		Threads:  sc.Threads, Duration: sc.Duration, Warmup: sc.Warmup,
		Seed:    sc.Seed,
		MinKops: sc.MinKops, MaxKops: sc.MaxKops, Points: sc.Points,
		Parallel: sc.Parallel,
		Trace:    sc.Trace,
	})
}
