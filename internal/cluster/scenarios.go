package cluster

import (
	"cmp"
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"

	"optanestudy/internal/devstat"
	"optanestudy/internal/fault"
	"optanestudy/internal/harness"
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
// It reads the placement and fault params; service.RunPoint reads and
// checks the rest and serves through the fabric built here.
func runClusterPoint(spec harness.Spec) (harness.Trial, error) {
	r := harness.NewParamReader(spec.Params)
	policy := r.Str("policy", PolicyLocalPacked)
	shards := r.Int("shards", 2)
	dimms := r.Int("dimms", 0)
	capDIMM := r.Int("capdimm", 4)
	span := r.Int64("span", 1)
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
	return service.RunPoint(spec, r, func(fs service.FabricSpec, cfg *service.Config) (*service.Fabric, error) {
		if fs.Tier == "memmode" {
			return nil, fmt.Errorf("cluster: tier=memmode is a single-node axis (service/cache/memmode)")
		}
		switch faultKind {
		case "", "crash", "stall", "socket", "churn":
		default:
			return nil, fmt.Errorf("cluster: unknown fault %q (want crash, stall, socket or churn)", faultKind)
		}
		if faultKind != "" && faultKind != "stall" && !replicate {
			return nil, fmt.Errorf("cluster: fault=%s needs a standby to fail over to; set replicate", faultKind)
		}
		if faultAt < 0 || faultAt > 1 {
			return nil, fmt.Errorf("cluster: faultat is a fraction of the measured window, got %g", faultAt)
		}
		if detectNS < 0 {
			return nil, fmt.Errorf("cluster: detect must be >= 0 ns, got %g", detectNS)
		}
		cl, err := New(fs.Platform, Config{
			Policy: policy, Shards: shards, Workers: spec.Threads,
			DIMMs: dimms, CapPerDIMM: capDIMM, ClientSocket: spec.Socket,
			Span: span, QueueCap: fs.QueueCap,
			Backend: fs.Backend, Spec: fs.BackendSpec,
			PutLog: fs.PutLog, LogRegion: fs.LogRegion, Replicate: replicate,
			CacheBytes: fs.Cache.CapacityBytes, CacheQuota: fs.Cache.QuotaBytes,
			CacheAdmit: fs.Cache.Admit, CacheEvict: fs.Cache.Policy,
			CacheTenantSpan: fs.Cache.TenantSpan, CacheSeed: fs.Cache.Seed,
		})
		if err != nil {
			return nil, err
		}
		// The fault schedule is a pure function of the point spec (seed,
		// window, fault params), built on the serving clock: event time 0 is
		// serving start, so faultat=f fires f of the way into the measured
		// window.
		var faults []fault.Event
		if faultKind != "" {
			at := spec.Warmup + sim.Time(faultAt*float64(spec.Duration))
			switch faultKind {
			case "crash":
				faults = fault.Point(fault.Crash, faultShard, at, 0)
			case "stall":
				faults = fault.Point(fault.Stall, faultShard, at, sim.Nanos(faultDurNS))
			case "socket":
				// A whole-socket loss crashes every shard whose data lives on
				// the lost socket — the placement resolves which ones those
				// are.
				var lost []int
				for i, sp := range cl.Placement.Shards {
					if sp.DataSocket == faultSocket {
						lost = append(lost, i)
					}
				}
				if len(lost) == 0 {
					return nil, fmt.Errorf("cluster: no shard's data lives on socket %d", faultSocket)
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
					return nil, err
				}
			}
		}
		cfg.Shards, cfg.Route = cl.Shards, cl.Route
		cfg.Faults, cfg.Detect = faults, sim.Nanos(detectNS)
		f := &service.Fabric{Workers: cl.TotalWorkers()}
		if fs.Tier == "hot" {
			f.Cache = cl.CacheCounters
		}
		f.Metrics = func(m map[string]float64, res *service.Result, dw *devstat.Watcher) {
			m["workers"] = float64(f.Workers)
			m["remote_shards"] = float64(cl.Placement.RemoteShards())
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
				m[fmt.Sprintf("s%d_drop_frac", i)] = service.DropFrac(sh.Dropped, sh.Offered)
				m[fmt.Sprintf("s%d_qmax", i)] = float64(sh.MaxQueueLen)
			}
			m["max_shard_share"] = maxShare
			// Per-shard device health, gated with RunPoint's per-DIMM
			// readout: attribution through the placement's (socket,
			// channel-set), the namespace→DIMM-set mapping the cluster
			// pinned when it carved each shard's backend.
			harness.GateMetrics(m, dw != nil, func(m map[string]float64) {
				w := dw.Window()
				for i, sp := range cl.Placement.Shards {
					w.GroupMetrics(m, fmt.Sprintf("shard%d", i), sp.DataSocket, sp.Channels)
				}
			})
			// Replication shipping/replay readout, gated on the pairs
			// existing (unreplicated runs stay byte-stable).
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
			// Failover outcome readout, gated on faults actually being
			// scheduled. Worst-case promote/recovery latencies across
			// shards, plus the during-failover-window latency distribution
			// and shed count.
			harness.GateMetrics(m, len(faults) > 0, func(m map[string]float64) {
				var crashes, wops, shed int64
				var promote, recovery float64
				wl := stats.NewHistogram()
				for i := range res.Failover {
					fo := &res.Failover[i]
					crashes += fo.Crashes
					wops += fo.WindowOps
					shed += fo.ShedWindow
					if fo.PromoteNS > promote {
						promote = fo.PromoteNS
					}
					if fo.RecoveryNS > recovery {
						recovery = fo.RecoveryNS
					}
					if fo.WindowLatency != nil {
						wl.Merge(fo.WindowLatency)
					}
				}
				m["crashes"] = float64(crashes)
				m["promote_ns"] = promote
				m["recovery_ns"] = recovery
				m["failover_window_ops"] = float64(wops)
				m["failover_p99_ns"] = wl.Percentile(0.99)
				m["failover_shed_ops"] = float64(shed)
			})
		}
		return f, nil
	})
}

// runClusterSweep fans a load grid out over cluster/point trials, one
// curve per sweep leg (see service.Legs): placement policies, group-commit
// depths, tier sizes, fault kinds. Grid params are consumed here;
// everything else, threadgrid included, passes through to the point
// scenario verbatim, whose reader catches typos.
func runClusterSweep(spec harness.Spec) (harness.Trial, error) {
	rest := maps.Clone(spec.Params)
	minKops, maxKops, pointsF, err := service.GridParams(rest, 2000, 34000, 7)
	if err != nil {
		return harness.Trial{}, err
	}
	legs, err := service.Legs(rest, spec.Threads, "policygrid", "batchgrid", "cachegrid", "faultgrid")
	if err != nil {
		return harness.Trial{}, err
	}

	tr := harness.Trial{Metrics: make(map[string]float64)}
	var trace *telemetry.Trace
	var text strings.Builder
	for _, leg := range legs {
		// Every injected fault but a stall fails a primary over, which needs
		// a standby to promote: those legs run the replicated topology.
		if f, ok := leg.On["fault"]; ok && f != "stall" {
			leg.Params["replicate"] = "1"
		}
		curve, err := service.RunSweep(service.SweepConfig{
			Scenario: "cluster/point", Params: leg.Params,
			Threads: spec.Threads, Duration: spec.Duration, Warmup: spec.Warmup,
			Seed:    spec.Seed,
			MinKops: minKops, MaxKops: maxKops, Points: int(pointsF),
			Parallel: spec.Parallel,
			Trace:    spec.Trace,
		})
		if err != nil {
			return harness.Trial{}, err
		}
		suffix := leg.Suffix
		trace = service.MergeCurveTrace(trace, curve, suffix)
		service.EmitCurve(&tr, curve, suffix)
		// Fence amortization at the deepest grid point, present on the
		// group-commit legs only.
		if f, ok := curve[len(curve)-1].Metrics["pmem_fence_per_op"]; ok {
			tr.Metrics["fence_per_op_deep"+suffix] = f
		}
		// Tier hit rate at the deepest grid point, present on the cached
		// legs only (same gating as the point metrics).
		if f, ok := curve[len(curve)-1].Metrics["cache_hit_rate"]; ok {
			tr.Metrics["cache_hit_rate_deep"+suffix] = f
		}
		// Recovery-under-load curve: per-point failover readouts, present
		// only on the fault-injected legs (each point crashes and recovers
		// under its own offered load).
		for _, key := range []string{"recovery_ns", "promote_ns", "failover_p99_ns", "lost_recs"} {
			for _, pt := range curve {
				if f, ok := pt.Metrics[key]; ok {
					tr.Metrics[fmt.Sprintf("%s@%g%s", key, pt.OfferedKops, suffix)] = f
				}
			}
		}
		// Deep-overload shed accounting: who gets dropped at the top of the
		// grid (per-tenant keys appear only once the point sheds).
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
		title := fmt.Sprintf("cluster sweep: policy %s, %d shards, %s workers/shard%s",
			cmp.Or(leg.Params["policy"], PolicyLocalPacked), atoiOr(rest["shards"], 2),
			workersLabel(spec.Threads), leg.Title)
		text.WriteString(curve.TSV(title))
		text.WriteByte('\n')
	}
	tr.Text = strings.TrimRight(text.String(), "\n")
	tr.Trace = trace
	return tr, nil
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
