package main

import (
	"fmt"

	"optanestudy/internal/cluster"
	"optanestudy/internal/devstat"
	"optanestudy/internal/platform"
	"optanestudy/internal/service"
	"optanestudy/internal/sim"
	"optanestudy/internal/telemetry"
)

// headlineKops is the offered load the latency metrics are read at: below
// every leg's knee on both serving workloads.
const headlineKops = 12000

// p99Limit is the latency limit of the knee definition.
const p99Limit = 10 * sim.Microsecond

// leg is one configuration a serving workload sweeps.
type leg struct {
	name   string
	batch  int      // group-commit depth (serve-write)
	linger sim.Time // group-commit linger (serve-write)
	cache  int64    // per-shard DRAM hot tier bytes (serve-read)
}

// serveShape is one open-loop serving workload: its legs, its offered-load
// grid and how one load point is assembled on a fresh platform.
type serveShape struct {
	name     string
	legs     []leg
	headline string
	grid     func(sz *sizes) []float64
	build    func(p *platform.Platform, l leg, kops float64, seed uint64, sz *sizes) (*servePoint, error)
	platform func(seed uint64) platform.Config
}

// servePoint is an assembled load point: the Serve configuration plus the
// handles its traced metrics read.
type servePoint struct {
	cfg     service.Config
	workers int
	log     *service.AppendLog
	cl      *cluster.Cluster
}

// curvePoint is one measured load level.
type curvePoint struct {
	kops         float64 // offered (grid) load
	genKops      float64 // what the Poisson process generated
	achievedKops float64
	p50, p99     float64 // ns
	samples      int64
}

// serveWrite is write-heavy serving on one non-interleaved DIMM, in the
// shape of the group-commit sweep: 4 pmemkv workers, 70% PUTs of 112 B
// values journaled by write-behind logging, with group-commit depth 1 (d1)
// and depth 8 with a 1 µs linger (d8, the headline leg).
var serveWrite = &serveShape{
	name: "serve-write",
	legs: []leg{
		{name: "d1", batch: 1},
		{name: "d8", batch: 8, linger: sim.Microsecond},
	},
	headline: "d8",
	grid:     func(sz *sizes) []float64 { return sz.writeGrid },
	platform: func(seed uint64) platform.Config {
		cfg := platform.DefaultConfig()
		cfg.TrackData = true
		cfg.XP.Wear.Enabled = false
		cfg.Seed = mix(seed, 0x5E1)
		return cfg
	},
	build: func(p *platform.Platform, l leg, kops float64, seed uint64, sz *sizes) (*servePoint, error) {
		const workers, keys, keySize, valSize = 4, 200, 8, 112
		be, err := service.NewBackend(p, "pmemkv", service.BackendSpec{
			Media: "optane-ni", Keys: 2 * keys, KeySize: keySize, ValSize: valSize,
		})
		if err != nil {
			return nil, err
		}
		log, err := service.NewAppendLog(p, service.BackendSpec{Media: "optane-ni"}, workers, 2<<20)
		if err != nil {
			return nil, err
		}
		arr, err := service.NewArrival("poisson", kops*1e3, 0, 0, mix(seed, 0xA77))
		if err != nil {
			return nil, err
		}
		return &servePoint{workers: workers, log: log, cfg: service.Config{
			Platform: p, Backend: be, Workers: workers, PutLog: log,
			Arrival: arr, Tenants: splitTenants(),
			Keys: keys, KeySize: keySize, ValSize: valSize,
			GetFrac: 0.3, PutFrac: 0.7,
			Duration: sz.window, Warmup: sz.warmup, Seed: seed,
			BatchSize: l.batch, BatchLinger: l.linger,
		}}, nil
	},
}

// serveRead is read-heavy serving through a two-shard local-packed
// cluster, in the shape of the cluster cache sweep: 95% GETs, Zipf 0.99
// over 2 tenants × 2000 keys of 128 B, an LLC shrunk to 16 KB so the
// keyspace lives beyond it, with no tier (tier0) and a 512 KiB per-shard
// DRAM hot tier (tier512k, the headline leg).
var serveRead = &serveShape{
	name: "serve-read",
	legs: []leg{
		{name: "tier0"},
		{name: "tier512k", cache: 512 << 10},
	},
	headline: "tier512k",
	grid:     func(sz *sizes) []float64 { return sz.readGrid },
	platform: func(seed uint64) platform.Config {
		cfg := platform.DefaultConfig()
		cfg.TrackData = true
		cfg.XP.Wear.Enabled = false
		cfg.LLC.Lines = 16 << 10 / 64
		cfg.Seed = mix(seed, 0x5E2)
		return cfg
	},
	build: func(p *platform.Platform, l leg, kops float64, seed uint64, sz *sizes) (*servePoint, error) {
		const keys, keySize, valSize = 2000, 16, 128
		cl, err := cluster.New(p, cluster.Config{
			Policy: cluster.PolicyLocalPacked, Shards: 2, Workers: 8, CapPerDIMM: 4,
			Backend: "pmemkv",
			Spec: service.BackendSpec{
				Media: "optane", Keys: 2 * keys, KeySize: keySize, ValSize: valSize, ScanSpan: keys,
			},
			CacheBytes: l.cache, CacheAdmit: 1, CacheEvict: "clock",
			CacheTenantSpan: keys, CacheSeed: mix(seed, 0x407C),
		})
		if err != nil {
			return nil, err
		}
		arr, err := service.NewArrival("poisson", kops*1e3, 0, 0, mix(seed, 0xA77))
		if err != nil {
			return nil, err
		}
		return &servePoint{workers: cl.TotalWorkers(), cl: cl, cfg: service.Config{
			Platform: p, Shards: cl.Shards, Route: cl.Route,
			Arrival: arr, Tenants: []service.Tenant{{Name: "t0", Theta: 0.99}, {Name: "t1", Theta: 0.99}},
			Keys: keys, KeySize: keySize, ValSize: valSize,
			GetFrac: 0.95, PutFrac: 0.05,
			Duration: sz.window, Warmup: sz.warmup, Seed: seed,
		}}, nil
	},
}

// splitTenants is the serving layer's default two-tenant mix: a Zipf 0.99
// tenant beside a uniform one.
func splitTenants() []service.Tenant {
	return []service.Tenant{{Name: "t0", Theta: 0.99}, {Name: "t1"}}
}

// pass sweeps every leg over the offered-load grid.
func (sh *serveShape) pass(ps *pass) {
	for _, l := range sh.legs {
		var curve []curvePoint
		for i, kops := range sh.grid(ps.sz) {
			if cp, ok := sh.point(ps, l, i, kops); ok {
				curve = append(curve, cp)
			}
		}
		knee := kneeKops(curve)
		at := pointAt(curve, headlineKops)
		ps.notes = append(ps.notes, curveNote(l.name, curve, knee))
		if l.name == sh.headline {
			ps.sim = simHeadline{kneeKops: knee, p50us: at.p50 / 1e3, p99us: at.p99 / 1e3, samples: at.samples,
				what: fmt.Sprintf("end-to-end request latency on leg %s at %d offered kops", l.name, headlineKops)}
		} else {
			ps.layer["service.knee_kops-"+l.name] = knee
			ps.layer["service.p99_us-"+l.name] = at.p99 / 1e3
		}
	}
}

// point runs one load level on a fresh platform: building the platform,
// backends, logs and tiers is set-up; Serve is measured. The traced pass
// also attaches a phase recorder and a devstat window.
func (sh *serveShape) point(ps *pass, l leg, idx int, kops float64) (curvePoint, bool) {
	label := fmt.Sprintf("%s/%s@%g", sh.name, l.name, kops)
	headline := l.name == sh.headline && kops == headlineKops
	seed := mix(ps.seed, uint64(idx))
	var p *platform.Platform
	var pt *servePoint
	t0 := ps.setup
	err := ps.timeSetup(func() error {
		var err error
		if p, err = platform.New(sh.platform(ps.seed)); err != nil {
			return err
		}
		pt, err = sh.build(p, l, kops, seed, ps.sz)
		return err
	})
	ps.legHost(l.name).preload += ps.setup - t0
	if p != nil {
		defer p.Close()
	}
	if err != nil {
		ps.fail("%s: set-up: %v", label, err)
		ps.record("%s error", label)
		return curvePoint{}, false
	}
	var rec *telemetry.Recorder
	var dw *devstat.Watcher
	if ps.traced {
		rec = telemetry.NewRecorder(service.TraceInterval(pt.cfg.Duration), 8)
		service.AddDeviceProbes(rec, p)
		if pt.log != nil {
			rec.AddProbe(func(add func(string, float64)) {
				c := pt.log.Counters()
				c.Gauges(add)
			})
		}
		if pt.cl != nil && l.cache > 0 {
			rec.AddProbe(func(add func(string, float64)) { pt.cl.CacheCounters().Gauges(add) })
			pt.cfg.CacheStats = func() (int64, int64) {
				c := pt.cl.CacheCounters()
				return c.Hits, c.Misses
			}
		}
		pt.cfg.Recorder = rec
		if headline {
			dw = devstat.Watch(p, 0, pt.cfg.Warmup, pt.cfg.Duration)
		}
	}
	var res *service.Result
	err = ps.timeMeasured(l.name, func() error {
		var err error
		res, err = service.Serve(pt.cfg)
		return err
	})
	if err != nil {
		ps.fail("%s: %v", label, err)
		ps.record("%s error", label)
		return curvePoint{}, false
	}
	ps.legHost(l.name).ops += res.Completed
	if res.Offered != res.Completed+res.Dropped {
		ps.fail("%s: offered %d != completed %d + dropped %d", label, res.Offered, res.Completed, res.Dropped)
	}
	shards := ""
	for i, s := range res.Shards {
		if s.Offered != s.Completed+s.Dropped {
			ps.fail("%s: shard %d offered %d != completed %d + dropped %d", label, i, s.Offered, s.Completed, s.Dropped)
		}
		shards += fmt.Sprintf(" s%d=%d/%d/%d/%d", i, s.Offered, s.Dropped, s.Completed, int64(s.WorkerBusy))
	}
	q := res.Latency.Quantiles([]float64{0.5, 0.99, 0.999})
	ps.record("%s off=%d drop=%d done=%d busy=%d qres=%d qmax=%d lat=%d %s%s", label,
		res.Offered, res.Dropped, res.Completed, int64(res.WorkerBusy), int64(res.QueueResidency), res.MaxQueueLen,
		res.Latency.Count(), floats([]float64{res.Latency.Mean(), q[0], q[1], q[2], res.Latency.Max()}), shards)
	cp := curvePoint{
		kops: kops, genKops: res.OfferedRate / 1e3, achievedKops: res.AchievedRate / 1e3,
		p50: q[0], p99: q[1], samples: res.Latency.Count(),
	}
	if rec != nil {
		run := rec.Finish(fmt.Sprintf("offered=%g@%s", kops, l.name))
		ps.trace = append(ps.trace, telemetry.TraceEntry{Scenario: sh.name, Trace: &telemetry.Trace{Runs: []*telemetry.Run{run}}})
		if headline {
			ps.dev.add(dw.Window())
			headlineLayers(ps.layer, pt, res, run, kops)
		}
	}
	return cp, true
}

// headlineLayers reads the traced run's simulated per-layer metrics off
// the headline leg's point at headlineKops.
func headlineLayers(m map[string]float64, pt *servePoint, res *service.Result, run *telemetry.Run, kops float64) {
	phase := func(name string, p99 bool) float64 {
		ph := run.Phase(name)
		if ph == nil {
			return 0
		}
		if p99 {
			return ph.P99NS / 1e3
		}
		return ph.P50NS / 1e3
	}
	m["service.queue_wait_p99_us"] = phase("queue_wait", true)
	m["service.service_p50_us"] = phase("service", false)
	m["service.persist_p50_us"] = phase("persist", false)
	m["service.batch_wait_p50_us"] = phase("batch_wait", false)
	m["service.shed_frac"] = ratio(float64(res.Dropped), float64(res.Offered))
	m["service.util"] = res.Utilization(pt.workers)
	m["service.gen_ratio"] = res.OfferedRate / (kops * 1e3)
	if pt.log != nil {
		c := pt.log.Counters()
		m["pmem.fence_per_op"] = ratio(float64(c.Batches), float64(c.BatchOps))
		m["pmem.batch_fill"] = ratio(float64(c.BatchOps), float64(c.Batches))
	}
	if pt.cl != nil {
		c := pt.cl.CacheCounters()
		m["hottier.hit_rate"] = c.HitRate()
		m["hottier.evictions"] = float64(c.Evictions)
	}
	var top int64
	for _, s := range res.Shards {
		if s.Completed > top {
			top = s.Completed
		}
	}
	m["cluster.max_shard_share"] = ratio(float64(top), float64(res.Completed))
}

// kneeKops is the highest grid load whose p99 meets p99Limit while the
// platform completes at least 95% of the load the arrival process
// generated (no growing backlog).
func kneeKops(curve []curvePoint) float64 {
	var knee float64
	for _, cp := range curve {
		if cp.p99 <= p99Limit.Nanoseconds() && cp.achievedKops >= 0.95*cp.genKops && cp.kops > knee {
			knee = cp.kops
		}
	}
	return knee
}

func pointAt(curve []curvePoint, kops float64) curvePoint {
	for _, cp := range curve {
		if cp.kops == kops {
			return cp
		}
	}
	return curvePoint{}
}

// curveNote renders one leg's curve: offered kops → achieved kops / p99 µs.
func curveNote(leg string, curve []curvePoint, knee float64) string {
	s := fmt.Sprintf("curve %s knee=%g:", leg, knee)
	for _, cp := range curve {
		s += fmt.Sprintf(" %g→%.0f/%.3g", cp.kops, cp.achievedKops, cp.p99/1e3)
	}
	return s
}
