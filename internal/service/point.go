package service

import (
	"fmt"

	"optanestudy/internal/devstat"
	"optanestudy/internal/harness"
	"optanestudy/internal/hottier"
	"optanestudy/internal/memmode"
	"optanestudy/internal/platform"
	"optanestudy/internal/pmem"
	"optanestudy/internal/sim"
	"optanestudy/internal/telemetry"
)

// FabricSpec is what RunPoint hands a point scenario's fabric builder:
// the platform and the shared params that shape the store.
type FabricSpec struct {
	Platform *platform.Platform
	// Backend names the store; BackendSpec is its preload geometry.
	Backend     string
	BackendSpec BackendSpec
	// Tier is "", "hot" or "memmode". Cache is the hot tier's config less
	// its Name and Socket; its CapacityBytes is the DRAM budget, which
	// sizes the near cache under memmode.
	Tier  string
	Cache hottier.Config
	// PutLog asks for write-behind logging on per-worker logs of
	// LogRegion bytes.
	PutLog    bool
	LogRegion int64
	// QueueCap bounds each admission queue (0: Serve's default).
	QueueCap int
}

// Fabric is what a builder returns beside the topology it wires into the
// serving Config.
type Fabric struct {
	// Workers is the pool size util divides by.
	Workers int
	// Cache, when set, snapshots the DRAM hot tiers' merged counters.
	Cache func() hottier.Counters
	// Near, when set, is the Memory-Mode near cache.
	Near *memmode.Memory
	// Metrics, when set, adds the fabric's own readout after the shared
	// one; dw is nil unless devstat=1.
	Metrics func(m map[string]float64, res *Result, dw *devstat.Watcher)
}

// RunPoint measures one open-loop load level; every serving point
// scenario ends here. It reads and checks the shared point params (the
// caller reads its own from r first), builds the tenants, the arrival and
// the platform, then calls build. The builder builds the scenario's
// backends, tiers and logs and wires their topology into cfg: the flat
// Backend, Workers, QueueCap and PutLog, or Shards and Route, plus any
// Faults and Detect. RunPoint then registers the trace probes and the
// devstat watcher, serves, and emits the shared readout, the fabric's
// own and the trace.
func RunPoint(spec harness.Spec, r *harness.ParamReader, build func(fs FabricSpec, cfg *Config) (*Fabric, error)) (harness.Trial, error) {
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
		return harness.Trial{}, fmt.Errorf("service: tenants must be >= 1, got %d", tenants)
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
		case "hotsplit":
			// Tenant 0 is the skewed hot-range tenant; the rest stay
			// uniform, so shed accounting shows who a hot shard drops.
			if i == 0 {
				tens[i].HotFrac = hotFrac
				tens[i].HotKeys = hotKeys
				tens[i].HotPeriod = hotPeriod
			}
		default:
			return harness.Trial{}, fmt.Errorf("service: unknown key mix %q (want zipf, uniform, split, hotspot or hotsplit)", mix)
		}
	}
	arr, err := NewArrival(arrival, offered*1e3, sim.Micros(cycleUS), onFrac, spec.Seed^0x5A17)
	if err != nil {
		return harness.Trial{}, err
	}

	pcfg := platform.DefaultConfig()
	pcfg.TrackData = true
	pcfg.XP.Wear.Enabled = false
	if llcKB > 0 {
		// Cache scenarios shrink the LLC so the working set actually lives
		// beyond it: with the calibrated 12 MB LLC, a small keyspace becomes
		// LLC-resident after warmup and a DRAM tier would measure nothing.
		pcfg.LLC.Lines = int(llcKB << 10 / 64)
	}
	p := platform.MustNew(pcfg)
	defer p.Close()

	region := int64(2 << 20)
	if rec := int64(8 + keySize + valSize); region < 4*rec {
		region = 4 * rec // oversized records: keep several per wrap
	}
	cfg := Config{
		Platform: p, Socket: spec.Socket,
		Arrival: arr, Tenants: tens,
		Keys: keys, KeySize: keySize, ValSize: valSize,
		GetFrac: getFrac, PutFrac: putFrac, ScanFrac: scanFrac, DelFrac: delFrac,
		ScanLen:  scanLen,
		Duration: spec.Duration, Warmup: spec.Warmup,
		Poll: sim.Nanos(pollNS), Seed: spec.Seed,
		BatchSize: batch, BatchLinger: sim.Nanos(lingerNS),
	}
	f, err := build(FabricSpec{
		Platform: p,
		Backend:  backend,
		BackendSpec: BackendSpec{
			Media: media, Mode: mode,
			Keys: int64(tenants) * keys, KeySize: keySize, ValSize: valSize,
			PMBytes: pmBytes, DRAMBytes: dramBytes,
			ScanSpan: keys, NativeScan: nativeScan,
		},
		Tier: tierKind,
		Cache: hottier.Config{
			CapacityBytes: cacheBytes, RecordBytes: valSize,
			Admit: admit, Policy: evict,
			TenantSpan: keys, QuotaBytes: quotaBytes,
			Seed: spec.Seed ^ 0x407C,
		},
		PutLog: putlog, LogRegion: region,
		QueueCap: qcap,
	}, &cfg)
	if err != nil {
		return harness.Trial{}, err
	}
	// Probe registration order fixes the trace's gauge vector: append
	// logs, then devices, then the DRAM tier.
	if spec.Trace {
		cfg.Recorder = telemetry.NewRecorder(TraceInterval(spec.Duration), 0)
		if putlog {
			cfg.Recorder.AddProbe(func(add func(string, float64)) {
				c := logCounters(&cfg)
				c.Gauges(add)
			})
		}
		AddDeviceProbes(cfg.Recorder, p)
		switch {
		case f.Cache != nil:
			cfg.Recorder.AddProbe(func(add func(string, float64)) { f.Cache().Gauges(add) })
			cfg.CacheStats = func() (int64, int64) {
				c := f.Cache()
				return c.Hits, c.Misses
			}
		case f.Near != nil:
			cfg.Recorder.AddProbe(func(add func(string, float64)) {
				hits, misses, writebacks := f.Near.Stats()
				add("cache_hits", float64(hits))
				add("cache_misses", float64(misses))
				add("memmode_writebacks", float64(writebacks))
			})
			cfg.CacheStats = func() (int64, int64) {
				hits, misses, _ := f.Near.Stats()
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
	res, err := Serve(cfg)
	if err != nil {
		return harness.Trial{}, err
	}

	qs := res.Latency.Quantiles([]float64{0.5, 0.95, 0.99, 0.999})
	m := map[string]float64{
		"offered_kops":  res.OfferedRate / 1e3,
		"achieved_kops": res.AchievedRate / 1e3,
		"drop_frac":     DropFrac(res.Dropped, res.Offered),
		"p50_ns":        qs[0],
		"p95_ns":        qs[1],
		"p99_ns":        qs[2],
		"p999_ns":       qs[3],
		"util":          res.Utilization(f.Workers),
		"qmax":          float64(res.MaxQueueLen),
	}
	for i := range res.Tenants {
		t := &res.Tenants[i]
		m[fmt.Sprintf("t%d_p99_ns", i)] = t.Latency.Percentile(0.99)
		m[fmt.Sprintf("t%d_drop_frac", i)] = DropFrac(t.Dropped, t.Offered)
		// Per-tenant shed accounting appears once the run actually sheds,
		// keeping the light-load baseline scenarios' output byte-stable
		// while skewed overload runs show who gets dropped. The gate
		// depends only on the result, never on the schedule.
		harness.GateMetric(m, res.Dropped > 0, fmt.Sprintf("t%d_shed_ops", i), float64(t.Dropped))
	}
	// The gated readouts below add keys only when their feature is on, so
	// every scenario without it keeps its output byte-stable: fence
	// amortization on the batch path, the DRAM tier, and devstat.
	harness.GateMetrics(m, batch > 1 && putlog, func(m map[string]float64) {
		c := logCounters(&cfg)
		c.Metrics(m)
	})
	harness.GateMetrics(m, f.Cache != nil, func(m map[string]float64) {
		f.Cache().Metrics(m)
	})
	harness.GateMetrics(m, f.Near != nil, func(m map[string]float64) {
		hits, misses, writebacks := f.Near.Stats()
		m["cache_hits"] = float64(hits)
		m["cache_misses"] = float64(misses)
		m["cache_evictions"] = float64(f.Near.Evictions())
		if hits+misses > 0 {
			m["cache_hit_rate"] = float64(hits) / float64(hits+misses)
		} else {
			m["cache_hit_rate"] = 0
		}
		m["memmode_writebacks"] = float64(writebacks)
	})
	harness.GateMetrics(m, dw != nil, func(m map[string]float64) {
		dw.Window().Metrics(m)
	})
	if f.Metrics != nil {
		f.Metrics(m, res, dw)
	}
	tr := harness.Trial{
		Ops:     res.Completed,
		Sim:     res.Window,
		Latency: res.Latency,
		Metrics: m,
	}
	if cfg.Recorder != nil {
		run := cfg.Recorder.Finish("")
		run.Metrics(m)
		tr.Trace = &telemetry.Trace{Runs: []*telemetry.Run{run}}
	}
	return tr, nil
}

// logCounters merges the run's append-log counters. It reads the logs from
// cfg on every call because a promotion swaps a shard's log for its
// standby's in place.
func logCounters(cfg *Config) pmem.Counters {
	var c pmem.Counters
	merge := func(l *AppendLog) {
		if l != nil {
			cc := l.Counters()
			c.Merge(&cc)
		}
	}
	merge(cfg.PutLog)
	for i := range cfg.Shards {
		merge(cfg.Shards[i].PutLog)
	}
	return c
}

// DropFrac is the shed share of offered requests, 0 when none were
// offered.
func DropFrac(dropped, offered int64) float64 {
	if offered == 0 {
		return 0
	}
	return float64(dropped) / float64(offered)
}
