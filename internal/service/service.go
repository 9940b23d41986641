// Package service is a simulated request-serving frontend: open-loop
// traffic generation against the repository's KV backends.
//
// Everything else in the study is closed-loop — a fixed thread count
// hammers the platform and reports mean latency or bandwidth. The paper's
// third best practice (limit the number of threads contending for a DIMM)
// is fundamentally a load-versus-tail-latency phenomenon, so this package
// models the serving side: arrival processes (deterministic-rate, Poisson,
// bursty) generate timestamped requests with per-tenant Zipf or uniform
// key mixes; a dispatcher admits them to a bounded FIFO queue (full queue
// ⇒ load shedding); a pool of simulated worker threads executes GET / PUT
// / SCAN against the backend; and per-tenant end-to-end latency — queueing
// delay plus service time — lands in stats.Histogram tail percentiles.
// Load sweeps (sweep.go) step offered load across a grid to produce the
// throughput-versus-p50/p99 curve and locate the saturation knee.
package service

import (
	"errors"
	"fmt"

	"optanestudy/internal/fault"
	"optanestudy/internal/platform"
	"optanestudy/internal/sim"
	"optanestudy/internal/stats"
	"optanestudy/internal/telemetry"
	"optanestudy/internal/workload"
)

// Op is a request kind.
type Op int

// Request kinds.
const (
	OpGet Op = iota
	OpPut
	OpScan
	OpDel
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpScan:
		return "SCAN"
	default:
		return "DEL"
	}
}

// Tenant is one traffic class sharing the frontend. Tenants draw keys from
// disjoint key ranges so popularity skew is per-tenant.
type Tenant struct {
	Name string
	// Theta is the Zipfian skew of the tenant's key popularity, in (0, 1);
	// 0 selects uniform.
	Theta float64
	// HotFrac > 0 selects a shifting-hotspot key mix instead (ignoring
	// Theta): HotFrac of draws land in a window of HotKeys consecutive ids
	// that relocates every HotPeriod draws (workload.ShiftingHotspot) —
	// the moving-skew mix cluster sweeps use to drive load onto one shard
	// at a time.
	HotFrac   float64
	HotKeys   int64
	HotPeriod int64
}

// Shard is one dispatch target of a sharded serving run: its own backend,
// bounded admission queue and worker pool, with the workers placed on an
// explicit socket. The cluster layer builds one Shard per placement slot.
type Shard struct {
	Backend Backend
	// Workers is this shard's pool size.
	Workers int
	// QueueCap bounds this shard's admission queue (default 32×Workers).
	QueueCap int
	// Socket places this shard's worker threads.
	Socket int
	// PutLog, when set, switches this shard's PUTs to write-behind logging
	// on per-worker appenders (indexed by shard-local worker id).
	PutLog *AppendLog
	// Repl, when set, replicates this shard: every logged PUT is mirrored
	// through it (shipping synchronously while the standby is synced), and
	// fault events fail the shard over through it. Requires PutLog.
	Repl Replicator
}

// Config configures one open-loop serving run.
type Config struct {
	Platform *platform.Platform
	Backend  Backend
	// Socket places the worker threads.
	Socket int
	// Workers is the service thread-pool size.
	Workers int
	// QueueCap bounds the admission queue; a request arriving when the
	// queue is full is shed (counted, not served). Defaults to 32×Workers.
	QueueCap int
	// Arrival is the seeded offered-load process.
	Arrival Arrival
	// Tenants share the offered load equally (round-robin-free random
	// pick); at least one is required.
	Tenants []Tenant
	// Keys is the per-tenant key-space size; tenant i owns global ids
	// [i*Keys, (i+1)*Keys).
	Keys             int64
	KeySize, ValSize int
	// GetFrac/PutFrac/ScanFrac/DelFrac select the op mix; they must sum
	// to ~1.
	GetFrac, PutFrac, ScanFrac, DelFrac float64
	// ScanLen is the number of consecutive keys a SCAN reads.
	ScanLen int
	// PutLog, when set, switches PUT to write-behind logging: the record
	// is made durable on the worker's private append log (one sequential
	// NT stream per worker) instead of updating the backend in place —
	// the contention-study configuration. It must have at least Workers
	// per-worker logs.
	PutLog *AppendLog
	// Shards, when non-empty, serves through shard-aware dispatch: the
	// router sends each request to its shard's own bounded queue and
	// worker pool. The flat Backend/Workers/QueueCap/PutLog fields must
	// then be unset — every dispatch target is a Shard.
	Shards []Shard
	// Route maps a request's global key id to a shard index. Required when
	// len(Shards) > 1; a single shard (or the flat configuration) routes
	// everything to shard 0.
	Route func(key int64) int
	// Duration is the measured window; Warmup precedes it (requests
	// arriving during warmup are served but not recorded).
	Duration sim.Time
	Warmup   sim.Time
	// Poll is the idle worker's queue re-check interval (default 200 ns).
	Poll sim.Time
	// BatchSize is the group-commit depth: a worker drains up to
	// max(BatchSize, 1) admitted requests per wakeup. Above 1, every
	// logged PUT in the group is journaled through ONE fence (a
	// pmem.Appender group commit), so the fence cost amortizes across the
	// batch. At 0 or 1 a worker serves one request per wakeup and a
	// logged PUT persists through its own Append and fence.
	BatchSize int
	// BatchLinger bounds the latency a partially-filled batch may add: a
	// worker that drained fewer than BatchSize requests waits at most
	// BatchLinger for stragglers before committing what it has. 0 commits
	// short batches immediately.
	BatchLinger sim.Time
	Seed        uint64
	// Faults is the run's deterministic fault schedule, sorted by time on
	// the serving clock (warmup included — an event at cfg.Warmup + t
	// fires t into the measured window). Crash, Leave and Join events
	// require the target shard to carry a Replicator; Stall only needs the
	// shard to exist. Empty (the default) keeps every fault branch off the
	// hot path's nil checks, so fault-free runs are byte-identical to
	// pre-fault builds.
	Faults []fault.Event
	// Detect is the crash-detection delay: a failover starts Detect after
	// the crash instant (default 0 — promotion starts immediately).
	Detect sim.Time
	// Recorder, when non-nil, traces every measured request's phase span
	// (queue-wait → batch-wait → service → persist) and, when its
	// sampling interval is set, spawns a read-only timeline sampler proc.
	// nil (the default) keeps the dispatch hot path branch-cheap and
	// allocation-free — span structs are only built behind the nil check.
	Recorder *telemetry.Recorder
	// CacheStats, when set alongside Recorder, snapshots the DRAM tier's
	// cumulative read hits/misses so spans attribute each GET as a tier
	// hit or miss (the counters are differenced around the GET).
	CacheStats func() (hits, misses int64)
}

// TenantStats is one tenant's outcome over the measured window.
type TenantStats struct {
	Name      string
	Offered   int64 // requests generated
	Dropped   int64 // shed at the admission queue
	Completed int64 // served to completion
	// Latency is the end-to-end distribution (ns): queueing delay plus
	// backend service time.
	Latency *stats.Histogram
}

// ShardStats is one dispatch target's outcome over the measured window.
type ShardStats struct {
	Offered, Dropped, Completed int64
	// Latency is the shard's end-to-end distribution; Result.Latency is
	// the cross-shard stats.Histogram merge.
	Latency *stats.Histogram
	// WorkerBusy is the shard pool's cumulative in-service time.
	WorkerBusy sim.Time
	// QueueResidency integrates this shard's queue occupancy over time;
	// MaxQueueLen is its high-water mark.
	QueueResidency sim.Time
	MaxQueueLen    int
}

// Result is the outcome of one serving run.
type Result struct {
	Tenants []TenantStats
	// Shards is the per-dispatch-target breakdown; a flat single-backend
	// run reports one entry.
	Shards []ShardStats
	// Latency merges every tenant's end-to-end histogram.
	Latency *stats.Histogram
	// Window is the measured window (= Config.Duration).
	Window sim.Time
	// Offered/Dropped/Completed aggregate the tenants.
	Offered, Dropped, Completed int64
	// OfferedRate and AchievedRate are ops per simulated second over the
	// window.
	OfferedRate, AchievedRate float64
	// WorkerBusy is cumulative in-service worker time (utilization =
	// WorkerBusy / (Workers × Window)).
	WorkerBusy sim.Time
	// QueueResidency is the integral of queue occupancy over time (the
	// aggregate queueing delay); MaxQueueLen is the high-water mark.
	QueueResidency sim.Time
	MaxQueueLen    int
	// Failover is the per-shard fault/failover breakdown, indexed like
	// Shards; nil when the run configured no replication and no faults.
	Failover []FailoverStats
}

// Utilization returns the worker pool's busy fraction over the window.
func (r *Result) Utilization(workers int) float64 {
	if workers <= 0 || r.Window <= 0 {
		return 0
	}
	return float64(r.WorkerBusy) / (float64(workers) * float64(r.Window))
}

// request is one admitted unit of work. Admission is immediate (a full
// queue sheds instead of delaying), so the arrival timestamp is also the
// enqueue timestamp.
type request struct {
	tenant   int
	op       Op
	key      int64 // global key id
	arrival  sim.Time
	drained  sim.Time // stamped by popN: when a worker took the request
	measured bool
}

// keyGen draws key ids from one tenant's range.
type keyGen struct {
	base int64
	n    int64
	zipf *workload.Zipf
	hot  *workload.ShiftingHotspot
	rng  *sim.RNG
}

func (g *keyGen) next() int64 {
	switch {
	case g.hot != nil:
		return g.base + g.hot.Next()
	case g.zipf != nil:
		return g.base + g.zipf.Next()
	}
	return g.base + g.rng.Int63n(g.n)
}

// shardState is one shard's queue and accounting. Procs run one at a time
// and only hand off at explicit time advances, so no locking.
type shardState struct {
	queue sim.Queue[request] // admitted requests, oldest first
	cap   int                // admission capacity: a full queue sheds
	// occ integrates queue occupancy over time: each drained request
	// adds its residency (drain − arrival). maxLen is the depth
	// high-water mark.
	occ       sim.Time
	maxLen    int
	idx       int // shard index, for span attribution
	busy      sim.Time
	offered   int64
	dropped   int64
	completed int64
	latency   *stats.Histogram
	// fo is the shard's fault/failover state; nil on fault-free shards,
	// keeping the dispatch and worker hot paths one nil-check away from
	// their pre-fault form.
	fo *failoverState
}

// serveState is the dispatcher/worker shared state.
type serveState struct {
	shards  []shardState
	closed  bool
	tenants []TenantStats
	// rec is the trace recorder (nil = tracing off, the hot-path default);
	// cacheStats is the GET hit/miss attribution snapshot; warmEnd anchors
	// fault/failover event timestamps to the measured window's clock.
	rec        *telemetry.Recorder
	cacheStats func() (hits, misses int64)
	warmEnd    sim.Time
}

// full reports whether the admission queue is at capacity (the shed
// condition).
func (s *shardState) full() bool { return s.queue.Len() >= s.cap }

func (s *shardState) push(r request) {
	if s.full() {
		panic("service: push on a full shard queue")
	}
	s.queue.Push(r)
	s.maxLen = max(s.maxLen, s.queue.Len())
}

// popN batch-drains up to n admitted requests at time now, appending
// them to dst (which the caller sizes to its batch capacity, so the
// steady state never reallocates) and closing each one's queue
// residency.
func (s *shardState) popN(now sim.Time, n int, dst []request) []request {
	for ; n > 0 && s.queue.Len() > 0; n-- {
		r := s.queue.Pop()
		r.drained = now
		s.occ += now - r.arrival
		dst = append(dst, r)
	}
	return dst
}

// occupancyAt is the occupancy integral as of now: the residency closed
// by popN plus each queued request's accrual so far. It retires nothing,
// so a timeline sampler can difference successive reads into mean queue
// depth per interval.
func (s *shardState) occupancyAt(now sim.Time) sim.Time {
	t := s.occ
	for i := range s.queue.Len() {
		if a := s.queue.At(i).arrival; a < now {
			t += now - a
		}
	}
	return t
}

// Serve runs one open-loop serving experiment on the platform. The
// platform must already hold the preloaded backend(s); Serve spawns the
// dispatcher and worker procs and runs the simulation to completion
// (admitted requests are drained past the deadline so tails are not
// truncated).
//
// Dispatch is shard-aware: with cfg.Shards set, the dispatcher routes each
// request's key through cfg.Route to that shard's own bounded queue and
// worker pool. The flat single-backend configuration is served through the
// identical machinery as one shard — except that it draws a request's key
// only after admission (routing is not needed to pick the queue), keeping
// its per-tenant RNG streams, and therefore all pre-cluster scenario
// results, exactly as they were before shards existed.
func Serve(cfg Config) (*Result, error) {
	if cfg.Platform == nil {
		return nil, errors.New("service: platform and backend required")
	}
	sharded := len(cfg.Shards) > 0
	shards := cfg.Shards
	if sharded {
		if cfg.Backend != nil || cfg.PutLog != nil || cfg.Workers != 0 || cfg.QueueCap != 0 {
			return nil, errors.New("service: flat backend fields must be unset when Shards is given")
		}
		if len(shards) > 1 && cfg.Route == nil {
			return nil, errors.New("service: a route function is required with more than one shard")
		}
	} else {
		if cfg.Backend == nil {
			return nil, errors.New("service: platform and backend required")
		}
		if cfg.Workers < 1 {
			return nil, errors.New("service: at least one worker required")
		}
		shards = []Shard{{
			Backend: cfg.Backend, Workers: cfg.Workers, QueueCap: cfg.QueueCap,
			Socket: cfg.Socket, PutLog: cfg.PutLog,
		}}
	}
	if cfg.Arrival == nil {
		return nil, errors.New("service: arrival process required")
	}
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("service: at least one tenant required")
	}
	if cfg.Keys < 1 || cfg.KeySize < 8 || cfg.ValSize < 8 || cfg.Duration <= 0 {
		return nil, errors.New("service: bad keyspace or duration")
	}
	total := cfg.GetFrac + cfg.PutFrac + cfg.ScanFrac + cfg.DelFrac
	if total <= 0 {
		return nil, errors.New("service: op mix fractions must sum > 0")
	}
	caps := make([]int, len(shards))
	for i := range shards {
		sh := &shards[i]
		if sh.Backend == nil {
			return nil, fmt.Errorf("service: shard %d has no backend", i)
		}
		if sh.Workers < 1 {
			return nil, fmt.Errorf("service: shard %d needs at least one worker", i)
		}
		if sh.PutLog != nil && sh.PutLog.Workers() < sh.Workers {
			return nil, errors.New("service: append log has fewer per-worker logs than workers")
		}
		caps[i] = sh.QueueCap
		if caps[i] < 1 {
			caps[i] = 32 * sh.Workers
		}
	}
	if cfg.ScanLen < 1 {
		cfg.ScanLen = 16
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * sim.Nanosecond
	}
	if err := validateFaults(&cfg, shards); err != nil {
		return nil, err
	}

	p := cfg.Platform
	st := &serveState{
		shards:     make([]shardState, len(shards)),
		tenants:    make([]TenantStats, len(cfg.Tenants)),
		rec:        cfg.Recorder,
		cacheStats: cfg.CacheStats,
	}
	for i := range st.shards {
		st.shards[i].idx = i
		st.shards[i].latency = stats.NewHistogram()
		st.shards[i].cap = caps[i]
	}
	// Fault machinery exists only on shards that need it: replicated
	// shards and stall targets. Everything else keeps a nil fo.
	hasFaults := false
	for i := range shards {
		if shards[i].Repl != nil {
			st.shards[i].fo = newFailoverState(shards[i].Repl)
			hasFaults = true
		}
	}
	for _, ev := range cfg.Faults {
		if st.shards[ev.Shard].fo == nil {
			st.shards[ev.Shard].fo = newFailoverState(nil)
			hasFaults = true
		}
	}
	gens := make([]*keyGen, len(cfg.Tenants))
	for i, tn := range cfg.Tenants {
		st.tenants[i] = TenantStats{Name: tn.Name, Latency: stats.NewHistogram()}
		g := &keyGen{base: int64(i) * cfg.Keys, n: cfg.Keys}
		seed := cfg.Seed + uint64(i)*7349 + 11
		switch {
		case tn.HotFrac > 0:
			hotKeys, period := tn.HotKeys, tn.HotPeriod
			if hotKeys < 1 || hotKeys > cfg.Keys || period < 1 || tn.HotFrac > 1 {
				return nil, fmt.Errorf("service: tenant %q has a bad hotspot mix (frac=%g keys=%d period=%d)",
					tn.Name, tn.HotFrac, hotKeys, period)
			}
			g.hot = workload.NewShiftingHotspot(cfg.Keys, hotKeys, period, tn.HotFrac, seed)
		case tn.Theta > 0:
			g.zipf = workload.NewZipf(cfg.Keys, tn.Theta, seed)
		default:
			g.rng = sim.NewRNG(seed)
		}
		gens[i] = g
	}

	start := p.Now()
	warmEnd := start + cfg.Warmup
	st.warmEnd = warmEnd
	deadline := warmEnd + cfg.Duration
	getCut := cfg.GetFrac / total
	putCut := (cfg.GetFrac + cfg.PutFrac) / total
	scanCut := (cfg.GetFrac + cfg.PutFrac + cfg.ScanFrac) / total

	// Dispatcher: walks arrival timestamps, stamps each request with its
	// tenant, op and key, routes it to a shard, and either admits it to
	// that shard's queue or sheds it. The engine runs it as a Waiter: each
	// wake-up dispatches the request arriving at t and draws the next
	// arrival, and the one whose draw passes the deadline, or whose route
	// fails, closes the run.
	var runErr error
	p.Go("serve-arrivals", cfg.Socket, func(ctx *platform.MemCtx) {
		pick := sim.NewRNG(cfg.Seed*0x9E37 + 0xA441)
		t := start + cfg.Arrival.Next()
		if t >= deadline {
			st.closed = true
			return
		}
		ctx.Proc().Wait(t, sim.WaitFunc(func(sim.Time) (sim.Time, bool) {
			ti := pick.Intn(len(cfg.Tenants))
			var op Op
			switch u := pick.Float64(); {
			case u < getCut:
				op = OpGet
			case u < putCut:
				op = OpPut
			case u < scanCut || cfg.DelFrac <= 0:
				// The DelFrac guard keeps a zero delete fraction exactly
				// delete-free (scanCut can round a hair below 1.0).
				op = OpScan
			default:
				op = OpDel
			}
			measured := t >= warmEnd
			if measured {
				st.tenants[ti].Offered++
			}
			// Routing needs the key, so sharded dispatch draws it before
			// the admission check (a shed request still consumed a draw —
			// open-loop clients do not know the queue is full when they
			// pick a key). The flat configuration draws it only once
			// admitted.
			var key int64
			si := 0
			if sharded {
				key = gens[ti].next()
				if cfg.Route != nil {
					si = cfg.Route(key)
				}
				if si < 0 || si >= len(st.shards) {
					runErr = fmt.Errorf("service: route sent key %d to shard %d of %d", key, si, len(st.shards))
					st.closed = true
					return t, true
				}
			}
			sh := &st.shards[si]
			if measured {
				sh.offered++
			}
			if !sh.full() {
				if !sharded {
					key = gens[ti].next()
				}
				sh.push(request{tenant: ti, op: op, key: key, arrival: t, measured: measured})
			} else if measured {
				st.tenants[ti].Dropped++
				sh.dropped++
				if fo := sh.fo; fo != nil && fo.inWindow {
					fo.st.ShedWindow++
				}
				st.rec.RecordShed(ti, si)
			}
			t += cfg.Arrival.Next()
			if t >= deadline {
				st.closed = true
				return t, true
			}
			return t, false
		}))
	})

	// Workers: per-shard drain-execute loops. A worker drains up to depth
	// admitted requests per wakeup and runs them as one executeBatch
	// group; an idle worker re-polls its shard's queue every cfg.Poll, and
	// after the dispatcher closes, workers drain the backlog so admitted
	// requests always complete. The engine runs the polls: an idle worker
	// waits on idle, which makes the loop's checks in the loop's order at
	// each poll and lets the worker on once one of them would.
	depth := max(cfg.BatchSize, 1)
	for si := range shards {
		shard := &shards[si]
		sh := &st.shards[si]
		for w := 0; w < shard.Workers; w++ {
			name := fmt.Sprintf("serve-worker%d", w)
			if sharded {
				name = fmt.Sprintf("serve-s%dw%d", si, w)
			}
			p.Go(name, shard.Socket, func(ctx *platform.MemCtx) {
				proc := ctx.Proc()
				sc := newOpScratch(cfg)
				batch := make([]request, 0, depth)
				fo := sh.fo
				idle := sim.WaitFunc(func(now sim.Time) (sim.Time, bool) {
					switch {
					case runErr != nil:
						return now, true
					case fo != nil && fo.blocked(now):
					case sh.queue.Len() > 0 || st.closed:
						return now, true
					}
					return now + cfg.Poll, false
				})
				for runErr == nil {
					if fo != nil && fo.blocked(proc.Now()) {
						// Shard storage is down or stalled: the pool
						// survives (the frontend lives on) but cannot
						// serve until promotion or the stall deadline.
						proc.Wait(proc.Now()+cfg.Poll, idle)
						continue
					}
					batch = sh.popN(proc.Now(), depth, batch[:0])
					if len(batch) == 0 {
						if st.closed {
							return
						}
						proc.Wait(proc.Now()+cfg.Poll, idle)
						continue
					}
					// Linger for stragglers when the batch came up short —
					// but the linger deadline runs from the OLDEST drained
					// request's arrival, so a request is never held more
					// than BatchLinger past its arrival before execution
					// starts. Under backlog the oldest request has already
					// aged past the deadline and the group commits
					// immediately: linger adds latency only at light load,
					// and at most BatchLinger of it.
					if len(batch) < depth && cfg.BatchLinger > 0 && !st.closed {
						if dl := batch[0].arrival + cfg.BatchLinger; dl > proc.Now() {
							proc.Sleep(dl - proc.Now())
							batch = sh.popN(proc.Now(), depth-len(batch), batch)
						}
					}
					t0 := proc.Now()
					if err := executeBatch(ctx, cfg, shard, w, batch, sc, sh, st); err != nil {
						runErr = err
						return
					}
					sh.busy += proc.Now() - t0
				}
			})
		}
	}
	if len(cfg.Faults) > 0 {
		runFaultDriver(p, cfg, shards, st, &runErr)
	}
	// Timeline sampler: a read-only proc waking at the recorder's fixed
	// sim-time interval over the measured window, snapshotting cumulative
	// counters. Its first sample, at the window's opening instant, is the
	// baseline the renderers difference the first interval against: the
	// probe gauges count from platform start, so zero is no baseline. It
	// mutates nothing the serving procs observe, so traced results equal
	// untraced ones; and everything it reads derives from sim time, so
	// traced output is byte-identical at any -parallel width.
	if st.rec != nil && st.rec.Interval() > 0 {
		iv := st.rec.Interval()
		p.Go("trace-sampler", cfg.Socket, func(ctx *platform.MemCtx) {
			proc := ctx.Proc()
			for t := warmEnd; t <= deadline; t += iv {
				proc.AdvanceTo(t)
				st.sample(t-warmEnd, t)
			}
		})
	}

	p.Run()
	if runErr != nil {
		return nil, runErr
	}

	res := &Result{
		Tenants: st.tenants,
		Shards:  make([]ShardStats, len(st.shards)),
		Latency: stats.NewHistogram(),
		Window:  cfg.Duration,
	}
	for i := range st.shards {
		sh := &st.shards[i]
		res.Shards[i] = ShardStats{
			Offered: sh.offered, Dropped: sh.dropped, Completed: sh.completed,
			Latency: sh.latency, WorkerBusy: sh.busy,
			QueueResidency: sh.occ, MaxQueueLen: sh.maxLen,
		}
		res.WorkerBusy += sh.busy
		res.QueueResidency += sh.occ
		res.MaxQueueLen = max(res.MaxQueueLen, sh.maxLen)
	}
	for i := range st.tenants {
		res.Offered += st.tenants[i].Offered
		res.Dropped += st.tenants[i].Dropped
		res.Completed += st.tenants[i].Completed
		res.Latency.Merge(st.tenants[i].Latency)
	}
	res.OfferedRate = float64(res.Offered) / cfg.Duration.Seconds()
	res.AchievedRate = float64(res.Completed) / cfg.Duration.Seconds()
	if hasFaults {
		res.Failover = make([]FailoverStats, len(st.shards))
		for i := range st.shards {
			if fo := st.shards[i].fo; fo != nil {
				res.Failover[i] = fo.st
			} else {
				res.Failover[i] = FailoverStats{WindowLatency: stats.NewHistogram()}
			}
		}
	}
	return res, nil
}

// opScratch is one worker's reusable key/value rendering buffers: the
// dispatch hot path renders into these instead of allocating per op
// (backends copy on insert, so reuse across requests is safe). Pinned at
// zero allocations per op above depth 1 by TestDispatchZeroAlloc. edges
// is the traced group-commit path's per-op execution-interval buffer (nil
// when tracing is off or depth is 1), sized to the batch so the steady
// state never reallocates.
type opScratch struct {
	key, val []byte
	edges    []opEdge
}

// opEdge is one staged PUT's execution interval, buffered so its span can
// be closed at the group's commit fence (traced runs only).
type opEdge struct {
	start, end sim.Time
}

func newOpScratch(cfg Config) *opScratch {
	sc := &opScratch{key: make([]byte, cfg.KeySize), val: make([]byte, cfg.ValSize)}
	if cfg.Recorder != nil && cfg.BatchSize > 1 {
		sc.edges = make([]opEdge, 0, cfg.BatchSize)
	}
	return sc
}

// record books one completed request at time end.
func (st *serveState) record(sh *shardState, req request, end sim.Time) {
	if fo := sh.fo; fo != nil && fo.inWindow {
		if fo.noteCompletion(req, end, sh.queue.Len() == 0) {
			st.event("caught-up", sh.idx, end)
		}
	}
	if !req.measured {
		return
	}
	lat := (end - req.arrival).Nanoseconds()
	st.tenants[req.tenant].Latency.Add(lat)
	st.tenants[req.tenant].Completed++
	sh.completed++
	sh.latency.Add(lat)
}

// attributeCache resolves a traced GET's DRAM-tier outcome from the
// cumulative hit counter snapshotted before the op executed.
func (st *serveState) attributeCache(span *telemetry.OpSpan, req request, hits0 int64) {
	if st.cacheStats == nil || req.op != OpGet {
		return
	}
	if h1, _ := st.cacheStats(); h1 > hits0 {
		span.CacheHit = 1
	} else {
		span.CacheHit = 0
	}
}

// sample snapshots one timeline instant at sim time now; rel is now
// relative to the measured window's start.
func (st *serveState) sample(rel, now sim.Time) {
	s := telemetry.Sample{TNS: int64(rel / sim.Nanosecond)}
	for i := range st.tenants {
		s.Offered += st.tenants[i].Offered
		s.Dropped += st.tenants[i].Dropped
		s.Completed += st.tenants[i].Completed
	}
	s.Shards = make([]telemetry.ShardSample, len(st.shards))
	for i := range st.shards {
		sh := &st.shards[i]
		s.Shards[i] = telemetry.ShardSample{
			Offered: sh.offered, Dropped: sh.dropped, Completed: sh.completed,
			QDepth: sh.queue.Len(), QOccNS: sh.occupancyAt(now).Nanoseconds(),
		}
	}
	st.rec.Sample(s)
}

// execute runs one request against its shard's backend. A SCAN goes
// through Backend.Scan — lsmkv's native sorted merge walk, or the emulated
// consecutive point reads wrapping inside the tenant's keyspace shard.
// worker is the shard-local worker id (the PutLog appender index).
func execute(ctx *platform.MemCtx, cfg Config, shard *Shard, worker int, req request, sc *opScratch) error {
	KeyInto(sc.key, req.key)
	switch req.op {
	case OpGet:
		shard.Backend.GetInto(ctx, sc.key, sc.val)
		return nil
	case OpPut:
		ValInto(sc.val, req.key+1)
		if shard.PutLog != nil {
			if err := shard.PutLog.Append(ctx, worker, sc.key, sc.val); err != nil {
				return err
			}
			if repl := shard.Repl; repl != nil {
				// Synchronous replication, shipped as a batch of one: the
				// PUT completes only after the shipment's fence retires
				// on the standby's DIMMs.
				repl.BatchBegin(worker)
				if err := repl.BatchAdd(ctx, worker, sc.key, sc.val); err != nil {
					return err
				}
				return repl.BatchCommit(ctx, worker)
			}
			return nil
		}
		return shard.Backend.Put(ctx, sc.key, sc.val)
	case OpDel:
		return shard.Backend.Delete(ctx, sc.key)
	default:
		shard.Backend.Scan(ctx, sc.key, cfg.ScanLen)
		return nil
	}
}

// executeBatch runs one drained group, in arrival order. Above depth 1,
// logged PUTs are staged into the worker's group commit as they are
// reached and ALL complete at the commit fence — their records are not
// durable (and so the requests are not answerable) until the batch's
// single fence retires. Every other op, and at depth 1 every op, runs
// through execute and completes at its own execution time: a depth-1
// logged PUT persists through one Append with its own fence, which
// writes only the record where a one-record group commit would add a
// frame, padding and a commit record.
func executeBatch(ctx *platform.MemCtx, cfg Config, shard *Shard, worker int, batch []request, sc *opScratch, sh *shardState, st *serveState) error {
	proc := ctx.Proc()
	rec := st.rec
	group := cfg.BatchSize > 1
	var bid int64
	if rec != nil && group {
		bid = rec.NextBatch()
		sc.edges = sc.edges[:0]
	}
	// Pin the log (and its replication mirror) for the whole group: a
	// promotion swapping shard.PutLog mid-batch must not split one
	// Begin/Add/Commit across two logs.
	plog, repl := shard.PutLog, shard.Repl
	// trace books a measured op's phase span: queue wait runs from
	// arrival to drain, and batch wait (group commits only) from drain to
	// es, the op's execution start. A staged PUT's service ends at ps, when
	// its record was staged, and persist runs from there to the commit
	// fence; a depth-1 logged PUT's Append is one fused
	// render-persist-fence sequence, attributed wholly to persist.
	trace := func(req *request, es, ps, end sim.Time, hits0 int64) {
		span := telemetry.OpSpan{
			Op: req.op.String(), Tenant: req.tenant, Shard: sh.idx, Worker: worker,
			Key: req.key, Batch: bid, CacheHit: -1,
			Arrival: req.arrival, End: end,
			QueueWait: req.drained - req.arrival,
		}
		if group {
			span.BatchWait, span.HasBatchWait = es-req.drained, true
		}
		switch {
		case plog == nil || req.op != OpPut:
			span.Service, span.HasService = end-es, true
		case group:
			span.Service, span.HasService = ps-es, true
			span.Persist, span.HasPersist = end-ps, true
		default:
			span.Persist, span.HasPersist = end-es, true
		}
		st.attributeCache(&span, *req, hits0)
		rec.RecordOp(&span)
	}
	logging := false
	for i := range batch {
		req := &batch[i]
		if group && plog != nil && req.op == OpPut {
			if !logging {
				plog.Begin(worker)
				if repl != nil {
					repl.BatchBegin(worker)
				}
				logging = true
			}
			KeyInto(sc.key, req.key)
			ValInto(sc.val, req.key+1)
			var es sim.Time
			if rec != nil {
				es = proc.Now()
			}
			if err := plog.Add(ctx, worker, sc.key, sc.val); err != nil {
				return err
			}
			if repl != nil {
				if err := repl.BatchAdd(ctx, worker, sc.key, sc.val); err != nil {
					return err
				}
			}
			if rec != nil {
				// Buffer the staging interval: the span closes at the
				// group's single commit fence below.
				sc.edges = append(sc.edges, opEdge{start: es, end: proc.Now()})
			}
			continue // completes at the commit fence below
		}
		var es sim.Time
		var hits0 int64
		if rec != nil {
			es = proc.Now()
			if st.cacheStats != nil && req.op == OpGet {
				hits0, _ = st.cacheStats()
			}
		}
		if err := execute(ctx, cfg, shard, worker, *req, sc); err != nil {
			return err
		}
		end := proc.Now()
		st.record(sh, *req, end)
		if rec != nil && req.measured {
			trace(req, es, end, end, hits0)
		}
	}
	if logging {
		if err := plog.Commit(ctx, worker); err != nil {
			return err
		}
		if repl != nil {
			// The group's shipment seals with its own single fence on the
			// standby's DIMMs; every logged PUT in the batch completes
			// after it, so acked means replicated.
			if err := repl.BatchCommit(ctx, worker); err != nil {
				return err
			}
		}
		end := proc.Now()
		ei := 0
		for i := range batch {
			if req := &batch[i]; req.op == OpPut {
				st.record(sh, *req, end)
				if rec != nil {
					if e := sc.edges[ei]; req.measured {
						trace(req, e.start, e.end, end, 0)
					}
					ei++
				}
			}
		}
	}
	return nil
}
