package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"optanestudy/internal/cache"
	"optanestudy/internal/dimm"
	"optanestudy/internal/hottier"
	"optanestudy/internal/imc"
	"optanestudy/internal/platform"
	"optanestudy/internal/pmem"
	"optanestudy/internal/service"
	"optanestudy/internal/sim"
	"optanestudy/internal/stats"
	"optanestudy/internal/topology"
	"optanestudy/internal/workload"
)

// A layer drive calls one public function from a single caller, shaped
// like the workload that leans on it, and reports host ns and heap
// allocations per call. Calls that advance simulated time run inside one
// proc with nothing else runnable, so the engine never switches procs and
// the timer sees only the call itself. (A wall-clock timer around an
// advancing call inside a multi-proc workload would also count the other
// procs' work: the engine hands off at every advance.)
type drive struct {
	name   string // metric name of the per-call time
	unit   string // "ns", or "us" for per-call costs that large
	allocs string // metric name of the per-call allocations
	// setup builds the drive's state once; the returned run makes n
	// calls and returns the host time they took (excluding per-round
	// scaffolding such as spawning the caller's proc).
	setup func(seed uint64) (run func(n int) time.Duration, err error)
}

var driveList = []drive{
	{name: "sim.advance_solo_ns", allocs: "sim.advance_solo_allocs", setup: driveAdvanceSolo},
	{name: "sim.handoff_ns", allocs: "sim.handoff_allocs", setup: driveHandoff},
	{name: "cache.llc_insert_ns", allocs: "cache.llc_insert_allocs", setup: driveLLC(false)},
	{name: "cache.llc_mark_dirty_ns", allocs: "cache.llc_mark_dirty_allocs", setup: driveLLC(true)},
	{name: "cache.wc_write_ns", allocs: "cache.wc_write_allocs", setup: driveWC},
	{name: "platform.load_ns", allocs: "platform.load_allocs", setup: driveLoad},
	{name: "platform.ntstore_fence_ns", allocs: "platform.ntstore_fence_allocs", setup: driveNTStoreFence},
	{name: "platform.new_us", unit: "us", allocs: "platform.new_allocs", setup: drivePlatformNew},
	{name: "imc.post_write_ns", allocs: "imc.post_write_allocs", setup: drivePostWrite},
	{name: "dimm.write_line_ns", allocs: "dimm.write_line_allocs", setup: driveLine(true)},
	{name: "dimm.read_line_ns", allocs: "dimm.read_line_allocs", setup: driveLine(false)},
	{name: "pmem.append_ns", allocs: "pmem.append_allocs", setup: driveAppend},
	{name: "pmem.commit_ns_per_rec", allocs: "pmem.commit_allocs_per_rec", setup: driveCommit},
	{name: "pmemkv.get_ns", allocs: "pmemkv.get_allocs", setup: drivePMemKV(false)},
	{name: "pmemkv.put_ns", allocs: "pmemkv.put_allocs", setup: drivePMemKV(true)},
	{name: "hottier.get_hit_ns", allocs: "hottier.get_hit_allocs", setup: driveTierHit},
	{name: "stats.hist_add_ns", allocs: "stats.hist_add_allocs", setup: driveHistAdd},
	{name: "workload.zipf_next_ns", allocs: "workload.zipf_next_allocs", setup: driveZipf},
}

// drives runs every layer drive and writes its per-call time and
// allocations into m.
func drives(m map[string]metric, seed uint64, sz *sizes) error {
	for _, d := range driveList {
		run, err := d.setup(seed)
		if err != nil {
			return fmt.Errorf("drive %s: set-up: %w", d.name, err)
		}
		ns, allocs := measureDrive(run, sz)
		v := ns
		if d.unit == "us" {
			v = ns / 1e3
		}
		m[d.name] = metric{v, d.timeUnit()}
		m[d.allocs] = metric{allocs, "count"}
	}
	return nil
}

func (d drive) timeUnit() string {
	if d.unit != "" {
		return d.unit
	}
	return "ns"
}

// measureDrive sizes n so one round takes about sz.driveRound, then
// returns the median per-call ns over sz.driveRounds rounds and the
// allocations per call.
func measureDrive(run func(n int) time.Duration, sz *sizes) (ns, allocs float64) {
	n := 16
	for {
		d := run(n)
		if d >= sz.driveRound/8 || n >= 1<<26 {
			n = int(math.Max(1, float64(n)*float64(sz.driveRound)/math.Max(float64(d), 1)))
			break
		}
		n *= 4
	}
	var per []float64
	var ms0, ms1 runtime.MemStats
	var mallocs uint64
	for r := 0; r < sz.driveRounds; r++ {
		runtime.ReadMemStats(&ms0)
		d := run(n)
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	return median(per), float64(mallocs) / float64(n*sz.driveRounds)
}

// perCalls rescales d, measured over made calls, to n calls.
func perCalls(d time.Duration, n, made int) time.Duration {
	return time.Duration(float64(d) * float64(n) / float64(made))
}

// inProc runs body as the only proc of the platform, on socket 0, and
// returns the host time body measured.
func inProc(p *platform.Platform, body func(ctx *platform.MemCtx) time.Duration) time.Duration {
	var d time.Duration
	p.Go("drive", 0, func(ctx *platform.MemCtx) { d = body(ctx) })
	p.Run()
	return d
}

func driveAdvanceSolo(seed uint64) (func(int) time.Duration, error) {
	return func(n int) time.Duration {
		eng := sim.NewEngine()
		var d time.Duration
		eng.Go("solo", 0, func(p *sim.Proc) {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				p.Advance(sim.Nanosecond)
			}
			d = time.Since(t0)
		})
		eng.Run()
		return d
	}, nil
}

// driveHandoff alternates two procs in lock-step, so every advance parks
// one proc and resumes the other: the engine's handoff cost.
func driveHandoff(seed uint64) (func(int) time.Duration, error) {
	return func(n int) time.Duration {
		each := (n + 1) / 2
		eng := sim.NewEngine()
		for w := 0; w < 2; w++ {
			eng.Go("w", 0, func(p *sim.Proc) {
				for i := 0; i < each; i++ {
					p.Advance(sim.Nanosecond)
				}
			})
		}
		t0 := time.Now()
		eng.Run()
		return perCalls(time.Since(t0), n, 2*each)
	}, nil
}

// driveLLC streams random line addresses over four times the default
// LLC's capacity (the device kernels' shape), after filling it, so most
// calls evict.
func driveLLC(dirty bool) func(uint64) (func(int) time.Duration, error) {
	return func(seed uint64) (func(int) time.Duration, error) {
		cfg := cache.DefaultConfig()
		llc := cache.New(cfg)
		rng := sim.NewRNG(mix(seed, 0x11C))
		addrs := make([]int64, 1<<20)
		for i := range addrs {
			addrs[i] = rng.Int63n(4*int64(cfg.Lines)) * 64
		}
		for i := 0; i < 2*cfg.Lines; i++ {
			llc.Insert(addrs[i%len(addrs)])
		}
		next := 0
		return func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				a := addrs[next]
				next = (next + 1) % len(addrs)
				if dirty {
					llc.MarkDirty(a, 0, nil)
				} else {
					llc.Insert(a)
				}
			}
			return time.Since(t0)
		}, nil
	}
}

// driveWC writes each 64 B line as four 16 B non-temporal fragments, so
// every fourth call completes a line.
func driveWC(seed uint64) (func(int) time.Duration, error) {
	wc := cache.NewWCBuffer()
	frag := make([]byte, 16)
	var addr int64
	return func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			wc.Write(addr, frag)
			addr = (addr + 16) % (64 << 20)
		}
		return time.Since(t0)
	}, nil
}

// driveLoad issues random 64 B loads over a 1 GiB interleaved Optane
// namespace (the device kernels' shape: almost every load misses the LLC).
func driveLoad(seed uint64) (func(int) time.Duration, error) {
	cfg := platform.DefaultConfig()
	cfg.XP.Wear.Enabled = false
	p, err := platform.New(cfg)
	if err != nil {
		return nil, err
	}
	ns, err := p.Optane("optane", 0, 1<<30)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(mix(seed, 0x10AD))
	return func(n int) time.Duration {
		return inProc(p, func(ctx *platform.MemCtx) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				ctx.Load(ns, rng.Int63n(ns.Size/64)*64, 64)
			}
			return time.Since(t0)
		})
	}, nil
}

// driveNTStoreFence streams fenced 256 B non-temporal stores with data
// onto one DIMM: the write-behind log's shape.
func driveNTStoreFence(seed uint64) (func(int) time.Duration, error) {
	cfg := platform.DefaultConfig()
	cfg.XP.Wear.Enabled = false
	cfg.TrackData = true
	p, err := platform.New(cfg)
	if err != nil {
		return nil, err
	}
	ns, err := p.OptaneNI("log", 0, 0, 64<<20)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 256)
	var off int64
	return func(n int) time.Duration {
		return inProc(p, func(ctx *platform.MemCtx) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				ctx.NTStore(ns, off, len(buf), buf)
				ctx.SFence()
				off = (off + 256) % ns.Size
			}
			return time.Since(t0)
		})
	}, nil
}

func drivePlatformNew(seed uint64) (func(int) time.Duration, error) {
	cfg := platform.DefaultConfig()
	cfg.Seed = seed
	return func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			p, err := platform.New(cfg)
			d += time.Since(t0)
			if err != nil {
				panic(err) // the default config is valid
			}
			p.Close()
		}
		return d
	}, nil
}

// drivePostWrite posts a sequential 64 B write stream to one XP DIMM's
// WPQ, each post issued when the previous one was accepted.
func drivePostWrite(seed uint64) (func(int) time.Duration, error) {
	ch := imc.NewChannel(imc.DefaultChannelConfig())
	xcfg := dimm.DefaultXPConfig()
	xcfg.Wear.Enabled = false
	xcfg.Seed = seed
	d := dimm.NewXPDIMM(xcfg)
	var t sim.Time
	var addr int64
	return func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			acc, _ := ch.PostWrite(t, d, addr)
			t = acc + 2*sim.Nanosecond
			addr = (addr + 64) % (64 << 20)
		}
		return time.Since(t0)
	}, nil
}

// driveLine writes or reads random 64 B lines over 256 MiB of one XP
// DIMM, each access issued when the previous one completed.
func driveLine(write bool) func(uint64) (func(int) time.Duration, error) {
	return func(seed uint64) (func(int) time.Duration, error) {
		xcfg := dimm.DefaultXPConfig()
		xcfg.Wear.Enabled = false
		xcfg.Seed = seed
		d := dimm.NewXPDIMM(xcfg)
		rng := sim.NewRNG(mix(seed, 0xD1))
		var t sim.Time
		return func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				a := rng.Int63n(4<<20) * 64
				if write {
					t = d.WriteLine(t, a)
				} else {
					t = d.ReadLine(t, a)
				}
			}
			return time.Since(t0)
		}, nil
	}
}

// newLog builds an NTStream appender over 2 MiB of one DIMM, the
// write-behind log's shape.
func newLog(seed uint64) (*platform.Platform, *pmem.Appender, error) {
	cfg := platform.DefaultConfig()
	cfg.XP.Wear.Enabled = false
	cfg.TrackData = true
	cfg.Seed = seed
	p, err := platform.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	ns, err := p.CreateNamespace(topology.Spec{Name: "log", Socket: 0, Media: topology.MediaXP, Size: 2 << 20, Channels: []int{0}})
	if err != nil {
		return nil, nil, err
	}
	return p, pmem.NewAppender(pmem.Whole(ns), pmem.NewPersister(pmem.NTStream)), nil
}

// driveAppend appends 128 B records one at a time (unbatched, d1).
func driveAppend(seed uint64) (func(int) time.Duration, error) {
	p, app, err := newLog(seed)
	if err != nil {
		return nil, err
	}
	rec := make([]byte, 128)
	return func(n int) time.Duration {
		return inProc(p, func(ctx *platform.MemCtx) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if _, err := app.Append(ctx, rec); err != nil {
					panic(err) // a 128 B record always fits the 2 MiB region
				}
			}
			return time.Since(t0)
		})
	}, nil
}

// driveCommit group-commits 128 B records eight at a time (d8); n counts
// records.
func driveCommit(seed uint64) (func(int) time.Duration, error) {
	p, app, err := newLog(seed)
	if err != nil {
		return nil, err
	}
	rec := make([]byte, 128)
	return func(n int) time.Duration {
		return inProc(p, func(ctx *platform.MemCtx) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i += 8 {
				app.Begin()
				for j := 0; j < 8; j++ {
					if _, err := app.Add(ctx, rec); err != nil {
						panic(err)
					}
				}
				if err := app.Commit(ctx); err != nil {
					panic(err)
				}
			}
			return perCalls(time.Since(t0), n, (n+7)/8*8)
		})
	}, nil
}

// readShape is the serve-read keyspace: 2 tenants × 2000 keys of 16 B
// keys and 128 B values on interleaved Optane behind a 16 KB LLC.
func readShape(seed uint64) (*platform.Platform, service.Backend, [][]byte, error) {
	cfg := platform.DefaultConfig()
	cfg.XP.Wear.Enabled = false
	cfg.TrackData = true
	cfg.LLC.Lines = 16 << 10 / 64
	cfg.Seed = seed
	p, err := platform.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	be, err := service.NewBackend(p, "pmemkv", service.BackendSpec{Media: "optane", Keys: 4000, KeySize: 16, ValSize: 128})
	if err != nil {
		return nil, nil, nil, err
	}
	z := workload.NewZipf(4000, 0.99, mix(seed, 0x21F))
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = service.KeyFor(z.Next(), 16)
	}
	return p, be, keys, nil
}

// drivePMemKV reads (GetInto) or overwrites (Put) Zipf-drawn keys of a
// preloaded serve-read-shaped pmemkv backend.
func drivePMemKV(put bool) func(uint64) (func(int) time.Duration, error) {
	return func(seed uint64) (func(int) time.Duration, error) {
		p, be, keys, err := readShape(seed)
		if err != nil {
			return nil, err
		}
		bg, ok := be.(service.BufferGetter)
		if !ok {
			return nil, fmt.Errorf("pmemkv backend has no GetInto")
		}
		val := make([]byte, 128)
		next := 0
		return func(n int) time.Duration {
			return inProc(p, func(ctx *platform.MemCtx) time.Duration {
				t0 := time.Now()
				for i := 0; i < n; i++ {
					k := keys[next]
					next = (next + 1) % len(keys)
					if put {
						if err := be.Put(ctx, k, val); err != nil {
							panic(err)
						}
					} else if _, found := bg.GetInto(ctx, k, val); !found {
						panic("pmemkv drive: preloaded key missing")
					}
				}
				return time.Since(t0)
			})
		}, nil
	}
}

// driveTierHit reads keys resident in a 512 KiB DRAM hot tier in front of
// the serve-read backend.
func driveTierHit(seed uint64) (func(int) time.Duration, error) {
	p, be, _, err := readShape(seed)
	if err != nil {
		return nil, err
	}
	tier, err := hottier.New(p, be, hottier.Config{CapacityBytes: 512 << 10, RecordBytes: 128, Seed: seed})
	if err != nil {
		return nil, err
	}
	keys := make([][]byte, 256)
	for i := range keys {
		keys[i] = service.KeyFor(int64(i), 16)
	}
	val := make([]byte, 128)
	inProc(p, func(ctx *platform.MemCtx) time.Duration {
		for _, k := range keys {
			tier.GetInto(ctx, k, val) // the miss admits the key
		}
		return 0
	})
	next := 0
	return func(n int) time.Duration {
		return inProc(p, func(ctx *platform.MemCtx) time.Duration {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				tier.GetInto(ctx, keys[next], val)
				next = (next + 1) % len(keys)
			}
			return time.Since(t0)
		})
	}, nil
}

// driveHistAdd adds latency-like samples (exponential, mean 2 µs).
func driveHistAdd(seed uint64) (func(int) time.Duration, error) {
	h := stats.NewHistogram()
	rng := sim.NewRNG(mix(seed, 0x415))
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = -2000 * math.Log(1-rng.Float64())
	}
	next := 0
	return func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			h.Add(vals[next])
			next = (next + 1) & (len(vals) - 1)
		}
		return time.Since(t0)
	}, nil
}

func driveZipf(seed uint64) (func(int) time.Duration, error) {
	z := workload.NewZipf(2000, 0.99, mix(seed, 0x21F))
	var sink int64
	return func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sink += z.Next()
		}
		d := time.Since(t0)
		if sink < 0 {
			panic("unreachable")
		}
		return d
	}, nil
}

// legDrives measures the serving layer at its top-level call boundary:
// each of the four legs serves one untraced point at headlineKops on a
// fresh platform, timed around Serve (host µs and allocations per
// completed request) and around the backend, log, tier and cluster
// builders (service.preload_s, summed over the four legs). Medians over
// sz.legReps repetitions.
func legDrives(res *result, seed uint64, sz *sizes) {
	type legRef struct {
		sh *serveShape
		l  leg
	}
	var refs []legRef
	for _, sh := range []*serveShape{serveWrite, serveRead} {
		for _, l := range sh.legs {
			refs = append(refs, legRef{sh, l})
		}
	}
	us := map[string][]float64{}
	allocs := map[string][]float64{}
	var preload []float64
	for r := 0; r < sz.legReps; r++ {
		ps := newPass(seed, sz, false)
		var total time.Duration
		for _, ref := range refs {
			idx := 0
			for i, k := range ref.sh.grid(sz) {
				if k == headlineKops {
					idx = i
				}
			}
			runtime.GC()
			ref.sh.point(ps, ref.l, idx, headlineKops)
			lh := ps.legHost(ref.l.name)
			us[ref.l.name] = append(us[ref.l.name], ratio(float64(lh.wall.Nanoseconds())/1e3, float64(lh.ops)))
			allocs[ref.l.name] = append(allocs[ref.l.name], ratio(lh.allocs, float64(lh.ops)))
			total += lh.preload
		}
		preload = append(preload, total.Seconds())
		res.absorb(ps)
	}
	for _, ref := range refs {
		res.metrics["service.host_us_per_op-"+ref.l.name] = metric{median(us[ref.l.name]), "us"}
		res.metrics["service.allocs_per_op-"+ref.l.name] = metric{median(allocs[ref.l.name]), "count"}
	}
	res.metrics["service.preload_s"] = metric{median(preload), "s"}
}
