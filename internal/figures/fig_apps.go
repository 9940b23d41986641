package figures

import (
	"strconv"

	"optanestudy/internal/daxfs"
	"optanestudy/internal/harness"
	"optanestudy/internal/novafs"
	"optanestudy/internal/platform"
	"optanestudy/internal/pmemobj"
	"optanestudy/internal/sim"
	"optanestudy/internal/stats"
	"optanestudy/internal/vfs"
)

func appPlatform(llcLines int) *platform.Platform {
	cfg := platform.DefaultConfig()
	cfg.TrackData = true
	cfg.XP.Wear.Enabled = false
	if llcLines > 0 {
		cfg.LLC.Lines = llcLines
	}
	return platform.MustNew(cfg)
}

// Fig8 reproduces "Migrating RocksDB to 3D XPoint Memory": db_bench SET
// throughput for WAL-POSIX, WAL-FLEX and the persistent skiplist, on
// DRAM-emulated persistent memory versus (simulated) real 3D XPoint.
// X positions: 0=WAL-POSIX, 1=WAL-FLEX, 2=persistent skiplist.
func Fig8(q Quality) []stats.Figure {
	ops := q.ops(4000)
	prepop := q.ops(20000)
	// The figure's qualitative Optane ordering (WAL-FLEX above the
	// persistent memtable) only emerges once the skiplist carries a few
	// thousand entries; keep the quick-quality workload above that floor.
	if ops < 1600 {
		ops, prepop = 1600, 8000
	}
	spec := func(onDRAM bool, scenario string) harness.Spec {
		return harness.Spec{
			Scenario: scenario,
			Params: map[string]string{
				"dram":        strconv.FormatBool(onDRAM),
				"prepopulate": strconv.Itoa(prepop),
			},
			Ops: ops,
		}
	}
	modes := []string{"lsmkv/set-walposix", "lsmkv/set-walflex", "lsmkv/set-pmem-memtable"}
	dram := stats.Figure{
		ID: "fig8-dram", Title: "RocksDB SET on DRAM-emulated PM",
		XLabel: "mode (0=WAL-POSIX 1=WAL-FLEX 2=persistent-skiplist)",
		YLabel: "throughput (KOps/s)",
	}
	opt := stats.Figure{
		ID: "fig8-optane", Title: "RocksDB SET on 3D XPoint",
		XLabel: "mode (0=WAL-POSIX 1=WAL-FLEX 2=persistent-skiplist)",
		YLabel: "throughput (KOps/s)",
	}
	var b batch
	for i, m := range modes {
		b.plot(&dram, "DRAM", spec(true, m), metric("kops_per_sec", float64(i)))
		b.plot(&opt, "3DXP", spec(false, m), metric("kops_per_sec", float64(i)))
	}
	b.run()
	return []stats.Figure{dram, opt}
}

// Fig12 reproduces "File IO latency": 64 B and 256 B random overwrites and
// 4 KB reads on XFS-DAX(±sync), Ext4-DAX(±sync), NOVA and NOVA-datalog.
func Fig12(q Quality) []stats.Figure {
	type fsCase struct {
		name string
		mk   func(p *platform.Platform) (vfs.FS, error)
		sync bool
	}
	cases := []fsCase{
		{"XFS-DAX-sync", mkDax(daxfs.XFS), true},
		{"XFS-DAX", mkDax(daxfs.XFS), false},
		{"Ext4-DAX-sync", mkDax(daxfs.Ext4), true},
		{"Ext4-DAX", mkDax(daxfs.Ext4), false},
		{"NOVA", mkNova(novafs.COW), false},
		{"NOVA-datalog", mkNova(novafs.Datalog), false},
	}
	iters := q.ops(400)
	fig := stats.Figure{
		ID:     "fig12",
		Title:  "File IO latency (us)",
		XLabel: "op (0=overwrite-64B 1=overwrite-256B 2=read-4KB)",
		YLabel: "latency (us)",
	}
	for _, c := range cases {
		s := stats.Series{Name: c.name}
		for opIdx, bs := range []int{64, 256, 4096} {
			p := appPlatform(0)
			fsys, err := c.mk(p)
			if err != nil {
				panic(err)
			}
			var total sim.Time
			p.Go("io", 0, func(ctx *platform.MemCtx) {
				f, err := fsys.Create(ctx, "bench")
				if err != nil {
					panic(err)
				}
				// Lay out a 1 MB file.
				chunk := make([]byte, 64<<10)
				for off := int64(0); off < 1<<20; off += int64(len(chunk)) {
					f.WriteAt(ctx, off, chunk)
				}
				f.Sync(ctx)
				r := sim.NewRNG(12)
				buf := make([]byte, bs)
				for i := 0; i < iters; i++ {
					off := r.Int63n((1<<20)/int64(bs)) * int64(bs)
					start := ctx.Proc().Now()
					if opIdx == 2 {
						f.ReadAt(ctx, off, buf)
					} else {
						f.WriteAt(ctx, off, buf)
						if c.sync {
							f.Sync(ctx)
						}
					}
					total += ctx.Proc().Now() - start
				}
			})
			p.Run()
			s.Add(float64(opIdx), total.Microseconds()/float64(iters))
		}
		fig.Series = append(fig.Series, s)
	}
	return []stats.Figure{fig}
}

func mkDax(v daxfs.Variant) func(p *platform.Platform) (vfs.FS, error) {
	return func(p *platform.Platform) (vfs.FS, error) {
		ns, err := p.Optane("dax", 0, 64<<20)
		if err != nil {
			return nil, err
		}
		return daxfs.Mount(ns, daxfs.DefaultConfig(v))
	}
}

func mkNova(m novafs.Mode) func(p *platform.Platform) (vfs.FS, error) {
	return func(p *platform.Platform) (vfs.FS, error) {
		ns, err := p.Optane("nova", 0, 64<<20)
		if err != nil {
			return nil, err
		}
		return novafs.Mount([]*platform.Namespace{ns}, novafs.DefaultOptions(m))
	}
}

// Fig15 reproduces "Tuning persistence instructions for micro-buffering":
// no-op transaction latency for PGL-NT vs PGL-CLWB across object sizes.
func Fig15(q Quality) []stats.Figure {
	sizes := []int{64, 128, 256, 512, 1 << 10, 2 << 10, 4 << 10, 8 << 10}
	if q == Quick {
		sizes = []int{64, 256, 1 << 10, 8 << 10}
	}
	iters := q.ops(200)
	fig := stats.Figure{
		ID:     "fig15",
		Title:  "Micro-buffering no-op transaction latency",
		XLabel: "object size (bytes)",
		YLabel: "latency (us)",
	}
	for _, mode := range []pmemobj.WriteBackMode{pmemobj.NT, pmemobj.CLWB} {
		s := stats.Series{Name: mode.String()}
		for _, size := range sizes {
			p := appPlatform(0)
			ns := mustNS(p.Optane("pool", 0, 128<<20))
			pool, err := pmemobj.Create(ns)
			if err != nil {
				panic(err)
			}
			var total sim.Time
			p.Go("tx", 0, func(ctx *platform.MemCtx) {
				for i := 0; i < iters; i++ {
					obj, err := pool.Alloc(ctx, size)
					if err != nil {
						panic(err)
					}
					ctx.Proc().Sleep(10 * sim.Microsecond)
					start := ctx.Proc().Now()
					mb := pool.OpenBuffered(ctx, obj, size)
					if err := mb.Commit(mode); err != nil {
						panic(err)
					}
					total += ctx.Proc().Now() - start
				}
			})
			p.Run()
			s.Add(float64(size), total.Microseconds()/float64(iters))
		}
		fig.Series = append(fig.Series, s)
	}
	return []stats.Figure{fig}
}

// Fig17 reproduces "Multi-DIMM NOVA": FIO bandwidth for sequential/random
// reads and writes, sync and async engines, interleaved (I) versus
// per-thread-pinned non-interleaved (NI) mounts. See DESIGN.md, "Known
// deviation: Figure 17's write rows".
func Fig17(q Quality) []stats.Figure {
	threads := 24
	ops := q.ops(240) / 4
	if ops < 24 {
		ops = 24
	}
	read := stats.Figure{
		ID: "fig17-read", Title: "Multi-DIMM NOVA: FIO read",
		XLabel: "op (0=seq 1=rand)", YLabel: "bandwidth (GB/s)",
	}
	write := stats.Figure{
		ID: "fig17-write", Title: "Multi-DIMM NOVA: FIO write",
		XLabel: "op (0=seq 1=rand)", YLabel: "bandwidth (GB/s)",
	}
	confs := []struct {
		name   string
		pinned bool
		sync   bool
	}{
		{"I,sync", false, true},
		{"NI,sync", true, true},
		{"I,async", false, false},
		{"NI,async", true, false},
	}
	fio := func(scenario string, pinned, sync bool) harness.Spec {
		return harness.Spec{
			Scenario: "fio/" + scenario,
			Params: map[string]string{
				"pinned": strconv.FormatBool(pinned),
				"sync":   strconv.FormatBool(sync),
			},
			Threads: threads,
			Ops:     ops,
		}
	}
	var b batch
	for _, conf := range confs {
		for i, pat := range []string{"seq", "rand"} {
			b.plot(&read, conf.name, fio(pat+"-read", conf.pinned, conf.sync), gbs(float64(i)))
			b.plot(&write, conf.name, fio(pat+"-write", conf.pinned, conf.sync), gbs(float64(i)))
		}
	}
	b.run()
	return []stats.Figure{read, write}
}

// Fig19 reproduces "NUMA degradation for PMemKV": cmap overwrite bandwidth
// versus thread count for local/remote DRAM and Optane pools.
func Fig19(q Quality) []stats.Figure {
	threadCounts := []int{1, 2, 4, 8, 12}
	if q == Quick {
		threadCounts = []int{1, 4, 8}
	}
	fig := stats.Figure{
		ID:     "fig19",
		Title:  "PMemKV cmap overwrite: NUMA degradation",
		XLabel: "threads",
		YLabel: "bandwidth (GB/s)",
	}
	confs := []struct {
		name   string
		dram   bool
		socket int
	}{
		{"DRAM", true, 0},
		{"DRAM-Remote", true, 1},
		{"Optane", false, 0},
		{"Optane-Remote", false, 1},
	}
	var b batch
	for _, conf := range confs {
		media := "optane"
		if conf.dram {
			media = "dram"
		}
		for _, th := range threadCounts {
			spec := harness.Spec{
				Scenario: "pmemkv/overwrite",
				Params:   map[string]string{"media": media},
				Socket:   conf.socket,
				Threads:  th,
				Duration: q.dur(300 * sim.Microsecond),
			}
			b.plot(&fig, conf.name, spec, gbs(float64(th)))
		}
	}
	b.run()
	return []stats.Figure{fig}
}
