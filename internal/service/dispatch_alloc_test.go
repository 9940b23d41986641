package service

import (
	"fmt"
	"testing"

	"optanestudy/internal/hottier"
	"optanestudy/internal/platform"
	"optanestudy/internal/stats"
)

// dispatchHarness drives the worker internals — push, popN,
// executeBatch — exactly as Serve's worker loop does at the harness's
// depth, so the allocation behavior it measures is the steady-state
// dispatch path's.
type dispatchHarness struct {
	p     *platform.Platform
	cfg   Config
	shard Shard
	st    *serveState
	sh    *shardState
	sc    *opScratch
	batch []request
	n     int64
	scans bool // one op in ten is a SCAN of cfg.ScanLen records
}

func newDispatchHarness(tb testing.TB, batchSize int) *dispatchHarness {
	return newDispatchHarnessOpts(tb, batchSize, "pmemkv", 0)
}

// newDispatchHarnessOpts builds the harness over a chosen backend, optionally
// fronted by a DRAM hot tier of cacheBytes (0 = uncached). cacheBytes large
// enough for the whole 400-record keyspace pins the cached-HIT path;
// smaller caches keep the tier churning and pin the miss-FILL path
// (victim scan, detach, NT slot install) instead. An lsmkv preload is
// flushed into an SST, so the harness's GETs (its PUTs go to the log)
// read tables rather than the memtable.
func newDispatchHarnessOpts(tb testing.TB, batchSize int, backend string, cacheBytes int64) *dispatchHarness {
	tb.Helper()
	pcfg := platform.DefaultConfig()
	pcfg.TrackData = true
	pcfg.XP.Wear.Enabled = false
	p := platform.MustNew(pcfg)
	tb.Cleanup(p.Close)
	spec := BackendSpec{Media: "optane", Keys: 400, KeySize: 16, ValSize: 128, ScanSpan: 200}
	be, err := NewBackend(p, backend, spec)
	if err != nil {
		tb.Fatal(err)
	}
	if lb, ok := be.(*lsmBackend); ok {
		var flushErr error
		p.Go("flush", 0, func(ctx *platform.MemCtx) { flushErr = lb.db.Flush(ctx) })
		p.Run()
		if flushErr != nil {
			tb.Fatal(flushErr)
		}
	}
	if cacheBytes > 0 {
		tier, err := hottier.New(p, be, hottier.Config{
			Name: "dispatch", CapacityBytes: cacheBytes, RecordBytes: spec.ValSize,
			TenantSpan: spec.Keys, Seed: 7,
		})
		if err != nil {
			tb.Fatal(err)
		}
		be = tier
	}
	plog, err := NewAppendLog(p, BackendSpec{Media: "optane", NamePrefix: "dispatch-log"}, 1, 1<<20)
	if err != nil {
		tb.Fatal(err)
	}
	h := &dispatchHarness{
		p: p,
		cfg: Config{
			KeySize: spec.KeySize, ValSize: spec.ValSize, ScanLen: 16,
			BatchSize: batchSize,
		},
		shard: Shard{Backend: be, Workers: 1, PutLog: plog},
		st: &serveState{
			shards:  make([]shardState, 1),
			tenants: []TenantStats{{Name: "t", Latency: stats.NewHistogram()}},
		},
		sc:    newOpScratch(Config{KeySize: spec.KeySize, ValSize: spec.ValSize}),
		batch: make([]request, 0, batchSize),
	}
	h.st.shards[0] = shardState{
		cap:     32 * batchSize,
		latency: stats.NewHistogram(),
	}
	h.sh = &h.st.shards[0]
	return h
}

// step is one worker wakeup: admit a full group (a 0.7/0.3 put/get mix over
// a rolling key window, or 0.6/0.3/0.1 put/get/scan with scans on), drain
// it, and execute it as one group commit.
func (h *dispatchHarness) step(ctx *platform.MemCtx) error {
	proc := ctx.Proc()
	now := proc.Now()
	for i := 0; i < h.cfg.BatchSize; i++ {
		h.n++
		op := OpPut
		switch {
		case h.n%10 < 3:
			op = OpGet
		case h.scans && h.n%10 == 9:
			op = OpScan
		}
		h.sh.push(request{
			tenant: 0, op: op, key: h.n * 31 % 400,
			arrival: now, measured: true,
		})
	}
	h.batch = h.sh.popN(proc.Now(), h.cfg.BatchSize, h.batch[:0])
	return executeBatch(ctx, h.cfg, &h.shard, 0, h.batch, h.sc, h.sh, h.st)
}

// The steady-state group-commit dispatch path — admission, batch drain,
// key and value rendering, backend reads, group-commit journaling, latency
// recording — must not allocate. Warmup lets every amortized structure
// (queue rings, the appender's staging mirror, histogram buckets, load
// windows, the XPBuffer's slot arrays, the LLC's overlay slab, the
// write-combining buffer's line slice) reach its high-water mark; after that, a dispatched op that
// touches the Go heap is a regression. Depth 1 runs each logged PUT as an
// unbatched Append whose unaligned record goes through the write-combining
// buffer; depth 8 is a group commit.
func TestDispatchZeroAlloc(t *testing.T) {
	// cached-hit: the tier holds the whole keyspace, so warmed-up GETs stay
	// in DRAM. miss-fill: the tier holds 1/4 of it, so steady state keeps
	// evicting and installing slots. lsmkv pins DB.GetInto (memtable probe
	// + SST binary search into the per-DB scratch). pmemkv-scan adds
	// emulated scans, each 16 point lookups rendered into the worker's key.
	// pmemkv-put has no PutLog, so its PUTs are in-place backend updates
	// (undo-logged transactions), as in serve-read.
	variants := []struct {
		name    string
		backend string
		cache   int64
		scans   bool
		noLog   bool
	}{
		{"pmemkv", "pmemkv", 0, false, false},
		{"cached-hit", "pmemkv", 400 * 128, false, false},
		{"miss-fill", "pmemkv", 100 * 128, false, false},
		{"lsmkv-getinto", "lsmkv", 0, false, false},
		{"pmemkv-scan", "pmemkv", 0, true, false},
		{"pmemkv-put", "pmemkv", 0, false, true},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for _, depth := range []int{1, 8} {
				t.Run(fmt.Sprintf("batch=%d", depth), func(t *testing.T) {
					h := newDispatchHarnessOpts(t, depth, v.backend, v.cache)
					h.scans = v.scans
					if v.noLog {
						h.shard.PutLog = nil
					}
					var avg float64
					var stepErr error
					h.p.Go("dispatch", 0, func(ctx *platform.MemCtx) {
						for i := 0; i < 400; i++ { // warmup: every ring and pool at its high-water mark
							if stepErr = h.step(ctx); stepErr != nil {
								return
							}
						}
						avg = testing.AllocsPerRun(100, func() {
							if err := h.step(ctx); err != nil && stepErr == nil {
								stepErr = err
							}
						})
					})
					h.p.Run()
					if stepErr != nil {
						t.Fatal(stepErr)
					}
					if avg != 0 {
						t.Fatalf("steady-state dispatch allocates: %.2f allocs per batch, want 0", avg)
					}
					if h.sh.completed == 0 || h.st.tenants[0].Completed != h.sh.completed {
						t.Fatalf("harness recorded %d/%d completions", h.sh.completed, h.st.tenants[0].Completed)
					}
					if lb, ok := h.shard.Backend.(*lsmBackend); ok && lb.db.Tables() < 1 {
						t.Fatal("lsmkv variant has no SST to read")
					}
					if tier, ok := h.shard.Backend.(*hottier.Tier); ok {
						c := tier.Counters()
						if v.name == "cached-hit" && c.Hits == 0 {
							t.Fatal("cached-hit variant never hit the tier")
						}
						if v.name == "miss-fill" && c.Evictions == 0 {
							t.Fatal("miss-fill variant never evicted")
						}
					}
				})
			}
		})
	}
}

// BenchmarkDispatchAllocs reports the dispatch path's cost and
// allocation rate per worker wakeup (one batch) at the sweep's batch
// depths. allocs/op must be 0 at every depth (TestDispatchZeroAlloc pins
// depths 1 and 8).
func BenchmarkDispatchAllocs(b *testing.B) {
	for _, bk := range []struct {
		name  string
		cache int64
	}{{"uncached", 0}, {"cached", 400 * 128}} {
		for _, depth := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("%s/batch=%d", bk.name, depth), func(b *testing.B) {
				h := newDispatchHarnessOpts(b, depth, "pmemkv", bk.cache)
				var stepErr error
				h.p.Go("dispatch", 0, func(ctx *platform.MemCtx) {
					for i := 0; i < 400; i++ {
						if stepErr = h.step(ctx); stepErr != nil {
							return
						}
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := h.step(ctx); err != nil {
							stepErr = err
							return
						}
					}
				})
				h.p.Run()
				if stepErr != nil {
					b.Fatal(stepErr)
				}
			})
		}
	}
}

// Once warm, a 16-record scan allocates nothing on any backend. An
// emulated scan renders each key into the caller's key buffer and reads
// each value into the backend's discard buffer; lsmkv's native scan merges
// its memtable with a flushed SST through cursors, load buffers and a copy
// of each winning record that the DB owns.
func TestScanZeroAlloc(t *testing.T) {
	for _, name := range []string{"pmemkv", "lsmkv", "memmode", "lsmkv-native"} {
		t.Run(name, func(t *testing.T) {
			p := testPlatform(t)
			var be Backend
			if name == "lsmkv-native" {
				be = newNativeLSM(t, p)
			} else {
				be = newReadBackend(t, p, name)
			}
			key := make([]byte, readKeyLen)
			var avg float64
			p.Go("scan", 0, func(ctx *platform.MemCtx) {
				var start int64
				scan := func() {
					// Keys are little-endian ids, so an id below 240 has
					// more than 16 keys after it in sorted order and a
					// native scan never runs off the end.
					start = (start + 37) % 240
					KeyInto(key, start)
					if n := be.Scan(ctx, key, 16); n != 16 {
						t.Errorf("scan touched %d records, want 16", n)
					}
				}
				for range 200 {
					scan()
				}
				avg = testing.AllocsPerRun(100, scan)
			})
			p.Run()
			if avg != 0 {
				t.Fatalf("16-record scan allocates %.2f times, want 0", avg)
			}
		})
	}
}

// newNativeLSM preloads an lsmkv backend that scans natively, flushes the
// preload into an SST and then overwrites every third key into the fresh
// memtable, so that a scan merges the two.
func newNativeLSM(t *testing.T, p *platform.Platform) Backend {
	t.Helper()
	be, err := NewBackend(p, "lsmkv", BackendSpec{
		Media: "optane", Keys: readKeys, KeySize: readKeyLen, ValSize: readVal, NativeScan: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := be.(*lsmBackend).db
	preload(t, p, func(ctx *platform.MemCtx) error {
		if err := db.Flush(ctx); err != nil {
			return err
		}
		for id := int64(0); id < readKeys; id += 3 {
			if err := db.Set(ctx, KeyFor(id, readKeyLen), ValFor(id+1, readVal)); err != nil {
				return err
			}
		}
		return nil
	})
	if db.Tables() != 1 {
		t.Fatalf("%d tables, want the one flushed preload", db.Tables())
	}
	return be
}
