package hottier

import (
	"bytes"
	"encoding/binary"
	"testing"

	"optanestudy/internal/platform"
	"optanestudy/internal/sim"
)

// fakeBackend is an in-memory inner store. GetInto snapshots the value
// before advancing simulated time, which is the adversarial shape for the
// tier's fill protocol: a Put that lands inside the read window makes the
// snapshot stale, and the tier must refuse to publish it.
type fakeBackend struct {
	vals map[string][]byte
	lat  sim.Time
	gets int
	puts int
}

func newFake() *fakeBackend { return &fakeBackend{vals: make(map[string][]byte)} }

func (b *fakeBackend) GetInto(ctx *platform.MemCtx, key, dst []byte) (int, bool) {
	b.gets++
	v, ok := b.vals[string(key)]
	copy(dst, v)
	if b.lat > 0 {
		ctx.Proc().Advance(b.lat)
	}
	return len(v), ok
}

func (b *fakeBackend) Put(ctx *platform.MemCtx, key, val []byte) error {
	b.puts++
	if b.lat > 0 {
		ctx.Proc().Advance(b.lat)
	}
	b.vals[string(key)] = append([]byte(nil), val...)
	return nil
}

func (b *fakeBackend) Delete(ctx *platform.MemCtx, key []byte) error {
	if b.lat > 0 {
		ctx.Proc().Advance(b.lat)
	}
	delete(b.vals, string(key))
	return nil
}

func (b *fakeBackend) Scan(ctx *platform.MemCtx, key []byte, n int) int { return n }

// get reads key through the tier into a buffer with room for every value
// the tests store.
func get(ctx *platform.MemCtx, tier *Tier, key []byte) ([]byte, bool) {
	dst := make([]byte, 256)
	n, ok := tier.GetInto(ctx, key, dst)
	return dst[:n], ok
}

func keyFor(id int64) []byte {
	k := make([]byte, 16)
	binary.LittleEndian.PutUint64(k, uint64(id))
	return k
}

func valFor(id int64, rev int) []byte {
	v := make([]byte, 48)
	binary.LittleEndian.PutUint64(v, uint64(id))
	binary.LittleEndian.PutUint64(v[8:], uint64(rev))
	return v
}

func newTier(t testing.TB, inner Backend, cfg Config) (*platform.Platform, *Tier) {
	t.Helper()
	pc := platform.DefaultConfig()
	pc.TrackData = true
	pc.XP.Wear.Enabled = false
	p := platform.MustNew(pc)
	if cfg.CapacityBytes == 0 {
		cfg.CapacityBytes = 64 << 10
	}
	if cfg.RecordBytes == 0 {
		cfg.RecordBytes = 64
	}
	tier, err := New(p, inner, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, tier
}

func TestTierHitAfterMiss(t *testing.T) {
	fb := newFake()
	p, tier := newTier(t, fb, Config{})
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		fb.vals[string(keyFor(7))] = valFor(7, 0)
		v1, ok := get(ctx, tier, keyFor(7))
		if !ok || !bytes.Equal(v1, valFor(7, 0)) {
			t.Fatalf("miss read: ok=%v val=%x", ok, v1)
		}
		v2, ok := get(ctx, tier, keyFor(7))
		if !ok || !bytes.Equal(v2, valFor(7, 0)) {
			t.Fatalf("hit read: ok=%v val=%x", ok, v2)
		}
	})
	p.Run()
	c := tier.Counters()
	if c.Misses != 1 || c.Hits != 1 || c.Admits != 1 {
		t.Errorf("counters = %+v, want 1 miss, 1 hit, 1 admit", c)
	}
	if fb.gets != 1 {
		t.Errorf("backend saw %d gets, want 1 (second read must come from DRAM)", fb.gets)
	}
}

// The hit must be served from the DRAM copy, not silently re-read from the
// backend: mutate the backend behind the tier's back and confirm the tier
// still returns the admitted bytes.
func TestTierHitServedFromDRAM(t *testing.T) {
	fb := newFake()
	p, tier := newTier(t, fb, Config{})
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		fb.vals[string(keyFor(1))] = valFor(1, 0)
		get(ctx, tier, keyFor(1))
		fb.vals[string(keyFor(1))] = valFor(1, 99) // out-of-band mutation
		v, ok := get(ctx, tier, keyFor(1))
		if !ok || !bytes.Equal(v, valFor(1, 0)) {
			t.Errorf("hit returned %x, want the cached rev-0 bytes", v)
		}
	})
	p.Run()
}

func TestTierGetIntoParity(t *testing.T) {
	fb := newFake()
	p, tier := newTier(t, fb, Config{})
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		fb.vals[string(keyFor(3))] = valFor(3, 0)
		dst := make([]byte, 64)
		n, ok := tier.GetInto(ctx, keyFor(3), dst)
		if !ok || n != 48 || !bytes.Equal(dst[:n], valFor(3, 0)) {
			t.Fatalf("miss: n=%d ok=%v", n, ok)
		}
		for i := range dst {
			dst[i] = 0xEE
		}
		n, ok = tier.GetInto(ctx, keyFor(3), dst)
		if !ok || n != 48 || !bytes.Equal(dst[:n], valFor(3, 0)) {
			t.Fatalf("hit: n=%d ok=%v val=%x", n, ok, dst[:n])
		}
		if _, ok := tier.GetInto(ctx, keyFor(999), dst); ok {
			t.Fatalf("absent key reported present")
		}
	})
	p.Run()
	c := tier.Counters()
	if c.Hits != 1 || c.Admits != 1 {
		t.Errorf("counters = %+v, want 1 hit 1 admit", c)
	}
}

func TestTierInvalidateOnPutAndDelete(t *testing.T) {
	fb := newFake()
	p, tier := newTier(t, fb, Config{})
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		k := keyFor(5)
		fb.vals[string(k)] = valFor(5, 0)
		get(ctx, tier, k) // admit rev 0
		if err := tier.Put(ctx, k, valFor(5, 1)); err != nil {
			t.Fatal(err)
		}
		v, ok := get(ctx, tier, k)
		if !ok || !bytes.Equal(v, valFor(5, 1)) {
			t.Fatalf("post-put read: ok=%v val=%x, want rev 1", ok, v)
		}
		v, ok = get(ctx, tier, k) // rev 1 should now be cached
		if !ok || !bytes.Equal(v, valFor(5, 1)) {
			t.Fatalf("post-put hit: ok=%v val=%x", ok, v)
		}
		if err := tier.Delete(ctx, k); err != nil {
			t.Fatal(err)
		}
		if _, ok := get(ctx, tier, k); ok {
			t.Fatal("read after delete reported present")
		}
	})
	p.Run()
	c := tier.Counters()
	if c.Invalidations != 2 {
		t.Errorf("invalidations = %d, want 2 (put + delete each dropped a cached record)", c.Invalidations)
	}
}

func TestTierAdmitOnNthTouch(t *testing.T) {
	fb := newFake()
	p, tier := newTier(t, fb, Config{Admit: 3})
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		fb.vals[string(keyFor(9))] = valFor(9, 0)
		for i := 0; i < 3; i++ {
			get(ctx, tier, keyFor(9)) // misses 1..3; the 3rd admits
		}
		get(ctx, tier, keyFor(9)) // hit
	})
	p.Run()
	c := tier.Counters()
	if c.Misses != 3 || c.Hits != 1 || c.Admits != 1 {
		t.Errorf("counters = %+v, want 3 misses then 1 hit with a single admit", c)
	}
}

func TestTierCapacityEviction(t *testing.T) {
	fb := newFake()
	// 4 slots of 64 B.
	p, tier := newTier(t, fb, Config{CapacityBytes: 256})
	var victims []int64
	tier.SetEvictHook(func(id int64) { victims = append(victims, id) })
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		for id := int64(0); id < 8; id++ {
			fb.vals[string(keyFor(id))] = valFor(id, 0)
			get(ctx, tier, keyFor(id))
		}
	})
	p.Run()
	if tier.Len() != 4 || tier.Slots() != 4 {
		t.Errorf("len=%d slots=%d, want 4/4", tier.Len(), tier.Slots())
	}
	c := tier.Counters()
	if c.Evictions != 4 || int64(len(victims)) != c.Evictions {
		t.Errorf("evictions=%d victims=%v, want 4", c.Evictions, victims)
	}
}

// With the clock policy, a record referenced since the last sweep survives
// one pass; an untouched record is the victim.
func TestTierClockPrefersUnreferenced(t *testing.T) {
	fb := newFake()
	p, tier := newTier(t, fb, Config{CapacityBytes: 128}) // 2 slots
	var victims []int64
	tier.SetEvictHook(func(id int64) { victims = append(victims, id) })
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		for _, id := range []int64{1, 2} {
			fb.vals[string(keyFor(id))] = valFor(id, 0)
			get(ctx, tier, keyFor(id))
		}
		get(ctx, tier, keyFor(1)) // hit: sets 1's reference bit
		fb.vals[string(keyFor(3))] = valFor(3, 0)
		get(ctx, tier, keyFor(3)) // must evict 2, not the referenced 1
	})
	p.Run()
	if len(victims) != 1 || victims[0] != 2 {
		t.Errorf("victims = %v, want [2]", victims)
	}
}

func TestTierTenantQuota(t *testing.T) {
	fb := newFake()
	// 8 slots total; each tenant owns 100 ids and at most 2 slots.
	p, tier := newTier(t, fb, Config{CapacityBytes: 512, TenantSpan: 100, QuotaBytes: 128})
	var victims []int64
	tier.SetEvictHook(func(id int64) { victims = append(victims, id) })
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		for _, id := range []int64{100, 101} { // tenant 1 settles in first
			fb.vals[string(keyFor(id))] = valFor(id, 0)
			get(ctx, tier, keyFor(id))
		}
		for id := int64(0); id < 10; id++ { // tenant 0 churns through 10 keys
			fb.vals[string(keyFor(id))] = valFor(id, 0)
			get(ctx, tier, keyFor(id))
		}
		// Tenant 1's records must have survived tenant 0's churn.
		get(ctx, tier, keyFor(100))
		get(ctx, tier, keyFor(101))
	})
	p.Run()
	c := tier.Counters()
	if c.Hits != 2 {
		t.Errorf("tenant-1 re-reads: hits=%d, want 2 (quota must shield the neighbor)", c.Hits)
	}
	for _, v := range victims {
		if v >= 100 {
			t.Errorf("tenant-1 record %d was evicted by tenant-0 churn", v)
		}
	}
	if c.Evictions != 8 {
		t.Errorf("evictions=%d, want 8 (10 tenant-0 admits through 2 quota slots)", c.Evictions)
	}
}

// Same seed, same workload → identical eviction victim streams, for both
// policies.
func TestTierEvictionDeterministic(t *testing.T) {
	for _, policy := range []string{PolicyClock, PolicyRandom} {
		run := func() []int64 {
			fb := newFake()
			p, tier := newTier(t, fb, Config{CapacityBytes: 256, Policy: policy, Seed: 42})
			var victims []int64
			tier.SetEvictHook(func(id int64) { victims = append(victims, id) })
			p.Go("t", 0, func(ctx *platform.MemCtx) {
				rng := sim.NewRNG(7)
				for i := 0; i < 200; i++ {
					id := int64(rng.Intn(32))
					k := keyFor(id)
					if _, ok := fb.vals[string(k)]; !ok {
						fb.vals[string(k)] = valFor(id, 0)
					}
					get(ctx, tier, k)
				}
			})
			p.Run()
			return victims
		}
		a, b := run(), run()
		if len(a) == 0 {
			t.Fatalf("%s: workload produced no evictions", policy)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: victim stream lengths differ: %d vs %d", policy, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: victim streams diverge at %d: %d vs %d", policy, i, a[i], b[i])
			}
		}
	}
}

func TestTierOversizeReadsThrough(t *testing.T) {
	fb := newFake()
	p, tier := newTier(t, fb, Config{RecordBytes: 64})
	p.Go("t", 0, func(ctx *platform.MemCtx) {
		big := make([]byte, 200) // larger than the 64 B slot
		fb.vals[string(keyFor(1))] = big
		for i := 0; i < 3; i++ {
			v, ok := get(ctx, tier, keyFor(1))
			if !ok || len(v) != 200 {
				t.Fatalf("oversize read %d: ok=%v len=%d", i, ok, len(v))
			}
		}
	})
	p.Run()
	c := tier.Counters()
	if c.Hits != 0 || c.Admits != 0 || c.Misses != 3 {
		t.Errorf("counters = %+v, want pure read-through", c)
	}
}

// A Put racing a concurrent miss-fill must never strand the old value in
// the tier: after both procs finish, a fresh read returns the last write.
func TestTierWriteRaceNeverServesStale(t *testing.T) {
	fb := newFake()
	fb.lat = 200 // open a wide window between backend snapshot and fill publish
	p, tier := newTier(t, fb, Config{})
	k := keyFor(11)
	const rounds = 50
	p.Go("writer", 0, func(ctx *platform.MemCtx) {
		for rev := 1; rev <= rounds; rev++ {
			tier.Put(ctx, k, valFor(11, rev))
		}
	})
	p.Go("reader", 0, func(ctx *platform.MemCtx) {
		for i := 0; i < rounds*3; i++ {
			if v, ok := get(ctx, tier, k); ok && len(v) != 48 {
				t.Errorf("read %d returned %d bytes", i, len(v))
			}
		}
	})
	p.Run()

	p2 := p // both procs are done; reuse the platform for the final check
	p2.Go("check", 0, func(ctx *platform.MemCtx) {
		v, ok := get(ctx, tier, k)
		if !ok || !bytes.Equal(v, valFor(11, rounds)) {
			t.Errorf("final read: ok=%v rev=%d, want rev %d (stale fill published?)",
				ok, binary.LittleEndian.Uint64(v[8:]), rounds)
		}
		v, ok = get(ctx, tier, k) // and whatever is cached now must also be final
		if !ok || !bytes.Equal(v, valFor(11, rounds)) {
			t.Errorf("final cached read: ok=%v, want rev %d", ok, rounds)
		}
	})
	p2.Run()
}

func TestTierConfigValidation(t *testing.T) {
	pc := platform.DefaultConfig()
	p := platform.MustNew(pc)
	fb := newFake()
	if _, err := New(p, nil, Config{CapacityBytes: 1024, RecordBytes: 64}); err == nil {
		t.Error("nil backend accepted")
	}
	if _, err := New(p, fb, Config{CapacityBytes: 32, RecordBytes: 64}); err == nil {
		t.Error("capacity below one slot accepted")
	}
	if _, err := New(p, fb, Config{CapacityBytes: 1024, RecordBytes: 64, Policy: "lru"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := New(p, fb, Config{CapacityBytes: 1024, RecordBytes: 64, QuotaBytes: 32}); err == nil {
		t.Error("quota below one slot accepted")
	}
	if _, err := New(p, fb, Config{CapacityBytes: 1024, RecordBytes: 64}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
