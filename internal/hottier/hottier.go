// Package hottier is the DRAM hot tier the study's serving lesson calls
// for: Memory Mode hides 3D XPoint pathologies behind a near-memory DRAM
// cache (Section 6), and the app-direct analogue is an explicit,
// software-managed record cache in DRAM in front of the persistent store.
// A Tier wraps any serving backend: reads consult a DRAM namespace first
// and fall through to the backend on a miss (optionally admitting the
// record), while writes stay write-through — the backend remains the
// durability truth, the tier only invalidates — so group-commit journaling
// and crash consistency are untouched.
//
// The tier is record-granular: each cached record occupies one fixed-size,
// cache-line-padded DRAM slot. Admission is admit-on-Nth-touch (N=1 is
// admit-on-read), eviction is clock or seeded-random (deterministic from
// the job seed), and per-tenant byte quotas bound how much of the tier a
// single traffic class can own: a tenant at quota evicts its own records,
// never a neighbor's.
//
// Concurrency: simulated procs interleave only at explicit time advances,
// so all tier bookkeeping is atomic between yields and the tier takes no
// lock on the hit path. The two windows that do span a yield are handled
// explicitly: a reader validates its slot's generation after the DRAM load
// (a concurrent eviction rewrote the slot → the read is discarded and
// falls through to the backend), and a miss-fill captures the record's
// invalidation version before the backend read and publishes only if no
// write bumped it since (a racing Put can therefore never strand a stale
// record in the tier).
package hottier

import (
	"encoding/binary"
	"errors"
	"fmt"

	"optanestudy/internal/mem"
	"optanestudy/internal/platform"
	"optanestudy/internal/sim"
)

// Backend is the store the tier fronts. It is structurally identical to
// service.Backend (the tier both wraps one and is one), declared here so
// the service package can depend on hottier without a cycle.
type Backend interface {
	GetInto(ctx *platform.MemCtx, key, dst []byte) (int, bool)
	Put(ctx *platform.MemCtx, key, val []byte) error
	Scan(ctx *platform.MemCtx, key []byte, n int) int
	Delete(ctx *platform.MemCtx, key []byte) error
}

// Eviction policies.
const (
	PolicyClock  = "clock"
	PolicyRandom = "random"
)

// Config sizes and places one tier.
type Config struct {
	// Name prefixes the DRAM namespace ("<name>-hot"); empty means
	// "hottier".
	Name string
	// Socket places the DRAM namespace — the cluster layer passes the
	// shard's worker socket so hits never cross UPI.
	Socket int
	// CapacityBytes is the DRAM budget; the tier holds
	// CapacityBytes/slot-size records, where a slot is RecordBytes rounded
	// up to whole 64 B lines.
	CapacityBytes int64
	// RecordBytes is the largest value the tier caches (the serving value
	// size); longer values read through uncached.
	RecordBytes int
	// Admit is the touch count that admits a record: 1 admits on first
	// read miss, N>1 admits on the Nth miss of the same key (scan
	// resistance). 0 means 1.
	Admit int
	// Policy selects the eviction policy: PolicyClock (default) or
	// PolicyRandom.
	Policy string
	// TenantSpan is the number of consecutive key ids per tenant (the
	// serving layer's per-tenant keyspace width); 0 treats all keys as one
	// tenant. Only used for quota accounting.
	TenantSpan int64
	// QuotaBytes caps any one tenant's tier footprint; 0 is uncapped. A
	// tenant at quota evicts its own records rather than a neighbor's.
	QuotaBytes int64
	// Seed feeds the eviction RNG (derive it from the job seed so eviction
	// streams are reproducible).
	Seed uint64
}

// Counters is the tier's traffic accounting.
type Counters struct {
	Hits          int64 // reads served from DRAM
	Misses        int64 // reads that fell through to the backend
	Admits        int64 // records published into the tier
	Evictions     int64 // records displaced by admission (quota or capacity)
	Invalidations int64 // records dropped by a write to their key
}

// HitRate returns Hits / (Hits + Misses), 0 when no reads happened.
func (c Counters) HitRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// Merge folds o into c (cross-shard aggregation).
func (c *Counters) Merge(o Counters) {
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Admits += o.Admits
	c.Evictions += o.Evictions
	c.Invalidations += o.Invalidations
}

// Metrics writes the harness metric keys the cache scenarios report.
func (c Counters) Metrics(m map[string]float64) {
	m["cache_hits"] = float64(c.Hits)
	m["cache_misses"] = float64(c.Misses)
	m["cache_evictions"] = float64(c.Evictions)
	m["cache_hit_rate"] = c.HitRate()
}

// Gauges streams the cumulative counters into add — the timeline
// sampler's snapshot shape. The name set is fixed so timeline columns are
// stable across samples; a renderer differences successive snapshots into
// a windowed hit rate.
func (c Counters) Gauges(add func(name string, v float64)) {
	add("cache_hits", float64(c.Hits))
	add("cache_misses", float64(c.Misses))
	add("cache_evictions", float64(c.Evictions))
}

// slot is one DRAM record frame's volatile bookkeeping.
type slot struct {
	id     int64 // cached key id, -1 when empty
	tenant int64
	vlen   int32
	tpos   int32  // position in the owning tenant's slot list
	gen    uint32 // bumped whenever the slot's bytes stop being id's value
	busy   bool   // an install's NT stream is in flight; not a victim
	ref    bool   // clock reference bit
}

type tenantState struct {
	slots []int32
	hand  int
}

// Tier is a DRAM record cache in front of a Backend. It implements the
// same interface, so service dispatch and the cluster layer treat it as
// just another backend.
type Tier struct {
	inner Backend

	ns       *platform.Namespace
	slotSize int64
	slots    []slot
	free     []int32

	index   map[int64]int32 // key id → slot, published records only
	pending map[int64]bool  // key id has an install in flight
	ver     map[int64]uint32
	touches map[int64]int32

	admit      int
	random     bool
	rng        *sim.RNG
	hand       int
	tenantSpan int64
	quotaSlots int
	tenants    map[int64]*tenantState

	// scratch pads a record to whole 64 B lines for the fill's NT stream.
	// Sharing one buffer is safe: the copy into it and the NTStore call
	// run without a yield, and the platform captures the bytes before the
	// store's single time advance.
	scratch []byte

	ctr       Counters
	evictHook func(victimID int64)
}

// New builds a tier over inner, carving its DRAM namespace on the socket.
func New(p *platform.Platform, inner Backend, cfg Config) (*Tier, error) {
	if inner == nil {
		return nil, errors.New("hottier: backend required")
	}
	if cfg.CapacityBytes <= 0 || cfg.RecordBytes <= 0 {
		return nil, errors.New("hottier: capacity and record size must be positive")
	}
	slotSize := (int64(cfg.RecordBytes) + mem.CacheLine - 1) &^ (mem.CacheLine - 1)
	nslots := cfg.CapacityBytes / slotSize
	if nslots < 1 {
		return nil, fmt.Errorf("hottier: capacity %d B holds no %d B slot", cfg.CapacityBytes, slotSize)
	}
	if cfg.Admit < 1 {
		cfg.Admit = 1
	}
	random := false
	switch cfg.Policy {
	case "", PolicyClock:
	case PolicyRandom:
		random = true
	default:
		return nil, fmt.Errorf("hottier: unknown eviction policy %q (want clock or random)", cfg.Policy)
	}
	quotaSlots := 0
	if cfg.QuotaBytes > 0 {
		quotaSlots = int(cfg.QuotaBytes / slotSize)
		if quotaSlots < 1 {
			return nil, fmt.Errorf("hottier: quota %d B holds no %d B slot", cfg.QuotaBytes, slotSize)
		}
	}
	name := cfg.Name
	if name == "" {
		name = "hottier"
	}
	ns, err := p.DRAM(name+"-hot", cfg.Socket, nslots*slotSize)
	if err != nil {
		return nil, err
	}
	t := &Tier{
		inner: inner, ns: ns,
		slotSize:   slotSize,
		slots:      make([]slot, nslots),
		free:       make([]int32, nslots),
		index:      make(map[int64]int32),
		pending:    make(map[int64]bool),
		ver:        make(map[int64]uint32),
		touches:    make(map[int64]int32),
		admit:      cfg.Admit,
		random:     random,
		rng:        sim.NewRNG(cfg.Seed ^ 0xCAC4E),
		tenantSpan: cfg.TenantSpan,
		quotaSlots: quotaSlots,
		tenants:    make(map[int64]*tenantState),
		scratch:    make([]byte, slotSize),
	}
	for i := range t.slots {
		t.slots[i].id = -1
		t.free[i] = int32(int(nslots) - 1 - i) // pop order: slot 0 first
	}
	return t, nil
}

// Counters returns a snapshot of the tier's accounting.
func (t *Tier) Counters() Counters { return t.ctr }

// Len reports the number of published records.
func (t *Tier) Len() int { return len(t.index) }

// Slots reports the tier's record capacity.
func (t *Tier) Slots() int { return len(t.slots) }

// SetEvictHook installs a test hook invoked, in deterministic simulation
// order, with each eviction victim's key id.
func (t *Tier) SetEvictHook(fn func(victimID int64)) { t.evictHook = fn }

// recordID recovers the key id the serving layer encodes in a key's first
// 8 bytes (service.KeyFor's layout); the tier indexes records by it.
func recordID(key []byte) int64 {
	return int64(binary.LittleEndian.Uint64(key))
}

func (t *Tier) tenantOf(id int64) int64 {
	if t.tenantSpan <= 0 {
		return 0
	}
	return id / t.tenantSpan
}

func (t *Tier) off(si int32) int64 { return int64(si) * t.slotSize }

// GetInto reads key into dst and returns the value's full length: from
// DRAM on a hit, from the backend (plus a possible admission) on a miss. A
// cached record longer than dst reads through the backend.
func (t *Tier) GetInto(ctx *platform.MemCtx, key, dst []byte) (int, bool) {
	id := recordID(key)
	if si, ok := t.index[id]; ok {
		s := &t.slots[si]
		if n := int(s.vlen); n <= len(dst) {
			gen := s.gen
			ctx.LoadInto(t.ns, t.off(si), dst[:n])
			if s.gen == gen {
				t.ctr.Hits++
				s.ref = true
				return n, true
			}
			// The slot was reassigned or invalidated under the load; the
			// bytes are not id's value. Fall through to the backend.
		}
	}
	t.ctr.Misses++
	v := t.ver[id]
	n, ok := t.inner.GetInto(ctx, key, dst)
	if ok && n <= len(dst) {
		t.fill(ctx, id, dst[:n], v)
	}
	return n, ok
}

// Put writes through to the backend; the tier only invalidates. The
// second invalidation (after the backend write) is what makes the
// protocol airtight: any miss-fill that could have read the old value
// started before it, so its version check fails and it is discarded.
func (t *Tier) Put(ctx *platform.MemCtx, key, val []byte) error {
	id := recordID(key)
	t.invalidate(id)
	err := t.inner.Put(ctx, key, val)
	t.invalidate(id)
	return err
}

// Delete removes key from the backend and drops any cached copy (same
// protocol as Put).
func (t *Tier) Delete(ctx *platform.MemCtx, key []byte) error {
	id := recordID(key)
	t.invalidate(id)
	err := t.inner.Delete(ctx, key)
	t.invalidate(id)
	return err
}

// Scan streams from the backend; range reads bypass the record cache.
func (t *Tier) Scan(ctx *platform.MemCtx, key []byte, n int) int {
	return t.inner.Scan(ctx, key, n)
}

// invalidate bumps id's version (discarding in-flight fills) and drops the
// published record if one exists. Runs without yielding.
func (t *Tier) invalidate(id int64) {
	t.ver[id]++
	delete(t.touches, id)
	if si, ok := t.index[id]; ok {
		delete(t.index, id)
		t.detach(si)
		t.ctr.Invalidations++
	}
}

// detach returns a (published or abandoned) slot to the free list. The
// generation bump makes any in-flight reader of the slot discard its load.
func (t *Tier) detach(si int32) {
	s := &t.slots[si]
	ts := t.tenants[s.tenant]
	last := len(ts.slots) - 1
	ts.slots[s.tpos] = ts.slots[last]
	t.slots[ts.slots[s.tpos]].tpos = s.tpos
	ts.slots = ts.slots[:last]
	s.id = -1
	s.gen++
	s.busy = false
	t.free = append(t.free, si)
}

// evict displaces the record published in slot si (which stays attached to
// its tenant list only until the caller reassigns it).
func (t *Tier) evict(si int32) {
	s := &t.slots[si]
	if t.evictHook != nil {
		t.evictHook(s.id)
	}
	delete(t.index, s.id)
	ts := t.tenants[s.tenant]
	last := len(ts.slots) - 1
	ts.slots[s.tpos] = ts.slots[last]
	t.slots[ts.slots[s.tpos]].tpos = s.tpos
	ts.slots = ts.slots[:last]
	s.id = -1
	s.gen++
	t.ctr.Evictions++
}

// victimGlobal picks a victim over the whole tier: a clock sweep clearing
// reference bits, or a seeded-random probe. Returns -1 when every
// candidate has an install in flight (admission is skipped, not blocked).
func (t *Tier) victimGlobal() int32 {
	n := len(t.slots)
	if t.random {
		for i := 0; i < 8; i++ {
			si := int32(t.rng.Intn(n))
			if !t.slots[si].busy {
				return si
			}
		}
		return -1
	}
	for i := 0; i < 2*n+1; i++ {
		si := int32(t.hand)
		t.hand = (t.hand + 1) % n
		s := &t.slots[si]
		if s.busy {
			continue
		}
		if s.ref {
			s.ref = false
			continue
		}
		return si
	}
	return -1
}

// victimFrom picks a victim among one tenant's own slots (quota
// enforcement), with the same clock/random split as the global policy.
func (t *Tier) victimFrom(ts *tenantState) int32 {
	n := len(ts.slots)
	if t.random {
		for i := 0; i < 8; i++ {
			si := ts.slots[t.rng.Intn(n)]
			if !t.slots[si].busy {
				return si
			}
		}
		return -1
	}
	for i := 0; i < 2*n+1; i++ {
		si := ts.slots[ts.hand%n]
		ts.hand = (ts.hand + 1) % n
		s := &t.slots[si]
		if s.busy {
			continue
		}
		if s.ref {
			s.ref = false
			continue
		}
		return si
	}
	return -1
}

// fill tries to admit (id, val) after a miss. ver is id's invalidation
// version captured before the backend read: if a write bumped it since,
// the value may be stale and the fill is dropped. The install reserves a
// slot synchronously, streams the padded record into DRAM with whole-line
// NT stores (one yield, no write-combining residue, no heap traffic), and
// publishes the index entry only after the bytes are down.
func (t *Tier) fill(ctx *platform.MemCtx, id int64, val []byte, ver uint32) {
	if int64(len(val)) > t.slotSize {
		return // oversized record: read-through only
	}
	if _, ok := t.index[id]; ok {
		return // a sibling fill won the race
	}
	if t.pending[id] || t.ver[id] != ver {
		return
	}
	if t.admit > 1 {
		c := t.touches[id] + 1
		if int(c) < t.admit {
			t.touches[id] = c
			return
		}
		delete(t.touches, id)
	}
	tn := t.tenantOf(id)
	ts := t.tenants[tn]
	if ts == nil {
		ts = &tenantState{}
		t.tenants[tn] = ts
	}
	var si int32
	switch {
	case t.quotaSlots > 0 && len(ts.slots) >= t.quotaSlots:
		si = t.victimFrom(ts)
	case len(t.free) > 0:
		si = t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
	default:
		si = t.victimGlobal()
	}
	if si < 0 {
		return
	}
	s := &t.slots[si]
	if s.id >= 0 {
		t.evict(si)
	}
	// Reserve: from here the slot is invisible to victim scans (busy) and
	// its old readers are poisoned (gen bumped by evict/detach or below).
	s.id = id
	s.tenant = tn
	s.vlen = int32(len(val))
	s.gen++
	s.busy = true
	s.ref = false
	s.tpos = int32(len(ts.slots))
	ts.slots = append(ts.slots, si)
	t.pending[id] = true

	n := copy(t.scratch, val)
	for i := n; i < len(t.scratch); i++ {
		t.scratch[i] = 0
	}
	ctx.NTStore(t.ns, t.off(si), len(t.scratch), t.scratch)

	// Publish — unless a write to id raced the install.
	delete(t.pending, id)
	s.busy = false
	if t.ver[id] != ver {
		t.detach(si)
		return
	}
	t.index[id] = si
	t.ctr.Admits++
}
