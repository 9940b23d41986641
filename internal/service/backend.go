package service

import (
	"cmp"
	"encoding/binary"
	"fmt"

	"optanestudy/internal/lsmkv"
	"optanestudy/internal/memmode"
	"optanestudy/internal/platform"
	"optanestudy/internal/pmemkv"
	"optanestudy/internal/pmemobj"
	"optanestudy/internal/topology"
)

// Backend is the KV engine a frontend serves requests against. Both
// implementations execute against a simulated platform through a worker's
// memory context, so service time is the engine's real (simulated) memory
// cost and queueing delay composes with it into end-to-end latency.
type Backend interface {
	BufferGetter
	Put(ctx *platform.MemCtx, key, val []byte) error
	// Scan reads up to n records in key order starting at key, returning
	// how many it touched. lsmkv serves it natively (a sorted memtable +
	// SST merge walk); pmemkv has no ordered iterator and emulates it with
	// n point lookups of the successive key ids, wrapping inside the
	// preloaded keyspace shard. Scan may overwrite key: the emulated walk
	// renders each successive key into it.
	Scan(ctx *platform.MemCtx, key []byte, n int) int
	// Delete removes key (blind tombstone write for lsmkv, chain unlink
	// for pmemkv).
	Delete(ctx *platform.MemCtx, key []byte) error
}

// BufferGetter is a Backend's read: the value lands in the caller's buffer
// and its full length is returned (ok reports presence). A value longer
// than dst costs the same simulated loads and fills dst with its prefix. A
// GET reads into the worker's scratch and stays off the Go heap, which is
// what keeps the steady-state dispatch loop at zero allocations per op.
type BufferGetter interface {
	GetInto(ctx *platform.MemCtx, key, dst []byte) (int, bool)
}

// KeyFor renders the fixed-width key for a global key id, matching the
// layout the backends are preloaded with.
func KeyFor(id int64, size int) []byte {
	k := make([]byte, size)
	KeyInto(k, id)
	return k
}

// KeyInto renders the key for id into k (len(k) is the key size) without
// allocating — the dispatch hot path's variant. Backends copy key bytes
// on insert, so callers may reuse k across requests.
func KeyInto(k []byte, id int64) {
	binary.LittleEndian.PutUint64(k, uint64(id))
	for i := 8; i < len(k); i++ {
		k[i] = byte('k' + (id+int64(i))%13)
	}
}

// KeyID recovers the global key id a KeyFor key encodes.
func KeyID(key []byte) int64 {
	return int64(binary.LittleEndian.Uint64(key))
}

// ValFor renders a deterministic value for a key id.
func ValFor(id int64, size int) []byte {
	v := make([]byte, size)
	ValInto(v, id)
	return v
}

// ValInto renders the value for id into v without allocating, the
// counterpart of KeyInto.
func ValInto(v []byte, id int64) {
	binary.LittleEndian.PutUint64(v, uint64(id)*2654435761+1)
	clear(v[8:])
}

// BackendSpec configures a preloaded backend.
type BackendSpec struct {
	// Media places the store: "optane" (interleaved), "optane-ni" (a single
	// DIMM — the contention-study placement) or "dram".
	Media string
	// Socket is the socket whose DIMMs back the namespaces (and where the
	// preload thread runs). Serving threads elsewhere pay the UPI remote
	// penalty.
	Socket int
	// Channels optionally pins the store to an explicit DIMM set on Socket
	// (interleave order); nil keeps the Media-derived default (all channels
	// for "optane"/"dram", channel 0 for "optane-ni"). Cluster placement
	// policies use this to carve per-shard DIMM sets.
	Channels []int
	// NamePrefix distinguishes the backing namespaces when several backends
	// share a platform (one per shard); empty means "serve".
	NamePrefix string
	// Mode selects the lsmkv persistence strategy ("wal-posix", "wal-flex"
	// or "pmem-memtable"); ignored by pmemkv.
	Mode string
	// Keys is the number of key ids preloaded (every tenant keyspace must
	// fall inside [0, Keys)).
	Keys             int64
	KeySize, ValSize int
	// PMBytes and DRAMBytes size the backing namespaces (defaults 128 MiB
	// and 64 MiB); validated against the preloaded payload.
	PMBytes, DRAMBytes int64
	// ScanSpan is the key-id span an emulated scan wraps within (the
	// per-tenant keyspace shard); 0 means the whole [0, Keys) range.
	ScanSpan int64
	// NativeScan routes lsmkv scans through the sorted merge iterator
	// instead of the emulated point-lookup loop.
	NativeScan bool
	// NearBytes sizes the near-DRAM hardware cache of the "memmode"
	// backend (ignored by the others).
	NearBytes int64
}

// lsmkvMemtableBytes is the serving backends' memtable cap.
const lsmkvMemtableBytes = 8 << 20

// normalize fills defaults and validates the namespace budget against the
// preloaded payload.
func (bs *BackendSpec) normalize() error {
	if bs.NamePrefix == "" {
		bs.NamePrefix = "serve"
	}
	if bs.PMBytes == 0 {
		bs.PMBytes = 128 << 20
	}
	if bs.DRAMBytes == 0 {
		bs.DRAMBytes = 64 << 20
	}
	if bs.ScanSpan == 0 {
		bs.ScanSpan = bs.Keys
	}
	if bs.Keys > 0 {
		payload := bs.Keys * int64(bs.KeySize+bs.ValSize)
		if bs.PMBytes < payload {
			return fmt.Errorf("service: pm namespace (%d bytes) smaller than the %d-byte preloaded payload (%d keys × %d bytes)",
				bs.PMBytes, payload, bs.Keys, bs.KeySize+bs.ValSize)
		}
	}
	return nil
}

// namespace carves the PM namespace on the spec's (socket, DIMM-set)
// placement; callers normalize the spec first (NewAppendLog included), so
// PMBytes and NamePrefix are always set here.
func (bs BackendSpec) namespace(p *platform.Platform, suffix string) (*platform.Namespace, error) {
	spec := topology.Spec{
		Name:     bs.NamePrefix + suffix,
		Socket:   bs.Socket,
		Size:     bs.PMBytes,
		Channels: bs.Channels,
	}
	switch bs.Media {
	case "optane":
		spec.Media = topology.MediaXP
	case "optane-ni":
		spec.Media = topology.MediaXP
		if spec.Channels == nil {
			spec.Channels = []int{0}
		}
		if len(spec.Channels) != 1 {
			return nil, fmt.Errorf("service: optane-ni wants exactly one channel, got %v", spec.Channels)
		}
	case "dram":
		spec.Media = topology.MediaDRAM
	default:
		return nil, fmt.Errorf("service: unknown media %q (want optane, optane-ni or dram)", bs.Media)
	}
	return p.CreateNamespace(spec)
}

// load preloads key ids [0, Keys) through put, rendering every key and
// value into one reused pair of buffers: backends copy what they store.
func (bs BackendSpec) load(put func(key, val []byte) error) error {
	key, val := make([]byte, bs.KeySize), make([]byte, bs.ValSize)
	for id := int64(0); id < bs.Keys; id++ {
		KeyInto(key, id)
		ValInto(val, id)
		if err := put(key, val); err != nil {
			return err
		}
	}
	return nil
}

// emulateScan is the shared emulated range read: n point lookups of the
// successive key ids, wrapping inside the shard that owns the start key.
// Each key is rendered into key, overwriting it, and each value lands in
// discard, so a scan stays off the Go heap. discard may be shared by the
// workers of one backend since nothing reads it back; key may not, since a
// lookup yields mid-compare.
func emulateScan(ctx *platform.MemCtx, get func(ctx *platform.MemCtx, key, dst []byte) (int, bool), key []byte, n int, span int64, discard []byte) int {
	id := KeyID(key)
	base := id
	if span > 0 {
		base = id / span * span
	}
	for i := 0; i < n; i++ {
		next := id + int64(i)
		if span > 0 {
			next = base + (id-base+int64(i))%span
		}
		KeyInto(key, next)
		get(ctx, key, discard)
	}
	return n
}

// cmapBackend adapts pmemkv.CMap, carrying what its emulated scans need:
// the wrap span and a value-sized discard buffer.
type cmapBackend struct {
	m       *pmemkv.CMap
	span    int64
	discard []byte
}

func (b *cmapBackend) GetInto(ctx *platform.MemCtx, key, dst []byte) (int, bool) {
	return b.m.GetInto(ctx, key, dst)
}

func (b *cmapBackend) Put(ctx *platform.MemCtx, key, val []byte) error {
	return b.m.Put(ctx, key, val)
}

func (b *cmapBackend) Scan(ctx *platform.MemCtx, key []byte, n int) int {
	return emulateScan(ctx, b.m.GetInto, key, n, b.span, b.discard)
}

func (b *cmapBackend) Delete(ctx *platform.MemCtx, key []byte) error {
	b.m.Delete(ctx, key)
	return nil
}

// NewPMemKV builds a pmemkv cmap on the platform and preloads every key.
// The load phase runs on its own simulated thread before serving starts.
func NewPMemKV(p *platform.Platform, bs BackendSpec) (Backend, error) {
	if err := bs.normalize(); err != nil {
		return nil, err
	}
	ns, err := bs.namespace(p, "-kv")
	if err != nil {
		return nil, err
	}
	pool, err := pmemobj.Create(ns)
	if err != nil {
		return nil, err
	}
	var m *pmemkv.CMap
	var loadErr error
	p.Go(bs.NamePrefix+"-load", bs.Socket, func(ctx *platform.MemCtx) {
		m, loadErr = pmemkv.CreateCMap(ctx, pool, int(bs.Keys)*2)
		if loadErr != nil {
			return
		}
		loadErr = bs.load(func(key, val []byte) error { return m.Put(ctx, key, val) })
	})
	p.Run()
	if loadErr != nil {
		return nil, loadErr
	}
	return &cmapBackend{m: m, span: bs.ScanSpan, discard: make([]byte, bs.ValSize)}, nil
}

// lsmBackend adapts lsmkv.DB: a service PUT is a durable SET, a DELETE is
// a tombstone write, and a SCAN is either the native sorted merge walk or
// the emulated point-lookup loop.
type lsmBackend struct {
	db      *lsmkv.DB
	span    int64
	discard []byte
	native  bool
}

func (b *lsmBackend) GetInto(ctx *platform.MemCtx, key, dst []byte) (int, bool) {
	return b.db.GetInto(ctx, key, dst)
}

func (b *lsmBackend) Put(ctx *platform.MemCtx, key, val []byte) error {
	return b.db.Set(ctx, key, val)
}

func (b *lsmBackend) Scan(ctx *platform.MemCtx, key []byte, n int) int {
	if b.native {
		return b.db.Scan(ctx, key, n, func(_, _ []byte) bool { return true })
	}
	return emulateScan(ctx, b.db.GetInto, key, n, b.span, b.discard)
}

func (b *lsmBackend) Delete(ctx *platform.MemCtx, key []byte) error {
	return b.db.Delete(ctx, key)
}

// NewLSMKV builds an lsmkv database on the platform and preloads every key.
func NewLSMKV(p *platform.Platform, bs BackendSpec) (Backend, error) {
	if err := bs.normalize(); err != nil {
		return nil, err
	}
	if bs.DRAMBytes < lsmkvMemtableBytes {
		return nil, fmt.Errorf("service: dram namespace (%d bytes) smaller than the %d-byte memtable",
			bs.DRAMBytes, int64(lsmkvMemtableBytes))
	}
	mode, err := lsmkv.ParseMode(cmp.Or(bs.Mode, "wal-flex"))
	if err != nil {
		return nil, fmt.Errorf("service: lsmkv: %w", err)
	}
	pm, err := bs.namespace(p, "-pm")
	if err != nil {
		return nil, err
	}
	dram, err := p.DRAM(bs.NamePrefix+"-mem", bs.Socket, bs.DRAMBytes)
	if err != nil {
		return nil, err
	}
	var db *lsmkv.DB
	var loadErr error
	p.Go(bs.NamePrefix+"-load", bs.Socket, func(ctx *platform.MemCtx) {
		db, loadErr = lsmkv.Open(ctx, lsmkv.Options{
			Mode: mode, PM: pm, DRAM: dram, MemtableBytes: lsmkvMemtableBytes, Seed: 5,
		})
		if loadErr != nil {
			return
		}
		loadErr = bs.load(func(key, val []byte) error { return db.Set(ctx, key, val) })
	})
	p.Run()
	if loadErr != nil {
		return nil, loadErr
	}
	return &lsmBackend{db: db, span: bs.ScanSpan, discard: make([]byte, bs.ValSize), native: bs.NativeScan}, nil
}

// memModeBackend is the Memory-Mode configuration of the serving
// experiment: the whole record store lives in one large volatile address
// space — far 3D XPoint behind the memory controller's direct-mapped
// near-DRAM cache — so DRAM caching is done by hardware at 64 B line
// granularity instead of by an explicit software hot tier, and nothing is
// durable (Section 2.1.2). Records sit flat at id × valSize; presence is
// volatile bookkeeping, mirroring a hash-index-in-main-memory design whose
// index probes are free (the axis under study is the data path).
type memModeBackend struct {
	mm      *memmode.Memory
	keys    int64
	valSize int
	span    int64
	discard []byte
	present []bool
}

func (b *memModeBackend) recOff(id int64) int64 { return id * int64(b.valSize) }

func (b *memModeBackend) GetInto(ctx *platform.MemCtx, key, dst []byte) (int, bool) {
	id := KeyID(key)
	if id < 0 || id >= b.keys || !b.present[id] {
		return 0, false
	}
	val := dst
	if b.valSize > len(dst) {
		val = make([]byte, b.valSize)
	}
	b.mm.Load(ctx, b.recOff(id), b.valSize, val)
	copy(dst, val)
	return b.valSize, true
}

func (b *memModeBackend) Put(ctx *platform.MemCtx, key, val []byte) error {
	id := KeyID(key)
	if id < 0 || id >= b.keys {
		return fmt.Errorf("service: memmode key id %d outside the preloaded [0, %d) range", id, b.keys)
	}
	if len(val) > b.valSize {
		return fmt.Errorf("service: memmode value (%d bytes) exceeds the %d-byte record", len(val), b.valSize)
	}
	b.mm.Store(ctx, b.recOff(id), len(val), val)
	b.present[id] = true
	return nil
}

func (b *memModeBackend) Scan(ctx *platform.MemCtx, key []byte, n int) int {
	return emulateScan(ctx, b.GetInto, key, n, b.span, b.discard)
}

func (b *memModeBackend) Delete(ctx *platform.MemCtx, key []byte) error {
	id := KeyID(key)
	if id >= 0 && id < b.keys {
		b.present[id] = false
	}
	return nil
}

// Stats exposes the hardware cache counters for the harness metrics.
func (b *memModeBackend) Stats() *memmode.Memory { return b.mm }

// NewMemModeKV builds the Memory-Mode record store, preloaded like the
// persistent backends. bs.NearBytes sizes the near-DRAM cache; the far
// region holds the whole record payload.
func NewMemModeKV(p *platform.Platform, bs BackendSpec) (Backend, error) {
	if err := bs.normalize(); err != nil {
		return nil, err
	}
	if bs.NearBytes <= 0 {
		return nil, fmt.Errorf("service: memmode backend needs a positive near-DRAM size, got %d", bs.NearBytes)
	}
	far := bs.Keys * int64(bs.ValSize)
	if far < bs.NearBytes {
		far = bs.NearBytes // memmode requires far >= near
	}
	mm, err := memmode.New(p, bs.NamePrefix+"-mm", bs.Socket, bs.NearBytes, far)
	if err != nil {
		return nil, err
	}
	b := &memModeBackend{
		mm: mm, keys: bs.Keys, valSize: bs.ValSize, span: bs.ScanSpan,
		discard: make([]byte, bs.ValSize), present: make([]bool, bs.Keys),
	}
	var loadErr error
	p.Go(bs.NamePrefix+"-load", bs.Socket, func(ctx *platform.MemCtx) {
		loadErr = bs.load(func(key, val []byte) error { return b.Put(ctx, key, val) })
	})
	p.Run()
	if loadErr != nil {
		return nil, loadErr
	}
	return b, nil
}

// NewBackend builds the named backend ("pmemkv", "lsmkv" or "memmode"),
// preloaded.
func NewBackend(p *platform.Platform, name string, bs BackendSpec) (Backend, error) {
	switch name {
	case "pmemkv":
		return NewPMemKV(p, bs)
	case "lsmkv":
		return NewLSMKV(p, bs)
	case "memmode":
		return NewMemModeKV(p, bs)
	default:
		return nil, fmt.Errorf("service: unknown backend %q (want pmemkv, lsmkv or memmode)", name)
	}
}
