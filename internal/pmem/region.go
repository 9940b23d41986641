package pmem

import (
	"fmt"

	"optanestudy/internal/platform"
)

// Region is a bounds-checked window onto a namespace: [base, base+size) in
// namespace offsets. Every primitive operation takes region-relative
// offsets and panics (programmer error, like the platform's own range
// check) when an access would leave the window — so a software stack
// operating on a carved-out region cannot corrupt its neighbors, the
// failure mode behind PR 3's cross-namespace write-combining bug.
//
// Region is a small value type; copy it freely.
type Region struct {
	ns   *platform.Namespace
	base int64
	size int64
}

// NewRegion makes the window [base, base+size) of ns.
func NewRegion(ns *platform.Namespace, base, size int64) (Region, error) {
	if ns == nil {
		return Region{}, fmt.Errorf("pmem: nil namespace")
	}
	if base < 0 || size < 0 || base+size > ns.Size {
		return Region{}, fmt.Errorf("pmem: region [%d,+%d) outside namespace %q (size %d)",
			base, size, ns.Name, ns.Size)
	}
	return Region{ns: ns, base: base, size: size}, nil
}

// Whole returns the region covering all of ns.
func Whole(ns *platform.Namespace) Region {
	r, err := NewRegion(ns, 0, ns.Size)
	if err != nil {
		panic(err)
	}
	return r
}

// Sub carves the window [off, off+size) out of r.
func (r Region) Sub(off, size int64) (Region, error) {
	if off < 0 || size < 0 || off+size > r.size {
		return Region{}, fmt.Errorf("pmem: subregion [%d,+%d) outside region of %d bytes", off, size, r.size)
	}
	return Region{ns: r.ns, base: r.base + off, size: size}, nil
}

// Size returns the window length in bytes.
func (r Region) Size() int64 { return r.size }

// Base returns the window's namespace offset.
func (r Region) Base() int64 { return r.base }

// Namespace returns the backing namespace.
func (r Region) Namespace() *platform.Namespace { return r.ns }

func (r Region) check(off int64, size int) {
	if size < 0 || off < 0 || off+int64(size) > r.size {
		panic(fmt.Sprintf("pmem: access [%d,+%d) outside region [%d,+%d) of namespace %q",
			off, size, r.base, r.size, r.ns.Name))
	}
}

// ---- Bounds-checked primitive wrappers (region-relative offsets) ----

// Load synchronously reads size bytes (see MemCtx.Load).
func (r Region) Load(ctx *platform.MemCtx, off int64, size int) {
	r.check(off, size)
	ctx.Load(r.ns, r.base+off, size)
}

// LoadInto reads into buf (see MemCtx.LoadInto).
func (r Region) LoadInto(ctx *platform.MemCtx, off int64, buf []byte) {
	r.check(off, len(buf))
	ctx.LoadInto(r.ns, r.base+off, buf)
}

// LoadFit reads size bytes at off into buf when they fit, or into a fresh
// slice when they do not, and returns the bytes read. The simulated load
// is the same either way; only where the bytes land differs.
func (r Region) LoadFit(ctx *platform.MemCtx, off int64, size int, buf []byte) []byte {
	if size > len(buf) {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	r.LoadInto(ctx, off, buf)
	return buf
}

// LoadStream issues pipelined reads (see MemCtx.LoadStream).
func (r Region) LoadStream(ctx *platform.MemCtx, off int64, size int) {
	r.check(off, size)
	ctx.LoadStream(r.ns, r.base+off, size)
}

// Peek copies coherent contents without advancing time (see MemCtx.Peek).
func (r Region) Peek(ctx *platform.MemCtx, off int64, buf []byte) {
	r.check(off, len(buf))
	ctx.Peek(r.ns, r.base+off, buf)
}

// Store issues cached stores (see MemCtx.Store).
func (r Region) Store(ctx *platform.MemCtx, off int64, size int, data []byte) {
	r.check(off, size)
	ctx.Store(r.ns, r.base+off, size, data)
}

// NTStore issues non-temporal stores (see MemCtx.NTStore).
func (r Region) NTStore(ctx *platform.MemCtx, off int64, size int, data []byte) {
	r.check(off, size)
	ctx.NTStore(r.ns, r.base+off, size, data)
}

// CLWB writes back dirty lines without evicting.
func (r Region) CLWB(ctx *platform.MemCtx, off int64, size int) {
	r.check(off, size)
	ctx.CLWB(r.ns, r.base+off, size)
}

// CLFlushOpt writes back and evicts (unordered flush).
func (r Region) CLFlushOpt(ctx *platform.MemCtx, off int64, size int) {
	r.check(off, size)
	ctx.CLFlushOpt(r.ns, r.base+off, size)
}

// CLFlush writes back and evicts with the legacy serializing cost.
func (r Region) CLFlush(ctx *platform.MemCtx, off int64, size int) {
	r.check(off, size)
	ctx.CLFlush(r.ns, r.base+off, size)
}

// SFence fences the owning thread (see MemCtx.SFence).
func (r Region) SFence(ctx *platform.MemCtx) { ctx.SFence() }

// ReadDurable reads the ADR-durable bytes (recovery path, untimed).
func (r Region) ReadDurable(off int64, buf []byte) {
	r.check(off, len(buf))
	r.ns.ReadDurable(r.base+off, buf)
}

// WriteDurable writes durable bytes directly (mkfs-style, untimed).
func (r Region) WriteDurable(off int64, data []byte) {
	r.check(off, len(data))
	r.ns.WriteDurable(r.base+off, data)
}
