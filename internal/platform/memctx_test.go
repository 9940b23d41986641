package platform

import (
	"bytes"
	"testing"

	"optanestudy/internal/mem"
	"optanestudy/internal/sim"
)

// refPersistMasked is the per-bit walk persistMaskedTo replaced, kept as
// the reference model: each masked byte is written on its own.
func refPersistMasked(store *mem.DataStore, lineAddr int64, data []byte, mask uint64) {
	for i := 0; i < mem.CacheLine; i++ {
		if mask&(1<<uint(i)) != 0 {
			store.Write(lineAddr+int64(i), data[i:i+1])
		}
	}
}

// persistMaskedTo leaves the durable store as the per-bit walk does, over
// random masks (dense, sparse and single runs), 0 and all-ones: masked
// bytes take the overlay's value, and every other byte of the line and of
// its neighbours keeps the store's.
func TestPersistMaskedMatchesReference(t *testing.T) {
	rng := sim.NewRNG(3)
	masks := []uint64{0, ^uint64(0), 1, 1 << 63, 0x8000000000000001, 0x00FF00FF00FF00FF}
	for range 2000 {
		m := rng.Uint64()
		switch rng.Intn(3) {
		case 0:
			m &= rng.Uint64() & rng.Uint64() // sparse
		case 1:
			lo, n := rng.Intn(64), 1+rng.Intn(64) // one run
			m = (^uint64(0) >> (64 - uint(n))) << uint(lo)
		}
		masks = append(masks, m)
	}
	const line = 5*mem.Page + 3*mem.CacheLine
	var background [3 * mem.CacheLine]byte
	for i := range background {
		background[i] = byte(i) | 0x80
	}
	data := make([]byte, mem.CacheLine)
	got, want := make([]byte, len(background)), make([]byte, len(background))
	for _, m := range masks {
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		var store, ref mem.DataStore
		store.Write(line-mem.CacheLine, background[:])
		ref.Write(line-mem.CacheLine, background[:])
		persistMaskedTo(&store, line, data, m)
		refPersistMasked(&ref, line, data, m)
		store.Read(line-mem.CacheLine, got)
		ref.Read(line-mem.CacheLine, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("mask %#016x: store differs from the per-bit walk", m)
		}
	}
}

// refPeek is the per-line copy Peek replaced, kept as the reference model:
// each line's durable bytes are read on their own, then its overlay.
func refPeek(c *MemCtx, ns *Namespace, off int64, buf []byte) {
	llc := c.llc()
	for i := 0; i < len(buf); {
		addr := off + int64(i)
		line := mem.LineAddr(addr)
		lo := int(addr - line)
		n := min(mem.CacheLine-lo, len(buf)-i)
		c.p.persist.Read(ns.GlobalAddr(addr), buf[i:i+n])
		if data, mask := llc.Data(ns.GlobalAddr(line)); data != nil {
			for j := 0; j < n; j++ {
				if mask&(1<<uint(lo+j)) != 0 {
					buf[i+j] = data[lo+j]
				}
			}
		}
		i += n
	}
}

// Peek returns what the per-line copy returns, with TrackData on, over
// random offsets and lengths (many crossing pages) after random dirty
// overlays, some written back, and durable writes under them.
func TestPeekMatchesReference(t *testing.T) {
	p := newPlatform(t, true)
	ns, err := p.Optane("pm", 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const span = 6 * mem.Page
	rng := sim.NewRNG(11)
	fill := func(b []byte) []byte {
		for i := range b {
			b[i] = byte(rng.Uint64())
		}
		return b
	}
	ns.WriteDurable(0, fill(make([]byte, span)))
	run1(p, 0, func(ctx *MemCtx) {
		for round := 0; round < 20; round++ {
			for range 40 {
				n := 1 + rng.Intn(3*mem.CacheLine)
				off := rng.Int63n(span - int64(n))
				ctx.Store(ns, off, n, fill(make([]byte, n)))
				if rng.Intn(4) == 0 {
					ctx.CLWB(ns, off, n)
				}
			}
			for range 10 {
				n := 1 + rng.Intn(mem.CacheLine)
				ns.WriteDurable(rng.Int63n(span-int64(n)), fill(make([]byte, n)))
			}
			for range 50 {
				n := 1 + rng.Intn(2*mem.Page)
				off := rng.Int63n(span - int64(n))
				got, want := make([]byte, n), make([]byte, n)
				ctx.Peek(ns, off, got)
				refPeek(ctx, ns, off, want)
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d: Peek(%d, %d) differs from the per-line copy", round, off, n)
				}
			}
		}
	})
}
