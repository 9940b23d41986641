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
