package workload

import (
	"fmt"

	"optanestudy/internal/sim"
)

// ShiftingHotspot draws key ids in [0, n) with a moving popularity spike: a
// fraction hotFrac of draws lands uniformly inside a hot window of hotSize
// consecutive ids, and the window relocates to a fresh seeded-uniform base
// every period draws. The cold remainder is uniform over the whole range.
//
// Under a sharded router, a window narrower than the routing block
// concentrates load on one shard at a time and the hot shard migrates as
// the window moves — the skew-vs-placement experiment the cluster sweeps
// exercise. Like every generator in this package, the stream is a pure
// function of the constructor arguments, so harness trials replay it
// identically at any scheduling width.
type ShiftingHotspot struct {
	rng     *sim.RNG
	n       int64
	hotSize int64
	period  int64
	hotFrac float64
	base    int64 // current hot-window start
	drawn   int64 // draws since the window last moved
}

// NewShiftingHotspot returns a generator over [0, n). hotSize must be in
// [1, n], hotFrac in [0, 1], and period positive.
func NewShiftingHotspot(n, hotSize, period int64, hotFrac float64, seed uint64) *ShiftingHotspot {
	if n <= 0 || hotSize < 1 || hotSize > n || period < 1 || hotFrac < 0 || hotFrac > 1 {
		panic(fmt.Sprintf("workload: bad shifting hotspot (n=%d hot=%d period=%d frac=%g)",
			n, hotSize, period, hotFrac))
	}
	s := &ShiftingHotspot{rng: sim.NewRNG(seed), n: n, hotSize: hotSize, period: period, hotFrac: hotFrac}
	s.move()
	return s
}

// move relocates the hot window to a seeded-uniform base.
func (s *ShiftingHotspot) move() {
	s.base = s.rng.Int63n(s.n - s.hotSize + 1)
	s.drawn = 0
}

// Next returns the next key id.
func (s *ShiftingHotspot) Next() int64 {
	if s.drawn == s.period {
		s.move()
	}
	s.drawn++
	if s.rng.Float64() < s.hotFrac {
		return s.base + s.rng.Int63n(s.hotSize)
	}
	return s.rng.Int63n(s.n)
}

// Base returns the current hot-window start (tests and instrumentation).
func (s *ShiftingHotspot) Base() int64 { return s.base }
