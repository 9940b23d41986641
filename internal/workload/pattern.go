// Package workload generates the access patterns and record streams used by
// the study's experiments: sequential and random address patterns, Zipfian
// and shifting-hotspot key popularity, read/write mixes, and key-value
// records for the db_bench-style workloads.
package workload

import (
	"fmt"

	"optanestudy/internal/sim"
)

// Pattern produces a stream of byte offsets within a region. Offsets are
// aligned to the configured access size so each access touches a disjoint
// naturally-aligned block.
type Pattern interface {
	// Next returns the offset of the next access.
	Next() int64
}

// Sequential walks a region front to back in accessSize steps, wrapping.
type Sequential struct {
	region int64
	step   int64
	pos    int64
}

// NewSequential returns a sequential pattern over region bytes with the
// given access size. region must be a positive multiple of accessSize.
func NewSequential(region int64, accessSize int) *Sequential {
	if accessSize <= 0 || region < int64(accessSize) {
		panic(fmt.Sprintf("workload: bad sequential region=%d size=%d", region, accessSize))
	}
	return &Sequential{region: region - region%int64(accessSize), step: int64(accessSize)}
}

// Next implements Pattern.
func (s *Sequential) Next() int64 {
	off := s.pos
	s.pos += s.step
	if s.pos >= s.region {
		s.pos = 0
	}
	return off
}

// Random produces uniformly random aligned offsets within a region.
type Random struct {
	rng    *sim.RNG
	blocks int64
	step   int64
}

// NewRandom returns a uniform random pattern over region bytes with the
// given access size.
func NewRandom(region int64, accessSize int, seed uint64) *Random {
	if accessSize <= 0 || region < int64(accessSize) {
		panic(fmt.Sprintf("workload: bad random region=%d size=%d", region, accessSize))
	}
	return &Random{
		rng:    sim.NewRNG(seed),
		blocks: region / int64(accessSize),
		step:   int64(accessSize),
	}
}

// Next implements Pattern.
func (r *Random) Next() int64 { return r.rng.Int63n(r.blocks) * r.step }

// Mix selects between read and write operations at a configured ratio using
// a deterministic interleaving (e.g. 3:1 issues RRRW RRRW ...), matching how
// the paper's bandwidth-mix experiments are constructed.
type Mix struct {
	reads  int
	writes int
	pos    int
}

// NewMix returns a mix issuing `reads` reads then `writes` writes per cycle.
// (1,0) is read-only; (0,1) is write-only.
func NewMix(reads, writes int) *Mix {
	if reads < 0 || writes < 0 || reads+writes == 0 {
		panic("workload: bad mix")
	}
	return &Mix{reads: reads, writes: writes}
}

// NextIsRead reports whether the next operation is a read.
func (m *Mix) NextIsRead() bool {
	isRead := m.pos < m.reads
	m.pos++
	if m.pos >= m.reads+m.writes {
		m.pos = 0
	}
	return isRead
}
