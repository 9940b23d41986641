package main

import (
	"time"

	"optanestudy/internal/sim"
)

// sizes scales the workloads: fullSizes is the benchmark, tinySizes the
// self-test's smoke run.
type sizes struct {
	// device
	idleOps     int
	threads     []int // must include 1, 4, 6 and 24 (fidelity points)
	kernelDur   sim.Time
	accessSizes []int
	sizeThreads int
	probeLines  []int64
	spreadN     []int
	tailOps     int
	// serving; both grids must include headlineKops
	writeGrid, readGrid []float64
	window, warmup      sim.Time
	// layer drives
	driveRounds int
	driveRound  time.Duration
	legReps     int
}

var fullSizes = &sizes{
	idleOps:     3000,
	threads:     []int{1, 2, 4, 6, 8, 16, 24},
	kernelDur:   200 * sim.Microsecond,
	accessSizes: []int{64, 128, 256, 512, 1024, 2048, 4096},
	sizeThreads: 4,
	probeLines:  []int64{32, 64, 128, 256, 512},
	spreadN:     []int{1, 2, 3, 6},
	tailOps:     100000,
	writeGrid:   []float64{3000, 6000, 9000, 12000, 15000, 18000, 21000, 24000, 27000},
	// 7000 kops steps keep grid points off the headline leg's latency
	// crossing: its p99 passes 10 µs at a seed-dependent load between
	// 27000 and 31000 kops, so a grid point there lets the knee flip with
	// the seed.
	readGrid:    []float64{5000, 12000, 19000, 26000, 33000, 40000},
	window:      1000 * sim.Microsecond,
	warmup:      100 * sim.Microsecond,
	driveRounds: 5,
	driveRound:  40 * time.Millisecond,
	legReps:     3,
}

var tinySizes = &sizes{
	idleOps:     300,
	threads:     []int{1, 4, 6, 24},
	kernelDur:   20 * sim.Microsecond,
	accessSizes: []int{64, 4096},
	sizeThreads: 2,
	probeLines:  []int64{32},
	spreadN:     []int{1, 6},
	tailOps:     2000,
	writeGrid:   []float64{6000, 12000},
	readGrid:    []float64{12000, 20000},
	window:      60 * sim.Microsecond,
	warmup:      10 * sim.Microsecond,
	driveRounds: 1,
	driveRound:  time.Millisecond,
	legReps:     1,
}
