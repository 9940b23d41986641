// Package figures regenerates every data figure of the paper's evaluation
// (Figures 2–19; Figures 1 and 11 are diagrams). Each runner builds fresh
// simulated platforms, executes the paper's experiment, and returns the
// series as stats.Figure values that the figures/* scenarios render as TSV
// tables. DESIGN.md records the one known deviation, on Figure 17's write
// rows.
package figures

import (
	"strconv"
	"strings"
	"sync/atomic"

	"optanestudy/internal/harness"
	"optanestudy/internal/lattester"
	"optanestudy/internal/platform"
	"optanestudy/internal/sim"
	"optanestudy/internal/stats"
)

// Quality trades fidelity for run time.
type Quality int

// Quality levels: Quick for tests, Full for the benchmark harness.
const (
	Quick Quality = iota
	Full
)

func (q Quality) dur(full sim.Time) sim.Time {
	if q == Quick {
		return full / 4
	}
	return full
}

func (q Quality) ops(full int) int {
	if q == Quick {
		return full / 5
	}
	return full
}

// Runner couples a figure id with its generator.
type Runner struct {
	ID    string
	Title string
	Run   func(q Quality) []stats.Figure
}

// All returns every figure runner in paper order.
func All() []Runner {
	return []Runner{
		{"fig2", "Best-case latency", Fig2},
		{"fig3", "Tail latency vs hotspot size", Fig3},
		{"fig4", "Bandwidth vs thread count", Fig4},
		{"fig5", "Bandwidth vs access size", Fig5},
		{"fig6", "Latency under load", Fig6},
		{"fig7", "Microbenchmarks under emulation", Fig7},
		{"fig8", "Migrating RocksDB to 3D XPoint memory", Fig8},
		{"fig9", "EWR vs throughput on a single DIMM", Fig9},
		{"fig10", "Inferring XPBuffer capacity", Fig10},
		{"fig12", "File IO latency", Fig12},
		{"fig13", "Performance of persistence instructions", Fig13},
		{"fig14", "Bandwidth over sfence intervals", Fig14},
		{"fig15", "Persistence instructions for micro-buffering", Fig15},
		{"fig16", "iMC contention", Fig16},
		{"fig17", "Multi-DIMM NOVA", Fig17},
		{"fig18", "Bandwidth on Optane and Optane-Remote by R/W mix", Fig18},
		{"fig19", "NUMA degradation for PMemKV", Fig19},
	}
}

// Lookup returns the runner with the given id, or nil.
func Lookup(id string) *Runner {
	for _, r := range All() {
		if r.ID == id {
			r := r
			return &r
		}
	}
	return nil
}

// Pattern shorthands.
const (
	patSeq  = lattester.Sequential
	patRand = lattester.Random
)

func patLabel(p lattester.PatternKind) string {
	if p == patSeq {
		return "Seq"
	}
	return "Rand"
}

// batchParallel is the worker-pool width figure datapoint batches run at.
// The figures/* scenario wrapper stamps it with the enclosing driver's
// effective width (harness.Spec.Parallel) so a -parallel 1 sweep stays
// serial end to end; 0 (direct generator calls, e.g. from tests) means
// GOMAXPROCS. Configuration only — the datapoints are byte-identical at
// any width — and every concurrent writer within one process carries the
// same CLI-chosen value, so the atomic is just for race-freedom.
var batchParallel atomic.Int64

// batchWidth returns the current nested-batch pool width.
func batchWidth() int { return int(batchParallel.Load()) }

// trials runs a batch of datapoint specs through the parallel driver — one
// independent job per spec, fanned across batchWidth workers — and returns
// the trials in input order. Seeds derive from each resolved spec, so a
// figure built from a batch is identical to one built point by point.
func trials(specs []harness.Spec) []harness.Trial {
	out := make([]harness.Trial, len(specs))
	for i, sr := range harness.RunSpecs(specs, batchWidth()) {
		if sr.Err != nil {
			panic("figures: " + sr.Err.Error())
		}
		out[i] = sr.Result.Trials[0]
	}
	return out
}

// kernel builds the harness spec for one lattester/kernel datapoint against
// a system label ("DRAM", "Optane", "Optane-NI" — nsFor's vocabulary).
func kernel(system string, op lattester.Op, pat lattester.PatternKind, size int) harness.Spec {
	return harness.Spec{
		Scenario: "lattester/kernel",
		Params: map[string]string{
			"system":  strings.ToLower(system),
			"op":      op.String(),
			"pattern": pat.String(),
			"size":    strconv.Itoa(size),
		},
	}
}

// mustNS panics on namespace-creation failure (static specs in runners).
func mustNS(ns *platform.Namespace, err error) *platform.Namespace {
	if err != nil {
		panic(err)
	}
	return ns
}
