// Package telemetry is the study's deterministic tracing layer: per-op
// phase spans and fixed-interval timeline samples, keyed entirely off sim
// time and job-derived seeds so traced output is byte-identical at any
// -parallel width.
//
// The paper's PM pathologies (EWR collapse, WPQ pressure, threads-per-DIMM
// contention) are phase-local — they live in one segment of a request's
// life — yet end-to-end aggregates (knee, sat, p99) fold every segment
// together. A Recorder splits each served request into sim-time edges
// (queue-wait → batch-wait → service → persist) aggregated into per-phase
// stats.Histograms, keeps the top-K slowest ops with full attribution
// (tenant, shard, worker, batch, cache hit), and samples a timeline of
// cumulative counters plus caller-registered gauges at a fixed sim-time
// interval.
//
// Tracing defaults OFF with zero overhead: every Recorder method is
// nil-receiver-safe, serving hot paths guard span construction behind a
// single nil check, and the nil fast path is pinned at 0 allocs/op by
// TestNilRecorderZeroAllocs.
package telemetry

import (
	"optanestudy/internal/sim"
	"optanestudy/internal/stats"
)

// Phase identifies one segment of a request's life. The segments tile the
// interval from arrival to completion exactly: absent segments (a phase a
// request never entered) contribute nothing to that phase's histogram
// rather than a zero — an op shed before admission, for example, must not
// pollute queue-wait.
type Phase int

// Span phases.
const (
	// PhaseQueueWait is admission to worker drain: time spent in the
	// shard's bounded queue.
	PhaseQueueWait Phase = iota
	// PhaseBatchWait is worker drain to execution start: group-commit
	// linger plus in-batch serialization behind earlier ops. Absent on the
	// unbatched path.
	PhaseBatchWait
	// PhaseService is the op's own backend execution.
	PhaseService
	// PhasePersist is execution end to durability: the group commit's
	// fence wait, or the whole write-behind append on the unbatched logged
	// path (where service and persist are one fused instruction sequence).
	PhasePersist
	// PhaseTotal is arrival to completion (the end-to-end latency the
	// serving histograms already record; kept here so one trace is
	// self-contained).
	PhaseTotal
	// NumPhases counts the phases.
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseQueueWait: "queue_wait",
	PhaseBatchWait: "batch_wait",
	PhaseService:   "service",
	PhasePersist:   "persist",
	PhaseTotal:     "total",
}

func (p Phase) String() string {
	if p >= 0 && p < NumPhases {
		return phaseNames[p]
	}
	return "phase(?)"
}

// OpSpan is one request's recorded life. The serving path fills the edges
// it observed and leaves the rest absent (Has* false); Arrival and End
// bound the span, and QueueWait + BatchWait + Service + Persist (counting
// absent segments as zero) equals End − Arrival.
type OpSpan struct {
	// Op is the request kind ("GET", "PUT", ...).
	Op string
	// Tenant, Shard and Worker attribute the span to its traffic class and
	// dispatch target.
	Tenant, Shard, Worker int
	// Key is the global key id; Batch is the group-commit batch the op
	// rode in (0 = unbatched).
	Key, Batch int64
	// CacheHit is the DRAM-tier outcome of a GET: 1 hit, 0 miss, -1
	// unknown (no tier, or not a GET).
	CacheHit int8
	// Arrival and End bound the span in sim time.
	Arrival, End sim.Time
	// The phase segments; absent ones are zero with Has* false
	// (QueueWait is always present — every admitted op waited, possibly
	// zero time).
	QueueWait, BatchWait, Service, Persist sim.Time
	HasBatchWait, HasService, HasPersist   bool
}

// Total returns the end-to-end span length.
func (s *OpSpan) Total() sim.Time { return s.End - s.Arrival }

// Gauge is one named timeline value. Samples carry gauges as an ordered
// slice (probe registration order), never a map, so the JSONL stream is
// byte-stable.
type Gauge struct {
	Name  string  `json:"name"`
	Value float64 `json:"v"`
}

// ShardSample is one dispatch target's cumulative counters at a sample
// instant.
type ShardSample struct {
	Offered   int64 `json:"offered"`
	Dropped   int64 `json:"dropped"`
	Completed int64 `json:"completed"`
	// QDepth is the instantaneous queue depth; QOccNS is the occupancy
	// integral (entry·ns) up to the sample instant, so successive samples
	// difference into mean depth per interval.
	QDepth int     `json:"qdepth"`
	QOccNS float64 `json:"qocc_ns"`
}

// Sample is one timeline instant: cumulative counters, so a renderer
// differences successive samples into rates without the recorder ever
// guessing at windows. The op counts, totals and per shard, count from
// the measured window's opening; a gauge is whatever its probe reads, and
// the device probes count from platform start, preload and warmup
// included. A run's first sample, at TNS 0, is the baseline for both.
type Sample struct {
	// TNS is sim time since the measured window opened, in ns.
	TNS int64 `json:"t_ns"`
	// Offered/Dropped/Completed are cumulative measured totals.
	Offered   int64 `json:"offered"`
	Dropped   int64 `json:"dropped"`
	Completed int64 `json:"completed"`
	// Shards is the per-dispatch-target breakdown (hot-shard share over
	// time lives here).
	Shards []ShardSample `json:"shards,omitempty"`
	// Gauges are the registered probes' values, in registration order.
	Gauges []Gauge `json:"gauges,omitempty"`
}

// Event is one fault/failover/catch-up marker on the timeline: a named
// instant attributed to a shard. TNS is sim time relative to the
// measured window (negative for warmup events), matching Sample.TNS so
// renderers can interleave markers with timeline intervals.
type Event struct {
	TNS   int64  `json:"t_ns"`
	Name  string `json:"name"`
	Shard int    `json:"shard"`
}

// slowEntry tracks one top-K candidate: the span plus its admission
// sequence for deterministic tie-breaks.
type slowEntry struct {
	span OpSpan
	seq  int64
}

// Recorder accumulates one run's spans and timeline. All methods are safe
// on a nil receiver and do nothing — the zero-overhead OFF path — so the
// serving hot paths carry a single nil check, not a feature flag.
//
// A Recorder belongs to exactly one simulated run (procs of one engine
// hand off only at time advances, so no locking), and everything it
// records derives from sim time: two runs of the same seeded spec produce
// identical recordings regardless of host scheduling.
type Recorder struct {
	interval sim.Time
	topK     int

	phases [NumPhases]*stats.Histogram
	ops    int64
	sheds  int64

	batchSeq int64
	slow     []slowEntry
	slowMin  int // index of the smallest-total slow entry once full

	probes  []func(add func(name string, v float64))
	samples []Sample
	events  []Event
}

// DefaultTopK is how many slowest ops a Recorder keeps when the caller
// passes topK <= 0.
const DefaultTopK = 8

// NewRecorder returns a live Recorder sampling the timeline every
// interval of sim time (<= 0 disables the timeline) and keeping the topK
// slowest ops.
func NewRecorder(interval sim.Time, topK int) *Recorder {
	if topK <= 0 {
		topK = DefaultTopK
	}
	r := &Recorder{interval: interval, topK: topK}
	for i := range r.phases {
		r.phases[i] = stats.NewHistogram()
	}
	return r
}

// Interval returns the timeline sampling interval (0 on a nil recorder).
func (r *Recorder) Interval() sim.Time {
	if r == nil {
		return 0
	}
	return r.interval
}

// NextBatch issues the next group-commit batch id (ids start at 1; 0
// means unbatched). Returns 0 on a nil recorder.
func (r *Recorder) NextBatch() int64 {
	if r == nil {
		return 0
	}
	r.batchSeq++
	return r.batchSeq
}

// RecordOp books one completed request's span.
func (r *Recorder) RecordOp(s *OpSpan) {
	if r == nil {
		return
	}
	r.ops++
	r.phases[PhaseQueueWait].Add(s.QueueWait.Nanoseconds())
	if s.HasBatchWait {
		r.phases[PhaseBatchWait].Add(s.BatchWait.Nanoseconds())
	}
	if s.HasService {
		r.phases[PhaseService].Add(s.Service.Nanoseconds())
	}
	if s.HasPersist {
		r.phases[PhasePersist].Add(s.Persist.Nanoseconds())
	}
	r.phases[PhaseTotal].Add(s.Total().Nanoseconds())
	r.noteSlow(s)
}

// noteSlow keeps the top-K spans by total latency. Ties keep the earlier
// op (strictly-greater replaces), so the table is deterministic.
func (r *Recorder) noteSlow(s *OpSpan) {
	if len(r.slow) < r.topK {
		r.slow = append(r.slow, slowEntry{span: *s, seq: r.ops})
		if len(r.slow) == r.topK {
			r.reslowMin()
		}
		return
	}
	if s.Total() <= r.slow[r.slowMin].span.Total() {
		return
	}
	r.slow[r.slowMin] = slowEntry{span: *s, seq: r.ops}
	r.reslowMin()
}

func (r *Recorder) reslowMin() {
	r.slowMin = 0
	for i := 1; i < len(r.slow); i++ {
		si, sm := &r.slow[i], &r.slow[r.slowMin]
		if t := si.span.Total(); t < sm.span.Total() || (t == sm.span.Total() && si.seq > sm.seq) {
			r.slowMin = i
		}
	}
}

// RecordShed books one request shed at admission. Shed ops enter no phase
// histogram — they never waited in the queue they were refused from.
func (r *Recorder) RecordShed(tenant, shard int) {
	if r == nil {
		return
	}
	r.sheds++
}

// RecordEvent books one fault/failover/catch-up marker at tNS (sim time
// relative to the measured window, Sample.TNS's clock). Events are kept
// in recording order — procs record them in sim-time order, so the
// stream is deterministic.
func (r *Recorder) RecordEvent(name string, shard int, tNS int64) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{TNS: tNS, Name: name, Shard: shard})
}

// AddProbe registers a gauge source the timeline sampler reads at every
// sample instant. Probes must add the same gauge names on every call
// (unconditionally), in a fixed order, so timeline columns are stable
// across samples.
func (r *Recorder) AddProbe(fn func(add func(name string, v float64))) {
	if r == nil {
		return
	}
	r.probes = append(r.probes, fn)
}

// Sample appends one timeline instant: the caller-built counter snapshot
// plus every registered probe's gauges.
func (r *Recorder) Sample(s Sample) {
	if r == nil {
		return
	}
	for _, probe := range r.probes {
		probe(func(name string, v float64) {
			s.Gauges = append(s.Gauges, Gauge{Name: name, Value: v})
		})
	}
	r.samples = append(r.samples, s)
}

// Finish summarizes the recording into a Run and detaches it. Nil-safe:
// returns nil when tracing is off.
func (r *Recorder) Finish(label string) *Run {
	if r == nil {
		return nil
	}
	run := &Run{
		Label: label,
		Ops:   r.ops,
		Sheds: r.sheds,
	}
	qs := []float64{0.5, 0.99}
	for p := Phase(0); p < NumPhases; p++ {
		h := r.phases[p]
		ps := PhaseSummary{Phase: p.String(), Count: h.Count()}
		if h.Count() > 0 {
			q := h.Quantiles(qs)
			ps.MeanNS, ps.P50NS, ps.P99NS, ps.MaxNS = h.Mean(), q[0], q[1], h.Max()
		}
		run.Phases = append(run.Phases, ps)
	}
	// Rank the kept spans slowest-first; equal totals rank earlier ops
	// first (insertion sort over <= topK entries).
	slow := append([]slowEntry(nil), r.slow...)
	for i := 1; i < len(slow); i++ {
		for j := i; j > 0; j-- {
			a, b := &slow[j-1], &slow[j]
			if a.span.Total() > b.span.Total() ||
				(a.span.Total() == b.span.Total() && a.seq < b.seq) {
				break
			}
			slow[j-1], slow[j] = slow[j], slow[j-1]
		}
	}
	for i := range slow {
		s := &slow[i].span
		run.Slowest = append(run.Slowest, SlowOp{
			Rank: i + 1, Op: s.Op,
			Tenant: s.Tenant, Shard: s.Shard, Worker: s.Worker,
			Key: s.Key, Batch: s.Batch, CacheHit: s.CacheHit,
			ArrivalNS: s.Arrival.Nanoseconds(), TotalNS: s.Total().Nanoseconds(),
			QueueNS: s.QueueWait.Nanoseconds(), BatchNS: s.BatchWait.Nanoseconds(),
			ServiceNS: s.Service.Nanoseconds(), PersistNS: s.Persist.Nanoseconds(),
		})
	}
	run.Samples = r.samples
	r.samples = nil
	run.Events = r.events
	r.events = nil
	return run
}
