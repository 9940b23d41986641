// Package pmem is the repository's persistence-primitive layer: a small,
// typed API over platform.MemCtx that makes the paper's persist-instruction
// best practices explicit instead of re-deriving them at every call site.
//
// The paper's guidance (Sections 5.1–5.2) boils down to a per-write choice
// of instruction sequence: non-temporal streams for large transfers, cached
// store + clwb for small updates of cache-resident data, and never clflush
// when anything else is available. Before this package, every software
// stack in the repository (pmemobj, lsmkv, pmemkv, novafs, daxfs,
// service/applog) hand-rolled its own NTStore/CLWB/SFence choreography
// against raw MemCtx — and PR 3 fixed a latent cross-namespace
// write-combining bug born of exactly that duplication.
//
// The layer has three pieces:
//
//   - Region: a bounds-checked window onto a Namespace. All primitive
//     operations are region-relative, so a software stack cannot scribble
//     outside its allocation.
//   - Persister: the policy object. Its Policy picks the instruction
//     sequence (NTStream, StoreFlush, StoreFlushOpt, CLFlush, or Auto,
//     which switches on the paper's 256 B XPLine granularity), and it
//     counts ops/bytes per effective policy for harness metadata.
//   - Appender: a sequential durable log stream with circular wrap and a
//     reusable scratch buffer (the write-behind-logging shape).
//
// Policies are deliberately swappable: the pmem/policy/* scenario family
// sweeps policy × access size × media, and the crash-consistency suites of
// pmemobj and lsmkv re-run under every policy.
package pmem

import (
	"fmt"

	"optanestudy/internal/mem"
)

// Policy selects the instruction sequence a Persister uses to make bytes
// durable.
type Policy uint8

// Persist policies. The first four are concrete instruction sequences;
// Auto resolves to one of them per access.
const (
	// NTStream writes with non-temporal stores (cache-bypassing, posted
	// straight toward the WPQ). The paper's recommendation for large
	// transfers: no ownership read of overwritten lines, cheap per-line
	// issue, at the price of a write-combining drain on the fence path.
	NTStream Policy = iota
	// StoreFlush writes with cached stores and writes the lines back with
	// clwb (no eviction). The recommendation for small updates of
	// cache-resident data: no ownership read when the line is warm, no
	// write-combining delay, and the line stays cached for the next use.
	StoreFlush
	// StoreFlushOpt writes with cached stores and flushes with clflushopt,
	// which evicts — the next touch of the line pays a cold ownership read.
	StoreFlushOpt
	// CLFlush writes with cached stores and flushes with the legacy,
	// serializing clflush. Strictly dominated; included as the paper's
	// cautionary baseline.
	CLFlush
	// Auto picks NTStream for accesses of AutoThreshold bytes or more and
	// StoreFlush below it, following the paper's 256 B media-granularity
	// guidance (Section 2.1: the 3D XPoint access unit; Section 5.1: avoid
	// small stores).
	Auto

	// NumPolicies counts the concrete instruction policies (Auto resolves
	// to one of them, so counters have NumPolicies slots).
	NumPolicies = int(Auto)
)

// AutoThreshold is the access size, in bytes, at which Auto switches from
// StoreFlush to NTStream: the 256 B XPLine, the 3D XPoint internal access
// granularity the paper's small-store guidance is phrased around.
const AutoThreshold = mem.XPLine

var policyNames = [...]string{
	NTStream:      "nt",
	StoreFlush:    "store-flush",
	StoreFlushOpt: "store-flush-opt",
	CLFlush:       "clflush",
	Auto:          "auto",
}

func (p Policy) String() string {
	if int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// slug returns the identifier-safe form used in metric keys.
func (p Policy) slug() string {
	switch p {
	case NTStream:
		return "nt"
	case StoreFlush:
		return "store_flush"
	case StoreFlushOpt:
		return "store_flush_opt"
	case CLFlush:
		return "clflush"
	default:
		return "auto"
	}
}

// ParsePolicy maps a scenario-param string to a Policy.
func ParsePolicy(s string) (Policy, error) {
	for p, name := range policyNames {
		if s == name {
			return Policy(p), nil
		}
	}
	return 0, fmt.Errorf("pmem: unknown policy %q (want nt, store-flush, store-flush-opt, clflush or auto)", s)
}

// Policies lists every policy, concrete ones first.
func Policies() []Policy {
	return []Policy{NTStream, StoreFlush, StoreFlushOpt, CLFlush, Auto}
}

// Counters tallies a Persister's traffic per effective policy (Auto
// resolves to the concrete policy it picked). They surface in harness
// metadata so policy sweeps can report what each trial actually issued.
type Counters struct {
	// Ops and Bytes count Write/Persist/Flush calls and the bytes they
	// covered, indexed by concrete Policy.
	Ops   [NumPolicies]int64
	Bytes [NumPolicies]int64
	// Fences counts explicit fence points (Fence and the fence inside
	// Persist).
	Fences int64
	// Batches and BatchOps count group commits (Appender Begin/Add/Commit
	// batches, one fence each) and the records they carried. Their ratio
	// is the fence amortization the batch path buys: fences per logged op
	// is Batches/BatchOps instead of 1.
	Batches  int64
	BatchOps int64
}

func (c *Counters) add(p Policy, bytes int) {
	c.Ops[p]++
	c.Bytes[p] += int64(bytes)
}

// Merge folds other into c.
func (c *Counters) Merge(other *Counters) {
	for i := 0; i < NumPolicies; i++ {
		c.Ops[i] += other.Ops[i]
		c.Bytes[i] += other.Bytes[i]
	}
	c.Fences += other.Fences
	c.Batches += other.Batches
	c.BatchOps += other.BatchOps
}

// Total returns the op and byte counts summed across policies.
func (c *Counters) Total() (ops, bytes int64) {
	for i := 0; i < NumPolicies; i++ {
		ops += c.Ops[i]
		bytes += c.Bytes[i]
	}
	return ops, bytes
}

// Metrics writes the non-zero counters into a harness metrics map under
// pmem_<policy>_{ops,bytes} keys, plus pmem_fences.
func (c *Counters) Metrics(m map[string]float64) {
	for i := 0; i < NumPolicies; i++ {
		if c.Ops[i] == 0 && c.Bytes[i] == 0 {
			continue
		}
		slug := Policy(i).slug()
		m["pmem_"+slug+"_ops"] = float64(c.Ops[i])
		m["pmem_"+slug+"_bytes"] = float64(c.Bytes[i])
	}
	if c.Fences > 0 {
		m["pmem_fences"] = float64(c.Fences)
	}
	if c.BatchOps > 0 {
		m["pmem_batches"] = float64(c.Batches)
		m["pmem_batch_ops"] = float64(c.BatchOps)
		// Batch commits issue exactly one fence each, so Batches IS the
		// batch path's fence count: the ratio stays the batch path's
		// amortization even when the same persister also issued unbatched
		// fenced persists (which Fences would fold in).
		m["pmem_fence_per_op"] = float64(c.Batches) / float64(c.BatchOps)
	}
}

// Gauges streams the cumulative counter totals into add — the timeline
// sampler's snapshot shape. Unlike Metrics (which gates keys on activity
// for byte-stable end-of-run metric maps), Gauges emits a FIXED set of
// names on every call so timeline columns are stable across samples:
// successive snapshots difference into per-interval fence and payload
// rates.
func (c *Counters) Gauges(add func(name string, v float64)) {
	ops, bytes := c.Total()
	add("pmem_ops", float64(ops))
	add("pmem_bytes", float64(bytes))
	add("pmem_fences", float64(c.Fences))
	add("pmem_batches", float64(c.Batches))
	add("pmem_batch_ops", float64(c.BatchOps))
}
