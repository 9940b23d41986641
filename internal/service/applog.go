package service

import (
	"encoding/binary"
	"fmt"

	"optanestudy/internal/platform"
	"optanestudy/internal/pmem"
)

// AppendLog is a set of per-worker durable append logs: write-behind
// logging, where a PUT is made durable by appending the record to the
// serving thread's private log (one pmem.Appender per worker — one
// sequential non-temporal stream each) and the index apply is deferred off
// the latency path.
//
// This is the serving-system shape of the paper's threads-per-DIMM best
// practice: W workers journaling onto the same DIMM are exactly W
// concurrent sequential write streams, and once W exceeds the XPBuffer's
// combining capacity the streams' partially-filled XPLines are closed
// early, EWR collapses, and the DIMM saturates at a *lower* load than
// with fewer workers (Section 5.3; Figure 4's non-interleaved write
// peak).
type AppendLog struct {
	region int64 // bytes per worker
	logs   []*pmem.Appender
}

// NewAppendLog carves region bytes of log per worker out of a fresh
// namespace on the spec's placement — media ("optane", "optane-ni" or
// "dram"), socket and DIMM set; the rest of the spec is ignored. Sharded
// clusters build one AppendLog per shard, pinned to the shard's DIMMs.
func NewAppendLog(p *platform.Platform, bs BackendSpec, workers int, region int64) (*AppendLog, error) {
	if workers < 1 || region < 4096 {
		return nil, fmt.Errorf("service: bad append-log shape (%d workers, %d bytes)", workers, region)
	}
	bs.Keys = 0 // the log spec carries placement only, never a payload
	if err := bs.normalize(); err != nil {
		return nil, err
	}
	ns, err := bs.namespace(p, "-log")
	if err != nil {
		return nil, err
	}
	if int64(workers)*region > ns.Size {
		return nil, fmt.Errorf("service: append log overflows namespace (%d × %d > %d)", workers, region, ns.Size)
	}
	whole := pmem.Whole(ns)
	logs := make([]*pmem.Appender, workers)
	for w := range logs {
		sub, err := whole.Sub(int64(w)*region, region)
		if err != nil {
			return nil, err
		}
		logs[w] = pmem.NewAppender(sub, pmem.NewPersister(pmem.NTStream))
	}
	return &AppendLog{region: region, logs: logs}, nil
}

// Append durably logs a key/value record on worker w's log: the record
// render assembles, streamed with non-temporal stores and fenced. The
// log is circular; a record that would straddle the region end wraps to
// the start (the stream restart is rare and costs one combining miss).
func (l *AppendLog) Append(ctx *platform.MemCtx, w int, key, val []byte) error {
	a, rec, err := l.render(w, key, val)
	if err != nil {
		return err
	}
	_, err = a.Append(ctx, rec)
	return err
}

// Begin opens a group commit on worker w's log: records staged with Add
// share ONE fence, issued at Commit. This is the dispatcher's batched
// PUT path — the fence cost amortizes across every logged op the worker
// drained in one wakeup.
func (l *AppendLog) Begin(w int) { l.logs[w].Begin() }

// Add stages a key/value record on worker w's open batch, rendered
// exactly as Append renders it, but written toward durability without a
// fence.
func (l *AppendLog) Add(ctx *platform.MemCtx, w int, key, val []byte) error {
	a, rec, err := l.render(w, key, val)
	if err != nil {
		return err
	}
	_, err = a.Add(ctx, rec)
	return err
}

// render assembles one record for worker w's appender: an 8-byte length
// header plus the payload, in the appender's reused scratch buffer (no
// allocation on the PUT latency path). A record larger than the
// per-worker region is an error — wrapping it would spill into the next
// worker's log.
func (l *AppendLog) render(w int, key, val []byte) (*pmem.Appender, []byte, error) {
	n := 8 + len(key) + len(val)
	if int64(n) > l.region {
		return nil, nil, fmt.Errorf("service: %d-byte log record exceeds the %d-byte per-worker region", n, l.region)
	}
	a := l.logs[w]
	rec := a.Scratch(n)
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(val)))
	copy(rec[8:], key)
	copy(rec[8+len(key):], val)
	return a, rec, nil
}

// Commit seals worker w's open batch with one fence (a no-op when the
// batch staged nothing).
func (l *AppendLog) Commit(ctx *platform.MemCtx, w int) error {
	return l.logs[w].Commit(ctx)
}

// Counters folds every per-worker persister's counters into one readout
// (fences, batches, batch ops — the fence-amortization metrics).
func (l *AppendLog) Counters() pmem.Counters {
	var c pmem.Counters
	for _, a := range l.logs {
		c.Merge(&a.Persister().C)
	}
	return c
}

// Workers returns how many per-worker logs the set holds.
func (l *AppendLog) Workers() int { return len(l.logs) }

// Appender returns worker w's underlying appender. The replica layer
// reaches through it to truncate a rebuilt standby's log and to walk the
// shipped stream with pmem.RecoverBatches at promotion.
func (l *AppendLog) Appender(w int) *pmem.Appender { return l.logs[w] }

// DecodeRecord splits one logged record back into its key and value —
// the inverse of the framing Append and Add write. Replica promotion
// decodes recovered shipment records with it before replaying them into
// the standby's backend. The returned slices alias rec.
func DecodeRecord(rec []byte) (key, val []byte, err error) {
	if len(rec) < 8 {
		return nil, nil, fmt.Errorf("service: log record truncated (%d bytes)", len(rec))
	}
	kl := int(binary.LittleEndian.Uint32(rec[0:]))
	vl := int(binary.LittleEndian.Uint32(rec[4:]))
	if kl < 0 || vl < 0 || 8+kl+vl != len(rec) {
		return nil, nil, fmt.Errorf("service: log record header (%d+%d) disagrees with %d-byte record", kl, vl, len(rec))
	}
	return rec[8 : 8+kl], rec[8+kl:], nil
}
