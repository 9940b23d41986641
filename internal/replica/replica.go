// Package replica pairs each shard's primary with a standby on a
// distinct (socket, DIMM-set) placement and keeps the standby current by
// shipping the primary's logged PUTs onto the standby's own append log.
//
// The wire format IS the log format: a shipment is a pmem.Appender group
// commit (Begin / Add / Commit) on the standby's per-worker appenders —
// the same 4-byte frames, zero padding and 64-byte commit record the
// serving side's group commit writes, so promotion recovery and
// crash-consistency testing reuse pmem.RecoverBatches unchanged. Ship
// traffic pays real simulated cost: non-temporal writes plus a fence on
// the standby's DIMMs, remote over UPI when the shipping worker sits on
// another socket, competing with serving traffic for the same bandwidth.
//
// Replication is synchronous while the standby is synced: a logged PUT
// completes only after its shipment's fence retires. A shipment torn by
// a primary crash was therefore never acknowledged, so discarding it at
// promotion (RecoverBatches stops at the first non-verifying frame) is
// exactly the durability contract — a promoted standby serves every
// acknowledged write. Writes acknowledged while the standby was detached
// (churn) are the deliberate exception; promotion counts them as
// Stats.LostRecs.
//
// The primary also buffers every logged PUT since run start in a
// volatile DRAM arena (flat byte buffer, no per-record allocation): the
// send history. A standby that rejoins clean resumes shipping from its
// durable prefix; one that rejoins dirty (it served as primary and its
// log holds raw serving appends) is truncated — the log region is reused
// in place, never reallocated — and the whole history is reshipped in
// costed group commits. Replayed PUTs are idempotent overwrites, so
// reshipping from record zero is always consistent.
package replica

import (
	"fmt"

	"optanestudy/internal/platform"
	"optanestudy/internal/pmem"
	"optanestudy/internal/service"
)

// Node is one slot of a replicated shard pair: a preloaded backend, the
// node's append log — the serving write-behind log while the node is
// primary, the shipment receive log while it is standby — and the socket
// the node's storage lives on. The pair swaps roles at promotion; no
// node is ever built mid-run.
type Node struct {
	Backend service.Backend
	Log     *service.AppendLog
	Socket  int
}

// Stats is one pair's cumulative replication outcome.
type Stats struct {
	// ShipBatches / ShipRecs / ShipBytes count everything shipped onto a
	// standby log: synchronous shipments (one batch per serving group
	// commit, a batch of one per unbatched PUT) plus catch-up reshipments
	// (bytes include the 8-byte record header).
	ShipBatches, ShipRecs, ShipBytes int64
	// Failovers counts promotions. ReplayBatches / ReplayRecs are what
	// the promotion walk recovered from the shipped stream; LostRecs the
	// history records NOT recovered — writes acknowledged while the
	// standby was detached, plus any in-flight-at-crash records (never
	// acknowledged) discarded with the torn tail.
	Failovers, ReplayBatches, ReplayRecs, LostRecs int64
	// Leaves / Joins count standby churn; CatchupRecs the records
	// reshipped by Join to bring a stale or rebuilt standby current.
	Leaves, Joins, CatchupRecs int64
}

// recMeta locates one record inside the history arena: the record's
// bytes are hbuf[off:next off], split at klen, destined for worker wkr's
// log stream.
type recMeta struct {
	off  int64
	klen int32
	wkr  int32
}

// catchupBatch is how many records a Join reships per group commit: big
// enough to amortize the fence, small enough that serving traffic
// interleaves with the catch-up stream at fence granularity.
const catchupBatch = 64

// Pair is one shard's primary/standby pair. Procs run one at a time
// under the sim's cooperative scheduler, so no locking.
type Pair struct {
	shard   int
	workers int
	nodes   [2]Node
	pri     int // index of the current primary
	// attached: the standby is accepting shipments. synced: it holds the
	// full history, so logged PUTs ship synchronously inside the serving
	// op (attached && !synced means a catch-up is in flight).
	attached bool
	synced   bool
	// dirty marks a node's log as holding non-shipment-era content (raw
	// serving appends from a stint as primary); Join truncates it before
	// the node re-enters as standby.
	dirty [2]bool
	// shipped is the length of the history prefix on the current
	// standby's log.
	shipped int
	// shipTo pins worker w's open ship batch to the log it began on, so
	// a role change between BatchBegin and BatchCommit still seals the
	// batch on the log that staged it.
	shipTo []*service.AppendLog

	// history: the volatile send buffer (see package doc).
	hbuf []byte
	hrec []recMeta

	stats Stats
}

// NewPair builds a replicated shard: primary serves, standby is attached
// and synced (both start empty, so an empty history is fully shipped).
// Both nodes need a backend and at least `workers` per-worker log
// streams.
func NewPair(shard, workers int, primary, standby Node) (*Pair, error) {
	if workers < 1 {
		return nil, fmt.Errorf("replica: shard %d needs at least one worker stream", shard)
	}
	nodes := [2]Node{primary, standby}
	for i, n := range nodes {
		if n.Backend == nil || n.Log == nil {
			return nil, fmt.Errorf("replica: shard %d node %d lacks a backend or log", shard, i)
		}
		if n.Log.Workers() < workers {
			return nil, fmt.Errorf("replica: shard %d node %d has %d log streams, need %d",
				shard, i, n.Log.Workers(), workers)
		}
	}
	p := &Pair{
		shard: shard, workers: workers, nodes: nodes,
		attached: true, synced: true,
		shipTo: make([]*service.AppendLog, workers),
	}
	p.dirty[0] = true // the primary's log takes raw serving appends
	return p, nil
}

// Stats returns the pair's cumulative counters.
func (p *Pair) Stats() Stats { return p.stats }

// Primary returns the current primary's node index (0 at start).
func (p *Pair) Primary() int { return p.pri }

// Attached and Synced expose the standby's state (for tests and
// scenario assertions).
func (p *Pair) Attached() bool { return p.attached }
func (p *Pair) Synced() bool   { return p.synced }

// StandbySocket is the socket the standby slot's storage lives on —
// where promotion replay and catch-up shipping run.
func (p *Pair) StandbySocket() int { return p.nodes[1-p.pri].Socket }

// HistoryLen returns how many logged PUTs the send history holds.
func (p *Pair) HistoryLen() int { return len(p.hrec) }

func (p *Pair) standby() *Node { return &p.nodes[1-p.pri] }

// bufRecord appends one record to the history arena.
func (p *Pair) bufRecord(w int, key, val []byte) {
	p.hrec = append(p.hrec, recMeta{off: int64(len(p.hbuf)), klen: int32(len(key)), wkr: int32(w)})
	p.hbuf = append(p.hbuf, key...)
	p.hbuf = append(p.hbuf, val...)
}

// histRecord returns history record i. The slices alias the arena; they
// are only valid until the next sim-time advance lets the primary append
// (callers copy them into a volatile batch mirror first, which Add does
// without advancing time).
func (p *Pair) histRecord(i int) (w int, key, val []byte) {
	m := p.hrec[i]
	end := int64(len(p.hbuf))
	if i+1 < len(p.hrec) {
		end = p.hrec[i+1].off
	}
	rec := p.hbuf[m.off:end]
	return int(m.wkr), rec[:m.klen:m.klen], rec[m.klen:]
}

// BatchBegin mirrors a serving group commit's Begin (a batch of one for
// an unbatched PUT): when the standby is synced, a ship batch opens on
// its worker-w stream and stays pinned to that log until BatchCommit
// seals it.
func (p *Pair) BatchBegin(w int) {
	if p.attached && p.synced {
		sl := p.standby().Log
		sl.Begin(w)
		p.shipTo[w] = sl
	}
}

// BatchAdd buffers one logged PUT in the history and stages it
// on worker w's open ship batch (volatile — nothing reaches the
// standby's media until BatchCommit streams the group).
func (p *Pair) BatchAdd(ctx *platform.MemCtx, w int, key, val []byte) error {
	p.bufRecord(w, key, val)
	sl := p.shipTo[w]
	if sl == nil {
		return nil
	}
	if err := sl.Add(ctx, w, key, val); err != nil {
		return err
	}
	p.shipped++
	p.stats.ShipRecs++
	p.stats.ShipBytes += int64(8 + len(key) + len(val))
	return nil
}

// BatchCommit seals worker w's open ship batch with one fence on the
// standby's DIMMs. It commits on the log the batch began on even if the
// standby detached or the pair promoted mid-batch — the staged frames
// must not be left as an open batch on a live appender.
func (p *Pair) BatchCommit(ctx *platform.MemCtx, w int) error {
	sl := p.shipTo[w]
	if sl == nil {
		return nil
	}
	p.shipTo[w] = nil
	p.stats.ShipBatches++
	return sl.Commit(ctx, w)
}

// Promote fails the shard over to its standby: walk the shipped stream
// with RecoverBatches (discarding any torn — and therefore never
// acknowledged — trailing shipment), replay the recovered records into
// the standby's backend as costed Puts, swap roles, and return the new
// primary's backend and log. The dead primary becomes a dirty spare; the
// send history is rebuilt from exactly the replayed set, so future
// catch-ups ship what the new primary actually holds.
func (p *Pair) Promote(ctx *platform.MemCtx) (service.Backend, *service.AppendLog, error) {
	si := 1 - p.pri
	if p.dirty[si] {
		return nil, nil, fmt.Errorf("replica: shard %d has no viable standby (spare crashed before rejoining)", p.shard)
	}
	if p.attached && !p.synced {
		return nil, nil, fmt.Errorf("replica: shard %d crashed mid-catch-up; promotion needs a synced or cleanly detached standby", p.shard)
	}
	s := p.standby()
	var (
		nbuf []byte
		nrec []recMeta
		rerr error
	)
	for w := 0; w < p.workers; w++ {
		a := s.Log.Appender(w)
		if a.Wraps() > 0 {
			return nil, nil, fmt.Errorf("replica: shard %d ship stream wrapped on worker %d; recovery covers the unwrapped era (size the log region for the run's put volume)", p.shard, w)
		}
		b, r := pmem.RecoverBatches(a.Region(), func(rec []byte) {
			if rerr != nil {
				return
			}
			key, val, err := service.DecodeRecord(rec)
			if err != nil {
				rerr = err
				return
			}
			if err := s.Backend.Put(ctx, key, val); err != nil {
				rerr = err
				return
			}
			nrec = append(nrec, recMeta{off: int64(len(nbuf)), klen: int32(len(key)), wkr: int32(w)})
			nbuf = append(nbuf, rec[8:]...)
		})
		if rerr != nil {
			return nil, nil, rerr
		}
		p.stats.ReplayBatches += int64(b)
		p.stats.ReplayRecs += int64(r)
	}
	p.stats.LostRecs += int64(len(p.hrec) - len(nrec))
	p.hbuf, p.hrec = nbuf, nrec
	p.stats.Failovers++
	p.dirty[p.pri] = true // the dead primary's log holds raw serving appends
	p.pri = si
	p.attached, p.synced, p.shipped = false, false, 0
	return s.Backend, s.Log, nil
}

// Leave detaches the standby: shipping stops, the primary keeps
// buffering history, and acknowledged writes start accruing replication
// debt (LostRecs if the primary dies before the standby rejoins).
func (p *Pair) Leave() {
	p.attached, p.synced = false, false
	p.stats.Leaves++
}

// Join (re)attaches the standby slot and catches it up. A dirty spare is
// truncated first — every worker stream durably zeroed in place, paying
// real erase bandwidth on the standby's DIMMs — then the missing history
// suffix ships in costed group commits until the stream drains (the
// primary keeps serving meanwhile, so the loop chases the history's
// tail). Returns with the standby synced and synchronous shipping
// resumed.
func (p *Pair) Join(ctx *platform.MemCtx) error {
	if p.attached {
		return fmt.Errorf("replica: shard %d join with the standby already attached", p.shard)
	}
	si := 1 - p.pri
	s := &p.nodes[si]
	if p.dirty[si] {
		for w := 0; w < p.workers; w++ {
			if err := s.Log.Appender(w).Truncate(ctx); err != nil {
				return err
			}
		}
		p.dirty[si] = false
		p.shipped = 0
	}
	p.attached = true
	p.stats.Joins++
	opened := make([]bool, p.workers)
	for p.shipped < len(p.hrec) {
		end := p.shipped + catchupBatch
		if end > len(p.hrec) {
			end = len(p.hrec)
		}
		for i := range opened {
			opened[i] = false
		}
		for i := p.shipped; i < end; i++ {
			w, key, val := p.histRecord(i)
			if !opened[w] {
				s.Log.Begin(w)
				opened[w] = true
			}
			if err := s.Log.Add(ctx, w, key, val); err != nil {
				return err
			}
			p.stats.ShipBytes += int64(8 + len(key) + len(val))
		}
		for w, open := range opened {
			if !open {
				continue
			}
			if err := s.Log.Commit(ctx, w); err != nil {
				return err
			}
			p.stats.ShipBatches++
		}
		n := int64(end - p.shipped)
		p.stats.ShipRecs += n
		p.stats.CatchupRecs += n
		p.shipped = end
	}
	p.synced = true
	return nil
}
