package service

import (
	"fmt"

	"optanestudy/internal/fault"
	"optanestudy/internal/platform"
	"optanestudy/internal/sim"
	"optanestudy/internal/stats"
)

// Replicator is a shard's replication hook: the serving loop mirrors
// every write-behind-logged PUT through it as a group commit (a batch of
// one at depth 1), and the fault driver fails over through it.
// internal/replica implements it with a primary/standby pair on distinct
// (socket, DIMM-set) placements; service stays ignorant of the pairing —
// it only knows that logged PUTs must be shipped before they are acked
// (synchronous replication: an op completes at the SHIP fence, so a
// promoted replica serves every acked write) and that Promote returns
// the backend and log the shard serves from next.
//
// Only logged PUTs replicate — replication requires the shard to run
// write-behind logging (Shard.PutLog), and a replicated run must not mix
// in deletes (they bypass the log).
type Replicator interface {
	// BatchBegin / BatchAdd / BatchCommit mirror a group commit: each
	// record enters the primary's volatile send history and, when the
	// standby is attached and synced, stages volatile on the standby's
	// log; the whole shipment streams with ONE fence at BatchCommit (real
	// media writes, remote over UPI when the standby is on another
	// socket), reusing the appender's Begin/Add/Commit framing verbatim
	// as the wire format.
	BatchBegin(w int)
	BatchAdd(ctx *platform.MemCtx, w int, key, val []byte) error
	BatchCommit(ctx *platform.MemCtx, w int) error
	// Promote fails the shard over to its standby: replay the shipped
	// log into the standby's backend (discarding any torn shipment),
	// swap roles, and return the backend and append log the shard serves
	// from now on. ctx runs on the standby's socket — replay bandwidth
	// is the standby DIMMs' to give.
	Promote(ctx *platform.MemCtx) (Backend, *AppendLog, error)
	// Leave detaches the standby (shipping stops; the primary keeps
	// buffering history). Join (re)attaches one and returns once it has
	// caught up on every record it missed and synchronous shipping has
	// resumed; ctx runs on the standby's socket.
	Leave()
	Join(ctx *platform.MemCtx) error
	// StandbySocket is the socket the current standby slot lives on —
	// where Serve runs recovery and catch-up procs.
	StandbySocket() int
}

// FailoverStats is one shard's fault/failover outcome over a run.
type FailoverStats struct {
	// Crashes counts primary fail-stops applied to the shard.
	Crashes int64
	// PromoteNS is the worst crash→promoted latency (detection delay
	// plus log replay); RecoveryNS the worst crash→caught-up latency
	// (promotion plus draining the backlog that piled up while down).
	PromoteNS  float64
	RecoveryNS float64
	// WindowOps counts measured completions inside failover windows
	// (crash to caught-up); WindowLatency is their end-to-end
	// distribution — the "p99 during the failover window" curve metric.
	WindowOps     int64
	WindowLatency *stats.Histogram
	// ShedWindow counts measured requests shed during failover windows
	// (shed-until-caught-up).
	ShedWindow int64
}

// failoverState is one shard's live fault state. Procs run one at a time
// under the sim's cooperative scheduler, so no locking: the fault driver
// flips down/stallUntil, workers poll them, and completions close the
// failover window.
type failoverState struct {
	repl Replicator
	// down pauses the shard's workers (primary storage fail-stopped,
	// promotion pending); stallUntil pauses them until a deadline (DIMM
	// stall).
	down       bool
	stallUntil sim.Time
	// inWindow spans crash → caught-up; promoted marks the promotion
	// inside the current window; downSince is the crash instant.
	inWindow  bool
	promoted  bool
	downSince sim.Time

	st FailoverStats
}

func newFailoverState(repl Replicator) *failoverState {
	return &failoverState{repl: repl, st: FailoverStats{WindowLatency: stats.NewHistogram()}}
}

// blocked reports whether the shard's workers must idle at time now.
func (fo *failoverState) blocked(now sim.Time) bool {
	return fo.down || now < fo.stallUntil
}

// noteCompletion books one completion inside the failover window and
// closes the window at the first post-promotion completion that leaves
// the queue empty (the caught-up instant). Returns true when the window
// closed at end.
func (fo *failoverState) noteCompletion(req request, end sim.Time, queueEmpty bool) bool {
	if req.measured {
		fo.st.WindowOps++
		fo.st.WindowLatency.Add((end - req.arrival).Nanoseconds())
	}
	if fo.promoted && queueEmpty {
		fo.closeWindow(end)
		return true
	}
	return false
}

// closeWindow ends the failover window at the caught-up instant.
func (fo *failoverState) closeWindow(end sim.Time) {
	fo.inWindow, fo.promoted = false, false
	if d := float64((end - fo.downSince).Nanoseconds()); d > fo.st.RecoveryNS {
		fo.st.RecoveryNS = d
	}
}

// validateFaults checks the schedule against the shard set: sorted,
// in-range, and every event that needs a replica targets a shard that
// has one.
func validateFaults(cfg *Config, shards []Shard) error {
	for i := range shards {
		if shards[i].Repl != nil && shards[i].PutLog == nil {
			return fmt.Errorf("service: shard %d replicates but has no write-behind log (replication ships the log)", i)
		}
	}
	if len(cfg.Faults) == 0 {
		return nil
	}
	if err := fault.Validate(cfg.Faults, len(shards)); err != nil {
		return err
	}
	for _, ev := range cfg.Faults {
		if ev.Kind != fault.Stall && shards[ev.Shard].Repl == nil {
			return fmt.Errorf("service: %v event targets shard %d, which has no replica", ev.Kind, ev.Shard)
		}
	}
	if cfg.DelFrac > 0 {
		for i := range shards {
			if shards[i].Repl != nil {
				return fmt.Errorf("service: deletes bypass the replicated log; use a delete-free mix")
			}
		}
	}
	return nil
}

// event books a fault/failover marker on the trace timeline (no-op when
// tracing is off).
func (st *serveState) event(name string, shard int, now sim.Time) {
	st.rec.RecordEvent(name, shard, int64((now-st.warmEnd)/sim.Nanosecond))
}

// runFaultDriver spawns the fault-driver proc: it walks the schedule in
// sim time and applies each event — flipping stall deadlines, failing
// primaries over (detect → promote on the standby's socket → drain), and
// driving standby leave/join churn. Recovery and catch-up run as spawned
// procs on the standby's socket so replay and catch-up bandwidth are
// paid where the standby's DIMMs live, and so overlapping failovers
// (socket loss = simultaneous crashes) recover concurrently.
func runFaultDriver(p *platform.Platform, cfg Config, shards []Shard, st *serveState, runErr *error) {
	p.Go("fault-driver", cfg.Socket, func(ctx *platform.MemCtx) {
		proc := ctx.Proc()
		// Event times are on the serving clock (0 = serving start, before
		// warmup), but the platform clock already advanced through preload —
		// rebase the schedule onto this proc's spawn instant, which is the
		// same Now() Serve captured as its start.
		base := proc.Now()
		for i, ev := range cfg.Faults {
			if at := base + ev.At; at > proc.Now() {
				proc.AdvanceTo(at)
			}
			if *runErr != nil {
				return
			}
			sh := &st.shards[ev.Shard]
			fo := sh.fo
			shard := &shards[ev.Shard]
			switch ev.Kind {
			case fault.Stall:
				st.event("stall", ev.Shard, proc.Now())
				if until := proc.Now() + ev.Dur; until > fo.stallUntil {
					fo.stallUntil = until
				}
			case fault.Crash:
				if fo.down {
					continue // already down; promotion pending
				}
				fo.down, fo.downSince = true, proc.Now()
				fo.inWindow, fo.promoted = true, false
				fo.st.Crashes++
				st.event("crash", ev.Shard, proc.Now())
				p.Go(fmt.Sprintf("failover-s%d-%d", ev.Shard, i), fo.repl.StandbySocket(), func(rctx *platform.MemCtx) {
					rp := rctx.Proc()
					if cfg.Detect > 0 {
						rp.Sleep(cfg.Detect)
					}
					be, plog, err := fo.repl.Promote(rctx)
					if err != nil {
						*runErr = err
						return
					}
					// The serving pool survives (the frontend lives on);
					// the shard's storage moves to the promoted standby,
					// possibly across UPI from the workers.
					shard.Backend, shard.PutLog = be, plog
					now := rp.Now()
					fo.down, fo.promoted = false, true
					if d := float64((now - fo.downSince).Nanoseconds()); d > fo.st.PromoteNS {
						fo.st.PromoteNS = d
					}
					st.event("promoted", ev.Shard, now)
					if sh.queue.Len() == 0 {
						// Nothing queued up while down: caught up at
						// promotion.
						fo.closeWindow(now)
						st.event("caught-up", ev.Shard, now)
					}
				})
			case fault.Leave:
				st.event("leave", ev.Shard, proc.Now())
				fo.repl.Leave()
			case fault.Join:
				st.event("join", ev.Shard, proc.Now())
				p.Go(fmt.Sprintf("catchup-s%d-%d", ev.Shard, i), fo.repl.StandbySocket(), func(rctx *platform.MemCtx) {
					if err := fo.repl.Join(rctx); err != nil {
						*runErr = err
						return
					}
					st.event("standby-synced", ev.Shard, rctx.Proc().Now())
				})
			}
		}
	})
}
