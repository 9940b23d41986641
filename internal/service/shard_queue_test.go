package service

import (
	"testing"

	"optanestudy/internal/sim"
)

const nsec = sim.Nanosecond

// pushAt admits a request arriving at the given time, tagging it with key
// so drains can be checked for FIFO order.
func pushAt(s *shardState, key int64, at sim.Time) {
	s.push(request{key: key, arrival: at})
}

// TestShardQueueAccounting pins the shard queue's residency integral,
// FIFO order, shedding and depth watermark across batch and partial
// drains.
func TestShardQueueAccounting(t *testing.T) {
	s := shardState{cap: 4}
	for i, at := range []sim.Time{0, 5 * nsec, 9 * nsec} {
		pushAt(&s, int64(i), at)
	}
	if s.queue.Len() != 3 || s.maxLen != 3 {
		t.Fatalf("len/max = %d/%d, want 3/3", s.queue.Len(), s.maxLen)
	}
	// Batch-drain all three at t=20: residency 20 + 15 + 11 = 46ns.
	got := s.popN(20*nsec, 8, nil)
	if len(got) != 3 || s.occ != 46*nsec || s.queue.Len() != 0 {
		t.Fatalf("drained %d, occ %v, len %d; want 3, 46ns, 0", len(got), s.occ, s.queue.Len())
	}
	for i, r := range got {
		if r.key != int64(i) || r.drained != 20*nsec {
			t.Fatalf("drain %d = key %d at %v, want key %d at 20ns", i, r.key, r.drained, i)
		}
	}
	// popN caps at n and keeps FIFO order across partial drains.
	pushAt(&s, 3, 30*nsec)
	pushAt(&s, 4, 32*nsec)
	pushAt(&s, 5, 34*nsec)
	got = s.popN(40*nsec, 2, got[:0]) // 10 + 8
	got = s.popN(50*nsec, 2, got)     // 16
	if len(got) != 3 || got[0].key != 3 || got[1].key != 4 || got[2].key != 5 {
		t.Fatalf("partial drains = %+v, want keys 3, 4, 5", got)
	}
	if got[1].drained != 40*nsec || got[2].drained != 50*nsec {
		t.Fatalf("drain stamps %v, %v; want 40ns, 50ns", got[1].drained, got[2].drained)
	}
	if s.occ != (46+10+8+16)*nsec {
		t.Fatalf("occ = %v, want 80ns", s.occ)
	}
	// A full queue sheds: full reports it, and a push past it panics.
	for i := range 4 {
		if s.full() {
			t.Fatalf("full below capacity at %d entries", i)
		}
		pushAt(&s, int64(10+i), sim.Time(60+i)*nsec)
	}
	if !s.full() || s.maxLen != 4 {
		t.Fatalf("at capacity: full %v, max %d; want true, 4", s.full(), s.maxLen)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("push on a full queue did not panic")
			}
		}()
		pushAt(&s, 99, 70*nsec)
	}()
	// The watermark stays at the deepest occupancy after drains.
	s.popN(80*nsec, 4, nil)
	pushAt(&s, 20, 90*nsec)
	if s.queue.Len() != 1 || s.maxLen != 4 {
		t.Fatalf("after drain len/max = %d/%d, want 1/4", s.queue.Len(), s.maxLen)
	}
}

// A batch drain must close exactly the residency that one-at-a-time
// drains on the same admit/drain schedule close.
func TestShardQueueBatchDrainMatchesSingleDrains(t *testing.T) {
	r := sim.NewRNG(11)
	batch, single := shardState{cap: 64}, shardState{cap: 64}
	var now sim.Time
	for round := range 200 {
		now += sim.Time(r.Intn(30)) * nsec
		for i := range 1 + r.Intn(8) {
			if batch.full() != single.full() {
				t.Fatal("admission diverged")
			}
			if !batch.full() {
				pushAt(&batch, 0, now+sim.Time(i)*nsec)
				pushAt(&single, 0, now+sim.Time(i)*nsec)
			}
		}
		now += sim.Time(r.Intn(50)) * nsec
		k := 1 + r.Intn(10)
		got := len(batch.popN(now, k, nil))
		want := 0
		for range k {
			want += len(single.popN(now, 1, nil))
		}
		if got != want {
			t.Fatalf("round %d: popN(%d) drained %d, singles drained %d", round, k, got, want)
		}
		if batch.occ != single.occ {
			t.Fatalf("round %d: occupancy integrals diverged: %v vs %v", round, batch.occ, single.occ)
		}
	}
}

// occupancyAt reads the integral mid-flight without retiring anything:
// the closed residency plus each queued request's accrual so far.
func TestShardQueueOccupancyAt(t *testing.T) {
	s := shardState{cap: 4}
	if got := s.occupancyAt(100 * nsec); got != 0 {
		t.Fatalf("fresh occupancyAt = %v, want 0", got)
	}
	pushAt(&s, 0, 0)
	pushAt(&s, 1, 10*nsec)
	// At t=30: 30ns from the first request, 20ns from the second.
	if got := s.occupancyAt(30 * nsec); got != 50*nsec {
		t.Fatalf("occupancyAt(30) = %v, want 50ns", got)
	}
	// Reading must not retire: the closed integral and depth stand.
	if s.occ != 0 || s.queue.Len() != 2 {
		t.Fatalf("after read occ %v, len %d; want 0, 2", s.occ, s.queue.Len())
	}
	if len(s.popN(30*nsec, 1, nil)) != 1 {
		t.Fatal("popN failed")
	}
	// Closed 30ns + the remaining request's (40−10)ns.
	if got := s.occupancyAt(40 * nsec); got != 60*nsec {
		t.Fatalf("occupancyAt(40) = %v, want 60ns", got)
	}
	// A request admitted at the sample instant has accrued nothing yet.
	pushAt(&s, 2, 40*nsec)
	if got := s.occupancyAt(40 * nsec); got != 60*nsec {
		t.Fatalf("occupancyAt at admit instant = %v, want 60ns", got)
	}
}
