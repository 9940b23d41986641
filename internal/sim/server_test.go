package sim

import (
	"testing"
	"testing/quick"
)

func TestServerFIFO(t *testing.T) {
	var s Server
	start, end := s.Acquire(0, 10*Nanosecond)
	if start != 0 || end != 10*Nanosecond {
		t.Fatalf("first acquire = (%v, %v)", start, end)
	}
	// Arrives while busy: queued behind.
	start, end = s.Acquire(5*Nanosecond, 10*Nanosecond)
	if start != 10*Nanosecond || end != 20*Nanosecond {
		t.Fatalf("second acquire = (%v, %v)", start, end)
	}
	// Arrives after idle gap: starts immediately.
	start, end = s.Acquire(100*Nanosecond, Nanosecond)
	if start != 100*Nanosecond || end != 101*Nanosecond {
		t.Fatalf("third acquire = (%v, %v)", start, end)
	}
	if s.BusyTime() != 21*Nanosecond {
		t.Fatalf("busy = %v, want 21ns", s.BusyTime())
	}
}

func TestBoundedQueueAdmitsUpToCap(t *testing.T) {
	q := NewBoundedQueue(3)
	for i := 0; i < 3; i++ {
		at := q.Admit(0)
		if at != 0 {
			t.Fatalf("entry %d admitted at %v, want 0", i, at)
		}
		q.Push(0, Time(100+i*10)*Nanosecond)
	}
	// Queue full: fourth entry waits for the oldest drain (100ns).
	at := q.Admit(0)
	if at != 100*Nanosecond {
		t.Fatalf("fourth admit at %v, want 100ns", at)
	}
}

func TestBoundedQueueDrainFrees(t *testing.T) {
	q := NewBoundedQueue(2)
	q.Push(0, 10*Nanosecond)
	q.Push(0, 20*Nanosecond)
	if got := q.Occupancy(5 * Nanosecond); got != 2 {
		t.Fatalf("occupancy@5 = %d", got)
	}
	if got := q.Occupancy(15 * Nanosecond); got != 1 {
		t.Fatalf("occupancy@15 = %d", got)
	}
	if at := q.Admit(15 * Nanosecond); at != 15*Nanosecond {
		t.Fatalf("admit@15 = %v", at)
	}
}

func TestBoundedQueueDeepBacklog(t *testing.T) {
	q := NewBoundedQueue(4)
	// 10 entries drain every 10ns starting at 10ns.
	for i := 1; i <= 4; i++ {
		q.Push(0, Time(i*10)*Nanosecond)
	}
	// Entry arriving at 0 with queue full of 4: admitted at first drain.
	if at := q.Admit(0); at != 10*Nanosecond {
		t.Fatalf("admit = %v, want 10ns", at)
	}
	q.Push(10*Nanosecond, 50*Nanosecond)
	// Now in-flight drains (after trim at 10ns): 20,30,40,50 — full again.
	if at := q.Admit(12 * Nanosecond); at != 20*Nanosecond {
		t.Fatalf("admit = %v, want 20ns", at)
	}
}

// Property: a bounded queue fed by a server never exceeds its capacity, and
// admit times are never before the request time.
func TestBoundedQueueInvariant(t *testing.T) {
	f := func(seed uint64, capRaw uint8) bool {
		capacity := int(capRaw%8) + 1
		q := NewBoundedQueue(capacity)
		var srv Server
		r := NewRNG(seed)
		var now Time
		for i := 0; i < 500; i++ {
			now += Time(r.Intn(20)) * Nanosecond
			at := q.Admit(now)
			if at < now {
				return false
			}
			_, drain := srv.Acquire(at, Time(1+r.Intn(30))*Nanosecond)
			q.Push(at, drain)
			if q.Occupancy(at) > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBoundedQueueOccupancyTime(t *testing.T) {
	q := NewBoundedQueue(4)
	if q.OccupancyTime() != 0 {
		t.Fatal("fresh queue has nonzero occupancy time")
	}
	// Two entries resident 10ns and 30ns: 40ns of entry-residency.
	q.Push(0, 10*Nanosecond)
	q.Push(10*Nanosecond, 40*Nanosecond)
	if got := q.OccupancyTime(); got != 40*Nanosecond {
		t.Fatalf("occupancy time = %v, want 40ns", got)
	}
	// Zero-residency and inverted inputs contribute nothing.
	q.Push(50*Nanosecond, 50*Nanosecond)
	q.Push(70*Nanosecond, 60*Nanosecond)
	if got := q.OccupancyTime(); got != 40*Nanosecond {
		t.Fatalf("occupancy time after degenerate pushes = %v, want 40ns", got)
	}
	// Trimming drained entries must not disturb the accounting.
	if q.Occupancy(100*Nanosecond) != 0 {
		t.Fatal("queue should be empty at 100ns")
	}
	if got := q.OccupancyTime(); got != 40*Nanosecond {
		t.Fatalf("occupancy time after trim = %v, want 40ns", got)
	}
	q.Reset()
	if q.OccupancyTime() != 0 {
		t.Fatal("Reset must clear occupancy time")
	}
}

// An entry drains at exactly its drain timestamp: Occupancy at that instant
// excludes it and a full queue admits a new entry at that same instant.
func TestBoundedQueueEqualTimestamps(t *testing.T) {
	q := NewBoundedQueue(2)
	q.Push(0, 10*Nanosecond)
	q.Push(0, 10*Nanosecond) // two entries drain at the same instant
	if got := q.Occupancy(9 * Nanosecond); got != 2 {
		t.Fatalf("occupancy@9 = %d, want 2", got)
	}
	if got := q.Occupancy(10 * Nanosecond); got != 0 {
		t.Fatalf("occupancy@10 = %d, want 0 (drain boundary is inclusive)", got)
	}
	q.Push(10*Nanosecond, 20*Nanosecond)
	q.Push(10*Nanosecond, 20*Nanosecond)
	// Admit exactly at the drain instant of a full queue: no waiting.
	if at := q.Admit(20 * Nanosecond); at != 20*Nanosecond {
		t.Fatalf("admit@20 = %v, want 20ns", at)
	}
	// Admit strictly before: waits for the drain.
	q.Reset()
	q.Push(0, 20*Nanosecond)
	q.Push(0, 20*Nanosecond)
	if at := q.Admit(19 * Nanosecond); at != 20*Nanosecond {
		t.Fatalf("admit@19 = %v, want 20ns", at)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide too often: %d/100", same)
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(7)
	const n = 100000
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, c := range buckets {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Errorf("bucket %d = %d, expected ~%d", i, c, n/10)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(1)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGBoolEdges(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	if hits < n/4-n/50 || hits > n/4+n/50 {
		t.Errorf("Bool(0.25) hit rate %d/%d", hits, n)
	}
}
