package sim

// Server models a FIFO resource with a single service stream (a bus, a media
// bank group, a link direction). Requests are served in arrival order; a
// request arriving at t with service time svc completes at
// max(t, previous completion) + svc.
//
// Because the engine schedules procs in global time order, Acquire calls
// arrive in nondecreasing time order and the FIFO discipline is exact.
type Server struct {
	free Time // completion time of the last admitted request

	// Busy accounting for utilization reporting.
	busy Time
}

// Acquire requests svc units of service starting no earlier than t. It
// returns the service start and completion times and advances the server.
func (s *Server) Acquire(t, svc Time) (start, end Time) {
	start = t
	if s.free > start {
		start = s.free
	}
	end = start + svc
	s.free = end
	s.busy += svc
	return start, end
}

// BusyTime returns the cumulative service time granted.
func (s *Server) BusyTime() Time { return s.busy }

// BoundedQueue models a finite FIFO queue (such as an iMC write-pending
// queue) whose entries drain in order at times supplied by the caller. An
// entry can be admitted only when occupancy is below capacity; Admit returns
// the earliest time a slot frees up.
type BoundedQueue struct {
	cap    int
	drains Queue[Time] // drain times of in-flight entries, nondecreasing

	// Occupancy-time accounting for utilization reporting, the queue
	// counterpart of Server.BusyTime: cumulative entry-residency
	// (sum over entries of drain − admit).
	occ Time
}

// NewBoundedQueue returns a queue with the given entry capacity.
func NewBoundedQueue(capacity int) *BoundedQueue {
	if capacity < 1 {
		capacity = 1
	}
	return &BoundedQueue{cap: capacity}
}

// Len returns the number of in-flight entries (including drained entries not
// yet retired; call Admit or Occupancy to trim).
func (q *BoundedQueue) Len() int { return q.drains.Len() }

func (q *BoundedQueue) trim(t Time) {
	for q.drains.Len() > 0 && q.drains.At(0) <= t {
		q.drains.Pop()
	}
}

// Occupancy returns the number of entries still queued at time t.
func (q *BoundedQueue) Occupancy(t Time) int {
	q.trim(t)
	return q.Len()
}

// Admit returns the earliest time >= t at which a new entry can enter the
// queue. It does not insert the entry; call Push with the entry's drain time
// after computing it.
func (q *BoundedQueue) Admit(t Time) Time {
	// The entry is admitted when occupancy first drops below capacity:
	// after the (Len-cap+1)-th oldest in-flight entry drains. Drains are
	// in order, so that entry is the same before and after trimming.
	if n := q.Len(); n >= q.cap {
		t = max(t, q.drains.At(n-q.cap))
	}
	q.trim(t)
	return t
}

// Push records an entry admitted at time at that will drain at the given
// time. Drain times must be nondecreasing (FIFO drain), which holds when
// drains are produced by a Server. The entry's residency (drain − at) is
// accumulated into OccupancyTime.
func (q *BoundedQueue) Push(at, drain Time) {
	if drain > at {
		q.occ += drain - at
	}
	q.drains.Push(drain)
}

// OccupancyTime returns the cumulative entry-residency granted: the
// integral of Occupancy over time, in entry-time units. Dividing by
// capacity × elapsed gives the queue's utilization, the counterpart of
// Server.BusyTime for servers.
func (q *BoundedQueue) OccupancyTime() Time { return q.occ }

// Reset clears the queue.
func (q *BoundedQueue) Reset() {
	q.drains.Reset()
	q.occ = 0
}
