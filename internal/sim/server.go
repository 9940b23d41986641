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
	return start, end
}
