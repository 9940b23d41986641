package sim

// Server models a FIFO resource with a single service stream (a bus, a media
// bank group, a link direction). Requests are served in call order; a
// request arriving at t with service time svc completes at
// max(t, previous completion) + svc.
//
// Call order is not time order. A proc walks a multi-line access on its own
// clock and yields once, at the end, so it can reserve the server for
// requests dated after those of a proc that runs later with an earlier
// clock: over the neutrality guard's sweep, 10.8 % of Acquire calls are
// dated before a call already made on the same server. The earlier-dated
// request then queues behind the later one and pays for its service. This
// is a known deviation; the causal device model planned in ROADMAP.md fixes
// it with a reservation calendar that serves each request in the first idle
// gap at or after its own time.
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
