package sim

// Mutex is a lock for simulated threads. Because the engine runs exactly
// one proc at a time, the lock needs no atomics; contended acquisition is
// modeled as polling with a small backoff, which both serializes critical
// sections in simulated time and charges a realistic handoff cost. The
// engine runs the polling itself: a contended Lock waits with the Mutex as
// its Waiter, so a poll that finds the lock still held costs no coroutine
// switch and no allocation.
type Mutex struct {
	held bool
}

// mutexBackoff is a contended Lock's polling interval.
const mutexBackoff = 30 * Nanosecond

// Lock acquires the mutex on behalf of p, advancing p's clock while it
// waits.
func (m *Mutex) Lock(p *Proc) {
	if !m.held {
		m.held = true
		return
	}
	p.Wait(p.Now()+mutexBackoff, m)
}

// Wake is one poll of a contended Lock: it takes the lock if it is free,
// and otherwise polls again one backoff later.
func (m *Mutex) Wake(now Time) (Time, bool) {
	if m.held {
		return now + mutexBackoff, false
	}
	m.held = true
	return now, true
}

// Unlock releases the mutex.
func (m *Mutex) Unlock() {
	if !m.held {
		panic("sim: unlock of unlocked Mutex")
	}
	m.held = false
}
