package sim

// Mutex is a lock for simulated threads. Because the engine runs exactly
// one proc at a time, the lock needs no atomics; contended acquisition is
// modeled as polling with a small backoff, which both serializes critical
// sections in simulated time and charges a realistic handoff cost.
type Mutex struct {
	held bool
}

// mutexBackoff is a contended Lock's polling interval.
const mutexBackoff = 30 * Nanosecond

// Lock acquires the mutex on behalf of p, advancing p's clock while it
// waits.
func (m *Mutex) Lock(p *Proc) {
	for m.held {
		p.Sleep(mutexBackoff)
	}
	m.held = true
}

// Unlock releases the mutex.
func (m *Mutex) Unlock() {
	if !m.held {
		panic("sim: unlock of unlocked Mutex")
	}
	m.held = false
}
