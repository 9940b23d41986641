package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated thread of execution. Procs advance simulated time via
// AdvanceTo/Sleep; between advances they run exclusively, so shared
// simulation state needs no locking.
type Proc struct {
	eng  *Engine
	name string
	now  Time
	seq  uint64

	// The proc's coroutine: Run resumes it with next, the proc parks by
	// calling park, and Stop unwinds it with stop.
	next func() (struct{}, bool)
	stop func()
	park func(struct{}) bool
}

// Now returns the proc's current simulated time.
func (p *Proc) Now() Time { return p.now }

// Name returns the proc's debug name.
func (p *Proc) Name() string { return p.name }

// AdvanceTo moves the proc's clock to t (no-op if t is in the past) and
// yields to the scheduler so that other procs with earlier clocks can run.
func (p *Proc) AdvanceTo(t Time) {
	if t > p.now {
		p.now = t
	}
	p.yield()
}

// Advance moves the proc's clock forward by d and yields.
func (p *Proc) Advance(d Time) { p.AdvanceTo(p.now + d) }

// Sleep is an alias for Advance, for readability in kernels.
func (p *Proc) Sleep(d Time) { p.Advance(d) }

func (p *Proc) yield() {
	e := p.eng
	// Fast path: if every parked proc is strictly later than this one, Run
	// would resume this proc straight away, so skip the coroutine switch.
	// Ties must park: FIFO order among equal times is decided by the heap.
	// Touching e.procs and e.now here is safe because procs run one at a
	// time: Run is suspended in this proc's next until the proc parks.
	if len(e.procs) == 0 || p.now < e.procs[0].now {
		if p.now > e.now {
			e.now = p.now
		}
		return
	}
	p.seq = e.nextSeq()
	if !p.park(struct{}{}) {
		panic(procStop{})
	}
}

// Engine schedules procs in global simulated-time order.
type Engine struct {
	procs   procHeap
	seq     uint64
	now     Time
	stopped bool
}

// procStop is the sentinel panic a parked proc raises when Stop ends its
// coroutine, so that the proc unwinds through its deferred handlers without
// running further simulation work. Kernels must not recover it.
type procStop struct{}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the time of the most recently scheduled proc — the global
// simulation clock.
func (e *Engine) Now() Time { return e.now }

func (e *Engine) nextSeq() uint64 {
	e.seq++
	return e.seq
}

// Go spawns a new proc running fn, starting at time start. It may be called
// before Run or from within a running proc (in which case start is normally
// the caller's Now).
func (e *Engine) Go(name string, start Time, fn func(p *Proc)) *Proc {
	if e.stopped {
		panic("sim: Go on a stopped engine")
	}
	p := &Proc{
		eng:  e,
		name: name,
		now:  start,
		seq:  e.nextSeq(),
	}
	p.next, p.stop = iter.Pull(func(park func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(procStop); !ok {
					panic(r)
				}
			}
		}()
		p.park = park
		fn(p)
	})
	e.procs.push(p)
	return p
}

// Run executes the simulation until every proc has finished. It returns the
// final simulated time.
//
// A panic in a proc is re-raised in the caller of Run with the same value.
// Its traceback starts at Run: the proc's own frames end with its
// coroutine. A runtime.Goexit in a proc, such as t.FailNow, likewise ends
// the goroutine that called Run. The proc is then finished; the engine may
// afterwards only be stopped, which reaps the procs still parked.
func (e *Engine) Run() Time {
	if e.stopped {
		panic("sim: Run on a stopped engine")
	}
	for len(e.procs) > 0 {
		p := e.procs.pop()
		if p.now > e.now {
			e.now = p.now
		}
		if _, parked := p.next(); parked {
			e.procs.push(p)
		}
	}
	return e.now
}

// Stop tears the engine down: every live proc — spawned but never run, or
// parked mid-simulation — is ended in (now, seq) order. A parked proc sees
// its park fail and unwinds via a sentinel panic, so it runs no further
// simulation work but its deferred cleanup still executes; a proc that
// never ran never enters its body. Stop is idempotent and a no-op after a
// completed Run; the engine must not be used afterwards.
func (e *Engine) Stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	for len(e.procs) > 0 {
		e.procs.pop().stop()
	}
}

// String reports scheduler state for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now=%v live=%d}", e.now, len(e.procs))
}

// procHeap is a binary min-heap of procs ordered by (now, seq): earliest
// time first, FIFO among ties. seq is unique, so the order is total and the
// pop sequence does not depend on how the heap arranges its slots.
type procHeap []*Proc

// before reports whether p is ordered ahead of q.
func (p *Proc) before(q *Proc) bool {
	if p.now != q.now {
		return p.now < q.now
	}
	return p.seq < q.seq
}

func (h *procHeap) push(p *Proc) {
	s := append(*h, p)
	i := len(s) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !p.before(s[up]) {
			break
		}
		s[i] = s[up]
		i = up
	}
	s[i] = p
	*h = s
}

func (h *procHeap) pop() *Proc {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].before(s[c]) {
			c = r
		}
		if !s[c].before(last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	return top
}
