package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated thread of execution. Procs advance simulated time via
// AdvanceTo/Sleep, or block in Wait; between advances they run exclusively,
// so shared simulation state needs no locking.
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

	// waiter is the Waiter the proc is blocked on in Wait, nil otherwise.
	waiter Waiter
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
	if p.waiter != nil {
		panic(wakeAdvanceMsg)
	}
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

// Waiter is a wait that the engine runs for a proc blocked in Wait. Wake is
// called at each of the proc's wake-up times, on Run's goroutine, and
// returns the time of the next wake-up, or resume once the proc may go on.
// Wake may read and change simulation state, but must not advance, yield
// or Wait on its proc.
type Waiter interface {
	Wake(now Time) (next Time, resume bool)
}

// WaitFunc adapts a function to the Waiter interface.
type WaitFunc func(now Time) (next Time, resume bool)

// Wake calls f.
func (f WaitFunc) Wake(now Time) (Time, bool) { return f(now) }

// wakeAdvanceMsg is the panic value when a Waiter advances, yields or Waits
// on its own proc inside Wake.
const wakeAdvanceMsg = "sim: a Waiter advanced, yielded or waited on its proc inside Wake"

// Wait blocks p until w resumes it. p's clock, the engine clock and the
// (now, seq) order of every proc come out exactly as from
//
//	for t := first; ; t = next {
//		p.AdvanceTo(t)
//		next, resume := w.Wake(p.Now())
//		if resume {
//			return
//		}
//	}
//
// but Run makes the advances and calls Wake itself, so a wake-up that does
// not resume costs no coroutine switch: p parks once, here, and runs again
// only when Wake resumes it.
func (p *Proc) Wait(first Time, w Waiter) {
	if p.waiter != nil {
		panic(wakeAdvanceMsg)
	}
	if first > p.now {
		p.now = first
	}
	p.waiter = w
	if !p.park(struct{}{}) {
		p.waiter = nil
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
//
// A proc blocked in Wait stays parked while Run calls its Waiter. A Waiter
// that panics unwinds Run the same way; its proc is then put back among the
// parked procs, so that Stop reaps it.
func (e *Engine) Run() Time {
	if e.stopped {
		panic("sim: Run on a stopped engine")
	}
	if len(e.procs) == 0 {
		return e.now
	}
	p := e.procs.pop()
	defer func() {
		if p != nil && p.waiter != nil {
			e.procs.push(p)
		}
	}()
	for {
		if p.now > e.now {
			e.now = p.now
		}
		if w := p.waiter; w != nil {
			next, resume := w.Wake(p.now)
			if !resume {
				if next > p.now {
					p.now = next
				}
				p = e.reschedule(p)
				continue
			}
			p.waiter = nil
		}
		if _, parked := p.next(); parked {
			if p.waiter == nil {
				// p parked in yield, behind the earliest parked proc
				// and with a fresh seq: the two trade places.
				p = e.procs.replaceTop(p)
			} else {
				// p parked in Wait, its clock at the first wake-up.
				p = e.reschedule(p)
			}
			continue
		}
		if len(e.procs) == 0 {
			p = nil
			return e.now
		}
		p = e.procs.pop()
	}
}

// reschedule is the scheduling half of an advance of p, which is out of the
// heap: p runs on if it is strictly earlier than every parked proc, as in
// yield's fast path, and otherwise draws a fresh seq and trades places with
// the earliest parked proc. It returns the proc to run next.
func (e *Engine) reschedule(p *Proc) *Proc {
	if len(e.procs) > 0 && p.now >= e.procs[0].now {
		p.seq = e.nextSeq()
		p = e.procs.replaceTop(p)
	}
	return p
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
	*h = s[:n]
	if n > 0 {
		s[:n].down(last)
	}
	return top
}

// replaceTop pushes p and pops the earliest proc with one sift: it returns
// what push(p) then pop() would and leaves the heap holding the same procs.
func (h procHeap) replaceTop(p *Proc) *Proc {
	if len(h) == 0 || p.before(h[0]) {
		return p
	}
	top := h[0]
	h.down(p)
	return top
}

// down puts p in the root slot, whose proc has been taken out, and sifts it
// down to its place.
func (h procHeap) down(p *Proc) {
	n := len(h)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(p) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = p
}
