package sim

import "testing"

// loopWait is Wait's reference model: the loop of plain advances and Wake
// calls that Wait's doc spells out, run on the proc's own coroutine.
func loopWait(p *Proc, first Time, w Waiter) {
	for t := first; ; {
		p.AdvanceTo(t)
		next, resume := w.Wake(p.Now())
		if resume {
			return
		}
		t = next
	}
}

// loopLock is Mutex.Lock's reference model: a poll loop of plain advances.
func loopLock(m *Mutex, p *Proc) {
	for m.held {
		p.Sleep(mutexBackoff)
	}
	m.held = true
}

// The kinds of proc in a wait script.
const (
	advancer  = iota // plain advances by its gaps, flipping its flag halfway
	poller           // one wait per gap, polling every gap until its flag is set or it has polled polls times
	contender        // per gap: lock the shared mutex, hold it for the gap, unlock
	stepper          // one wait that wakes after each of its gaps, zero gaps included, flipping its flag halfway
)

// scriptProc is one proc of a wait script.
type scriptProc struct {
	kind  byte
	start Time
	gaps  []Time
	flag  int // the flag a poller watches, or an advancer or stepper flips
	polls int
}

// decodeScript reads a wait script from bytes, reading zeros past the
// end: up to six procs, each with a kind, a start of 0-3 ns and up to
// eight gaps from {0, 1, 10, 11, 20, 21, 30, 31} ns, so that clocks tie
// often, among themselves and with the mutex's 30 ns backoff.
func decodeScript(data []byte) []scriptProc {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	procs := make([]scriptProc, 1+next()%6)
	for k := range procs {
		b := next()
		sp := &procs[k]
		sp.kind = b % 4
		sp.flag = int(b>>2) % 2
		sp.start = Time(b>>3%4) * Nanosecond
		sp.polls = 1 + int(next()%16)
		sp.gaps = make([]Time, 1+next()%8)
		for j := range sp.gaps {
			g := next()
			sp.gaps[j] = Time(g&3)*10*Nanosecond + Time(g>>2&1)*Nanosecond
		}
	}
	return procs
}

// wake is one entry of a script's trace: which proc woke, at what time and
// with what seq.
type wake struct {
	proc int
	now  Time
	seq  uint64
}

// runScript plays procs on a fresh engine, through Wait and Mutex.Lock or,
// with loops set, through their reference loops. It returns the trace of
// wake-ups, the final engine clock and the number of seqs drawn.
func runScript(procs []scriptProc, loops bool) ([]wake, Time, uint64) {
	e := NewEngine()
	wait, lock := (*Proc).Wait, (*Mutex).Lock
	if loops {
		wait, lock = loopWait, loopLock
	}
	var trace []wake
	var flags [2]bool
	var mu Mutex
	for k, sp := range procs {
		e.Go("script", sp.start, func(p *Proc) {
			note := func() { trace = append(trace, wake{k, p.now, p.seq}) }
			switch sp.kind {
			case advancer:
				for j, g := range sp.gaps {
					p.Advance(g)
					note()
					if j == len(sp.gaps)/2 {
						flags[sp.flag] = !flags[sp.flag]
					}
				}
			case poller:
				for _, g := range sp.gaps {
					n := 0
					wait(p, p.Now()+g, WaitFunc(func(now Time) (Time, bool) {
						note()
						n++
						return now + g, flags[sp.flag] || n == sp.polls
					}))
				}
			case contender:
				for _, g := range sp.gaps {
					lock(&mu, p)
					note()
					p.Advance(g)
					mu.Unlock()
				}
			case stepper:
				j := 0
				wait(p, p.Now()+sp.gaps[0], WaitFunc(func(now Time) (Time, bool) {
					note()
					if j == len(sp.gaps)/2 {
						flags[sp.flag] = !flags[sp.flag]
					}
					if j++; j == len(sp.gaps) {
						return now, true
					}
					return now + sp.gaps[j], false
				}))
			}
		})
	}
	end := e.Run()
	return trace, end, e.seq
}

// checkWaitMatchesLoop runs the script in data both ways and fails unless
// the two give the same ordered trace, final clock and seq count.
func checkWaitMatchesLoop(t *testing.T, data []byte) {
	t.Helper()
	procs := decodeScript(data)
	got, gotEnd, gotSeqs := runScript(procs, false)
	want, wantEnd, wantSeqs := runScript(procs, true)
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("script %v: trace differs at wake-up %d:\nwait %v\nloop %v", procs, i, tail(got, i), tail(want, i))
	}
	if gotEnd != wantEnd || gotSeqs != wantSeqs {
		t.Fatalf("script %v: end %v after %d seqs, loops end %v after %d", procs, gotEnd, gotSeqs, wantEnd, wantSeqs)
	}
}

// firstDiff returns the index of the first entry where a and b differ, or
// -1 if they are equal.
func firstDiff(a, b []wake) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// tail returns up to three entries of w from i on.
func tail(w []wake, i int) []wake { return w[i:min(len(w), i+3)] }

// TestWaitMatchesLoop checks Wait and Mutex.Lock against their reference
// loops over seeded random scripts.
func TestWaitMatchesLoop(t *testing.T) {
	for seed := uint64(1); seed <= 400; seed++ {
		r := NewRNG(seed)
		data := make([]byte, 8+r.Intn(64))
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		checkWaitMatchesLoop(t, data)
	}
}

// FuzzWaitMatchesLoop checks Wait and Mutex.Lock against their reference
// loops over scripts decoded from arbitrary bytes.
func FuzzWaitMatchesLoop(f *testing.F) {
	// Two contenders, a poller and a stepper with zero gaps.
	f.Add([]byte{3, 2, 0, 2, 3, 1, 0, 10, 0, 1, 7, 2, 1, 15, 1, 4, 1, 3, 0, 5, 0, 0, 4, 0, 1, 0})
	// One proc of each kind and two more, all starting at 0 with gaps of
	// 10 or 30 ns: most wake-ups tie.
	f.Add([]byte{5,
		0, 0, 3, 1, 1, 1, 1,
		1, 3, 3, 1, 1, 1, 1,
		2, 0, 3, 1, 1, 1, 1,
		3, 0, 3, 1, 1, 1, 1,
		2, 0, 3, 3, 3, 3, 3,
		5, 7, 3, 0, 1, 0, 1})
	f.Fuzz(checkWaitMatchesLoop)
}
