package sim

import (
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count drops to at most want, or
// the deadline passes; it returns the final count. Reaped goroutines may
// need a moment to actually exit.
func waitGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestStopReapsUnrunProcs covers the teardown contract: each proc spawned
// but never run holds a coroutine goroutine, and Stop must end every one
// of them.
func TestStopReapsUnrunProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		e := NewEngine()
		for j := 0; j < 8; j++ {
			e.Go("parked", 0, func(p *Proc) {
				p.Advance(Microsecond)
			})
		}
		e.Stop()
	}
	if after := waitGoroutines(before); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestStopIdempotentAndAfterRun checks Stop after a completed Run is a
// no-op and double-Stop is safe.
func TestStopIdempotentAndAfterRun(t *testing.T) {
	e := NewEngine()
	e.Go("a", 0, func(p *Proc) { p.Advance(10 * Nanosecond) })
	if end := e.Run(); end != 10*Nanosecond {
		t.Fatalf("end = %v", end)
	}
	e.Stop()
	e.Stop()
}

// TestGoAfterStopPanics pins the misuse contract.
func TestGoAfterStopPanics(t *testing.T) {
	e := NewEngine()
	e.Stop()
	defer func() {
		if recover() == nil {
			t.Error("Go on a stopped engine did not panic")
		}
	}()
	e.Go("late", 0, func(p *Proc) {})
}

// runRecovering calls e.Run and returns the value it panicked with, or nil.
func runRecovering(e *Engine) (r any) {
	defer func() { r = recover() }()
	e.Run()
	return nil
}

// TestProcPanicSurfacesFromRun pins the panic contract: a proc's panic is
// re-raised in the caller of Run with the same value, the procs still
// parked run none of their deferred functions until Stop, and Stop then
// unwinds each of them exactly once without leaking a goroutine.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		e := NewEngine()
		var unwound [4]int
		for j := range unwound {
			e.Go("loop", 0, func(p *Proc) {
				defer func() { unwound[j]++ }()
				for {
					p.Advance(Nanosecond)
				}
			})
		}
		e.Go("boom", 0, func(p *Proc) {
			p.Advance(5 * Nanosecond)
			panic("boom")
		})
		if r := runRecovering(e); r != "boom" {
			t.Fatalf("Run panicked with %v, want %q", r, "boom")
		}
		if unwound != [4]int{} {
			t.Fatalf("deferred counts before Stop = %v, want all 0", unwound)
		}
		e.Stop()
		if unwound != [4]int{1, 1, 1, 1} {
			t.Fatalf("deferred counts after Stop = %v, want all 1", unwound)
		}
	}
	if after := waitGoroutines(before); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestStopUnwindsParkedProcs pins what Stop's doc promises beyond reaping:
// a proc parked mid-loop runs its deferred function exactly once and none
// of the code after the advance it parked in, a proc that never ran never
// enters its body, and the parked procs unwind in (now, seq) order. A
// panicking proc is what leaves procs parked mid-run when Run gives up.
func TestStopUnwindsParkedProcs(t *testing.T) {
	type unwind struct {
		now Time
		seq uint64
	}
	e := NewEngine()
	var order []unwind
	stopping := false
	// Proc k ticks every k ns, so at the panic (11 ns) the procs are
	// parked at 11, 12, 12, 12, 15 and 12 ns: four ties on 12 ns, parked
	// at different instants, so seq decides their order.
	for k := 1; k <= 6; k++ {
		e.Go("loop", 0, func(p *Proc) {
			defer func() { order = append(order, unwind{p.now, p.seq}) }()
			for {
				p.Advance(Time(k) * Nanosecond)
				if stopping {
					t.Errorf("proc %d ran past its parking advance at %v", k, p.Now())
				}
			}
		})
	}
	e.Go("never-run", Microsecond, func(p *Proc) {
		t.Error("a proc that never ran entered its body")
	})
	e.Go("boom", 0, func(p *Proc) {
		p.Advance(11 * Nanosecond)
		panic("boom")
	})
	if r := runRecovering(e); r != "boom" {
		t.Fatalf("Run panicked with %v, want %q", r, "boom")
	}
	stopping = true
	e.Stop()
	if len(order) != 6 {
		t.Fatalf("%d deferred functions ran, want 6: %v", len(order), order)
	}
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if a.now > b.now || a.now == b.now && a.seq >= b.seq {
			t.Fatalf("unwound out of (now, seq) order: %v", order)
		}
	}
}

// TestStopReapsWaitingProcs pins teardown for procs blocked in Wait: Stop
// ends each of them and runs its deferred functions exactly once, both
// when another proc's panic ended Run and when the proc's own Waiter
// panicked. Wake runs on Run's goroutine while its proc is parked and out
// of the heap, so Run must put the proc back for Stop to reach it.
func TestStopReapsWaitingProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, waiterPanics := range []bool{false, true} {
		for i := 0; i < 50; i++ {
			e := NewEngine()
			var unwound [3]int
			for j := range unwound {
				e.Go("waiting", 0, func(p *Proc) {
					defer func() { unwound[j]++ }()
					wakes := 0
					p.Wait(Nanosecond, WaitFunc(func(now Time) (Time, bool) {
						if wakes++; waiterPanics && j == 1 && wakes == 3 {
							panic("boom")
						}
						return now + Nanosecond, false
					}))
					t.Errorf("waiting proc %d resumed", j)
				})
			}
			if !waiterPanics {
				e.Go("boom", 0, func(p *Proc) {
					p.Advance(5 * Nanosecond)
					panic("boom")
				})
			}
			if r := runRecovering(e); r != "boom" {
				t.Fatalf("Run panicked with %v, want %q", r, "boom")
			}
			if unwound != [3]int{} {
				t.Fatalf("deferred counts before Stop = %v, want all 0", unwound)
			}
			e.Stop()
			if unwound != [3]int{1, 1, 1} {
				t.Fatalf("waiter panics %v: deferred counts after Stop = %v, want all 1", waiterPanics, unwound)
			}
		}
	}
	if after := waitGoroutines(before); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestWakeMayNotAdvanceItsProc pins the Waiter contract: a Wake that
// advances, yields or waits on its own proc panics, and says why.
func TestWakeMayNotAdvanceItsProc(t *testing.T) {
	for _, c := range []struct {
		name   string
		misuse func(p *Proc)
	}{
		{"Advance", func(p *Proc) { p.Advance(Nanosecond) }},
		{"AdvanceTo", func(p *Proc) { p.AdvanceTo(p.Now()) }},
		{"Wait", func(p *Proc) {
			p.Wait(p.Now(), WaitFunc(func(now Time) (Time, bool) { return now, true }))
		}},
	} {
		e := NewEngine()
		e.Go("misuse", 0, func(p *Proc) {
			p.Wait(Nanosecond, WaitFunc(func(Time) (Time, bool) {
				c.misuse(p)
				return 0, true
			}))
		})
		if r := runRecovering(e); r != wakeAdvanceMsg {
			t.Errorf("%s inside Wake: Run panicked with %v, want %q", c.name, r, wakeAdvanceMsg)
		}
		e.Stop()
	}
}
