package sim

import (
	"fmt"
	"testing"
)

// BenchmarkYieldSoloProc measures the per-advance cost when one proc owns
// the timeline — the common case for single-threaded kernels, served by the
// fast path in Proc.yield that skips the coroutine switch.
func BenchmarkYieldSoloProc(b *testing.B) {
	eng := NewEngine()
	eng.Go("solo", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(Nanosecond)
		}
	})
	b.ResetTimer()
	eng.Run()
}

// BenchmarkYieldContended measures the per-advance cost when procs tick in
// lock-step, forcing a coroutine switch and a heap pop and push on every
// yield. 17 procs is serve-read's count — 16 workers across two shards plus
// the arrival generator — where the heap is deep enough for its cost to
// show.
func BenchmarkYieldContended(b *testing.B) {
	for _, procs := range []int{2, 17} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			eng := NewEngine()
			for w := 0; w < procs; w++ {
				eng.Go("w", 0, func(p *Proc) {
					for i := 0; i < b.N/procs; i++ {
						p.Advance(Nanosecond)
					}
				})
			}
			b.ResetTimer()
			eng.Run()
		})
	}
}

// BenchmarkWaitContended measures the cost of an inline wake-up: procs
// wait in lock-step, so every Wake that does not resume re-queues its proc
// behind the others, but Run makes the advance and calls the next Wake
// itself, with no coroutine switch. The proc counts are
// BenchmarkYieldContended's.
func BenchmarkWaitContended(b *testing.B) {
	for _, procs := range []int{2, 17} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			eng := NewEngine()
			for w := 0; w < procs; w++ {
				eng.Go("w", 0, func(p *Proc) {
					left := b.N / procs
					p.Wait(Nanosecond, WaitFunc(func(now Time) (Time, bool) {
						left--
						return now + Nanosecond, left <= 0
					}))
				})
			}
			b.ResetTimer()
			eng.Run()
		})
	}
}

// TestHandoffZeroAlloc pins the contended switch and the engine's waits at
// zero allocations. In each row one proc measures its own operation while
// a partner keeps it contended: for an Advance, the partner ticks in
// lock-step, so every measured Advance parks and resumes both procs; for a
// Mutex.Lock, the partner holds the lock over each measured call; for an
// idle Wait, the partner ticks in lock-step while the waiter polls four
// times. Spawning is what allocates — iter.Pull keeps each coroutine's
// state in heap-allocated closures — and that cost is paid once per proc
// in Go, not per switch or wake-up.
func TestHandoffZeroAlloc(t *testing.T) {
	var mu Mutex
	polls := 0
	idle := WaitFunc(func(now Time) (Time, bool) {
		polls++
		return now + Nanosecond, polls%4 == 0
	})
	contended := 0
	for _, c := range []struct {
		name    string
		measure func(p *Proc)
		partner func(p *Proc)
	}{
		{
			name:    "contended Advance",
			measure: func(p *Proc) { p.Advance(Nanosecond) },
			partner: func(p *Proc) { p.Advance(Nanosecond) },
		},
		{
			// The partner holds the lock for 100 ns of every 150; the
			// measured proc takes it within a backoff of its release and
			// calls again 100 ns later, inside the partner's next hold.
			name: "contended Mutex.Lock",
			measure: func(p *Proc) {
				if mu.held {
					contended++
				}
				mu.Lock(p)
				mu.Unlock()
				p.Advance(100 * Nanosecond)
			},
			partner: func(p *Proc) {
				mu.Lock(p)
				p.Advance(100 * Nanosecond)
				mu.Unlock()
				p.Advance(50 * Nanosecond)
			},
		},
		{
			name:    "idle Wait",
			measure: func(p *Proc) { p.Wait(p.Now()+Nanosecond, idle) },
			partner: func(p *Proc) { p.Advance(Nanosecond) },
		},
	} {
		e := NewEngine()
		done := false
		var allocs float64
		e.Go("partner", 0, func(p *Proc) {
			for !done {
				c.partner(p)
			}
		})
		e.Go("measure", 0, func(p *Proc) {
			allocs = testing.AllocsPerRun(1000, func() { c.measure(p) })
			done = true
		})
		e.Run()
		if allocs != 0 {
			t.Errorf("%s allocates %.2f times, want 0", c.name, allocs)
		}
	}
	// AllocsPerRun makes one warm-up call before its 1000.
	if contended != 1001 {
		t.Errorf("%d of 1001 measured Mutex.Lock calls were contended", contended)
	}
}
