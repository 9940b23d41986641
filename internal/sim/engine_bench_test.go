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

// TestHandoffZeroAlloc pins the contended switch at zero allocations: one
// proc measures its own Advance while a partner ticks in lock-step, so
// every measured Advance parks and resumes both procs. Spawning is what
// allocates — iter.Pull keeps each coroutine's state in heap-allocated
// closures — and that cost is paid once per proc in Go, not per switch.
func TestHandoffZeroAlloc(t *testing.T) {
	e := NewEngine()
	done := false
	var allocs float64
	e.Go("measure", 0, func(p *Proc) {
		allocs = testing.AllocsPerRun(1000, func() { p.Advance(Nanosecond) })
		done = true
	})
	e.Go("partner", 0, func(p *Proc) {
		for !done {
			p.Advance(Nanosecond)
		}
	})
	e.Run()
	if allocs != 0 {
		t.Errorf("contended Advance allocates %.2f times, want 0", allocs)
	}
}
