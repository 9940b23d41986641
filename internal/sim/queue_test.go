package sim

import "testing"

// replayQueueOps decodes ops one byte each and replays them on a Queue and
// on a plain slice: the low two bits pick push (0 or 1, pushing the next
// counter value), pop (2), or, for 3, Reset when the byte's high bit is set
// and otherwise At(i) with i the byte's upper bits modulo the length. The
// two must agree on every popped and read value and on Len after every op,
// and every queued entry must read back in order at the end.
func replayQueueOps(t *testing.T, ops []byte) {
	t.Helper()
	var q Queue[int]
	var ref []int
	next := 0
	for i, b := range ops {
		switch b & 3 {
		case 0, 1:
			next++
			q.Push(next)
			ref = append(ref, next)
		case 2:
			if len(ref) == 0 {
				continue
			}
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("op %d: Pop = %d, reference %d", i, got, ref[0])
			}
			ref = ref[1:]
		case 3:
			if b&0x80 != 0 {
				q.Reset()
				ref = ref[:0]
			} else if len(ref) > 0 {
				j := int(b>>2) % len(ref)
				if got := q.At(j); got != ref[j] {
					t.Fatalf("op %d: At(%d) = %d, reference %d", i, j, got, ref[j])
				}
			}
		}
		if q.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, reference %d", i, q.Len(), len(ref))
		}
	}
	for j, want := range ref {
		if got := q.At(j); got != want {
			t.Fatalf("final At(%d) = %d, reference %d", j, got, want)
		}
	}
}

// TestQueueMatchesReference runs seeded random op sequences whose push
// share rises with the seed, so the ring both wraps at a steady depth and
// grows through several doublings with its head mid-buffer.
func TestQueueMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := NewRNG(seed)
		push := 0.45 + 0.01*float64(seed%20)
		ops := make([]byte, 3000)
		for i := range ops {
			switch {
			case r.Bool(push):
				ops[i] = 0
			case r.Bool(0.8):
				ops[i] = 2
			case r.Bool(0.99):
				ops[i] = byte(r.Intn(32))<<2 | 3
			default:
				ops[i] = 0x83
			}
		}
		replayQueueOps(t, ops)
	}
}

// FuzzQueueMatchesReference replays arbitrary op bytes on both queues.
func FuzzQueueMatchesReference(f *testing.F) {
	// Fill past two doublings, then alternate pops and pushes so the head
	// walks around the ring, reading entries as it goes.
	wrap := make([]byte, 0, 256)
	for range 20 {
		wrap = append(wrap, 0)
	}
	for i := range 100 {
		wrap = append(wrap, 2, 0, byte(i)<<2|3)
	}
	f.Add(wrap)
	// Grow while the head sits mid-buffer, then reset and reuse.
	f.Add([]byte{0, 0, 0, 0, 0, 2, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x17, 0x83, 0, 2, 0x03})
	f.Add([]byte{2, 3, 0x83, 0, 3, 2, 2})
	f.Fuzz(replayQueueOps)
}

// Once the ring has grown to its high-water mark, steady-state pushes and
// pops allocate nothing.
func TestQueueZeroAlloc(t *testing.T) {
	var q Queue[Time]
	for i := range 100 {
		q.Push(Time(i))
	}
	for q.Len() > 50 {
		q.Pop()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := range 50 {
			q.Push(Time(i))
		}
		for range 50 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.2f times per run, want 0", allocs)
	}
}
