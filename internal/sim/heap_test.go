package sim

import (
	"container/heap"
	"testing"
)

// refHeap is the reference model for procHeap: a container/heap adapter
// with its own copy of the (now, seq) order.
type refHeap []*Proc

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].now != h[j].now {
		return h[i].now < h[j].now
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*Proc)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return p
}

// replayHeapOps decodes ops one byte each and replays them on procHeap
// and on refHeap: an even byte pushes a new proc at now = b/2 ns with the
// next seq, as Go does; b&3 == 1 pops; b&3 == 3 replaces the top with a
// new proc at now = b/4 ns and the next seq, as Run re-queues a parked
// proc, which the reference does as a push and then a pop. The two must
// agree on the head after every op and on every pop and replace-top,
// including the final drain.
func replayHeapOps(t *testing.T, ops []byte) {
	t.Helper()
	var h procHeap
	var ref refHeap
	var seq uint64
	check := func(i int) {
		if len(h) != len(ref) {
			t.Fatalf("op %d: len %d, reference %d", i, len(h), len(ref))
		}
		if len(h) > 0 && h[0] != ref[0] {
			t.Fatalf("op %d: head (%v, %d), reference (%v, %d)",
				i, h[0].now, h[0].seq, ref[0].now, ref[0].seq)
		}
	}
	pop := func(i int) {
		got, want := h.pop(), heap.Pop(&ref).(*Proc)
		if got != want {
			t.Fatalf("op %d: pop (%v, %d), reference (%v, %d)",
				i, got.now, got.seq, want.now, want.seq)
		}
	}
	for i, b := range ops {
		switch {
		case b&1 == 0:
			seq++
			p := &Proc{now: Time(b>>1) * Nanosecond, seq: seq}
			h.push(p)
			heap.Push(&ref, p)
		case b&3 == 3:
			seq++
			p := &Proc{now: Time(b>>2) * Nanosecond, seq: seq}
			heap.Push(&ref, p)
			got, want := h.replaceTop(p), heap.Pop(&ref).(*Proc)
			if got != want {
				t.Fatalf("op %d: replace-top (%v, %d), reference (%v, %d)",
					i, got.now, got.seq, want.now, want.seq)
			}
		case len(ref) > 0:
			pop(i)
		}
		check(i)
	}
	for i := len(ops); len(ref) > 0; i++ {
		pop(i)
		check(i)
	}
}

// TestProcHeapMatchesReference compares the typed heap pop-for-pop with
// the container/heap reference over seeded random op sequences whose
// times come from a narrow range, so most pushes and replace-tops tie on
// now and the order rests on seq.
func TestProcHeapMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		r := NewRNG(seed)
		ops := make([]byte, 2000)
		for i := range ops {
			switch u := r.Float64(); {
			case u < 0.4:
				ops[i] = byte(r.Intn(8)) << 1
			case u < 0.7:
				ops[i] = byte(r.Intn(8))<<2 | 3
			default:
				ops[i] = 1
			}
		}
		replayHeapOps(t, ops)
	}
}

// FuzzProcHeapMatchesReference replays arbitrary op bytes on both heaps.
func FuzzProcHeapMatchesReference(f *testing.F) {
	equal := make([]byte, 64)
	for i := range equal {
		equal[i] = 0x10
		if i%5 == 4 {
			equal[i] = 1
		}
	}
	decreasing := make([]byte, 0, 192)
	for b := 0xFE; b >= 0; b -= 2 {
		decreasing = append(decreasing, byte(b))
	}
	for range 64 {
		decreasing = append(decreasing, 1)
	}
	f.Add(equal)
	f.Add(decreasing)
	f.Add([]byte{6, 2, 4, 1, 2, 2, 1, 1, 0, 1, 1, 1})
	f.Add([]byte{3, 8, 4, 3, 7, 11, 2, 15, 1, 0x13, 6, 3, 1, 1})
	f.Fuzz(replayHeapOps)
}
