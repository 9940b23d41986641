package sim

// Queue is a FIFO ring: Push appends at the tail, Pop removes the oldest
// entry and At(i) reads the i-th oldest (0 is the oldest) in place. The
// storage doubles when a push finds it full and never shrinks, so a queue
// that has reached its high-water mark pushes and pops without allocating.
// The zero value is an empty queue.
//
// It is the simulator's one FIFO: WPQ drains, XPBuffer write-backs, a
// thread's per-DIMM WPQ windows and outstanding loads, and a shard's
// admitted requests all live in one. A popped slot keeps its old value
// until a push overwrites it, which is harmless for those plain values.
type Queue[T any] struct {
	buf []T // ring storage; len is zero or a power of two
	// head and tail count pops and pushes; an entry's slot is its count
	// masked by len(buf)-1.
	head, tail uint
}

// Len returns the number of queued entries.
func (q *Queue[T]) Len() int { return int(q.tail - q.head) }

// Push appends v as the newest entry.
func (q *Queue[T]) Push(v T) {
	if q.tail-q.head == uint(len(q.buf)) {
		q.grow()
	}
	q.buf[q.tail&uint(len(q.buf)-1)] = v
	q.tail++
}

// Pop removes and returns the oldest entry. It panics on an empty queue.
func (q *Queue[T]) Pop() T {
	if q.head == q.tail {
		panic("sim: Pop of an empty Queue")
	}
	v := q.buf[q.head&uint(len(q.buf)-1)]
	q.head++
	return v
}

// At returns the i-th oldest entry without removing it. It panics unless
// 0 <= i < Len().
func (q *Queue[T]) At(i int) T {
	if uint(i) >= q.tail-q.head {
		panic("sim: Queue index out of range")
	}
	return q.buf[(q.head+uint(i))&uint(len(q.buf)-1)]
}

// Reset empties the queue, keeping its storage.
func (q *Queue[T]) Reset() { q.head, q.tail = 0, 0 }

// grow doubles the storage, to 8 entries at first. The ring is full, so
// every old slot is live; with a copy of the old storage in each half of
// the new, every entry already sits at its count masked by the new
// length, and head and tail stand.
func (q *Queue[T]) grow() {
	buf := make([]T, max(2*len(q.buf), 8))
	copy(buf, q.buf)
	copy(buf[len(q.buf):], q.buf)
	q.buf = buf
}
