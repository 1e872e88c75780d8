package sim

// Queue is a bounded FIFO used for cross-component communication. It is
// the only sanctioned way for two components to exchange data inside a
// machine: bounded capacity models real buffering and provides
// backpressure.
type Queue[T any] struct {
	buf  []T
	head int
	size int
	cap  int
}

// NewQueue returns a queue holding at most capacity items.
// Capacity must be positive.
func NewQueue[T any](capacity int) *Queue[T] {
	if capacity <= 0 {
		panic("sim: queue capacity must be positive")
	}
	return &Queue[T]{buf: make([]T, capacity), cap: capacity}
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.size }

// Cap returns the queue capacity.
func (q *Queue[T]) Cap() int { return q.cap }

// Empty reports whether no items are buffered.
func (q *Queue[T]) Empty() bool { return q.size == 0 }

// Full reports whether the queue cannot accept another item.
func (q *Queue[T]) Full() bool { return q.size == q.cap }

// Push appends an item, reporting false (and dropping nothing) if the
// queue is full. Callers treat a false return as backpressure and retry
// on a later cycle.
func (q *Queue[T]) Push(v T) bool {
	if q.size == q.cap {
		return false
	}
	// The capacity need not be a power of two, so the ring index wraps
	// by a compare rather than a mask (or a division).
	i := q.head + q.size
	if i >= q.cap {
		i -= q.cap
	}
	q.buf[i] = v
	q.size++
	return true
}

// Peek returns the oldest item without removing it. ok is false when
// the queue is empty.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	return q.buf[q.head], true
}

// Pop removes and returns the oldest item. ok is false when the queue
// is empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; q.head == q.cap {
		q.head = 0
	}
	q.size--
	return v, true
}
