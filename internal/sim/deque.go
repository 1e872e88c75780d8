package sim

// Deque is an unbounded FIFO backed by a growable ring buffer. Unlike
// Queue it has no capacity bound (and therefore no backpressure); it
// exists for structures the model declares unbounded — NoC ejection
// queues — where the previous append/shift-slice representation leaked
// capacity at the head and reallocated under steady-state traffic. The
// ring reuses its storage, so a warmed deque pushes and pops without
// allocating. Its length is zero or a power of two, so indices wrap by
// a mask.
type Deque[T any] struct {
	buf  []T
	head int
	size int
}

// Len returns the number of buffered items.
func (d *Deque[T]) Len() int { return d.size }

// Empty reports whether no items are buffered.
func (d *Deque[T]) Empty() bool { return d.size == 0 }

// Push appends an item, growing the ring if needed.
func (d *Deque[T]) Push(v T) {
	if d.size == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.size)&(len(d.buf)-1)] = v
	d.size++
}

// Pop removes and returns the oldest item. ok is false when empty.
func (d *Deque[T]) Pop() (v T, ok bool) {
	if d.size == 0 {
		return v, false
	}
	v = d.buf[d.head]
	var zero T
	d.buf[d.head] = zero
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.size--
	return v, true
}

// Peek returns the oldest item without removing it. ok is false when
// empty.
func (d *Deque[T]) Peek() (v T, ok bool) {
	if d.size == 0 {
		return v, false
	}
	return d.buf[d.head], true
}

// grow doubles the ring (minimum 8), unwrapping the contents.
func (d *Deque[T]) grow() {
	n := len(d.buf) * 2
	if n < 8 {
		n = 8
	}
	buf := make([]T, n)
	k := copy(buf, d.buf[d.head:])
	copy(buf[k:], d.buf[:d.head])
	d.buf = buf
	d.head = 0
}
