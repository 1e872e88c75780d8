package sim

// Pipe models a fixed-latency, unbounded-in-flight delivery channel:
// items pushed at cycle c become visible to the consumer at cycle
// c+latency. DRAM and scratchpad responses, NoC link delivery, lane
// production delays and the coordinator's control network use it.
// Items are delivered in maturity-cycle order, and items that mature on
// the same cycle in send order, keeping runs deterministic.
//
// The backing store is a power-of-two ring kept sorted by maturity
// cycle. A send walks back from the tail only past items that mature
// strictly later, so equal cycles keep send order without a sequence
// number, and Recv and NextAt read the head. In every default-config
// suite run sends arrive in maturity order and the walk takes no
// steps, so both ends are O(1) there; a send that matures before
// in-flight items pays one slot move per item it passes. The ring is
// reused across the run, so a warmed pipe sends and receives without
// allocating.
type Pipe[T any] struct {
	latency Cycle
	ring    []pipeItem[T] // length zero or a power of two
	head    int
	n       int
}

type pipeItem[T any] struct {
	at Cycle
	v  T
}

// NewPipe returns a pipe with the given delivery latency in cycles.
// Latency may be zero (same-cycle visibility).
func NewPipe[T any](latency Cycle) *Pipe[T] {
	if latency < 0 {
		panic("sim: negative pipe latency")
	}
	return &Pipe[T]{latency: latency}
}

// Send schedules v for delivery at now+latency.
func (p *Pipe[T]) Send(now Cycle, v T) { p.SendAt(now+p.latency, v) }

// SendAt schedules v for delivery at the explicit cycle at, which must
// not be in the past relative to the caller's now.
func (p *Pipe[T]) SendAt(at Cycle, v T) {
	if p.n == len(p.ring) {
		p.grow()
	}
	mask := len(p.ring) - 1
	i := p.n
	for ; i > 0; i-- {
		prev := &p.ring[(p.head+i-1)&mask]
		if prev.at <= at {
			break
		}
		p.ring[(p.head+i)&mask] = *prev
	}
	p.ring[(p.head+i)&mask] = pipeItem[T]{at: at, v: v}
	p.n++
}

// grow doubles the ring (minimum 8), unwrapping the contents to start
// at slot 0.
func (p *Pipe[T]) grow() {
	n := 2 * len(p.ring)
	if n < 8 {
		n = 8
	}
	ring := make([]pipeItem[T], n)
	k := copy(ring, p.ring[p.head:])
	copy(ring[k:], p.ring[:p.head])
	p.ring, p.head = ring, 0
}

// Recv pops the oldest item whose delivery time has arrived.
func (p *Pipe[T]) Recv(now Cycle) (v T, ok bool) {
	if p.n == 0 || p.ring[p.head].at > now {
		return v, false
	}
	it := &p.ring[p.head]
	v = it.v
	*it = pipeItem[T]{} // release references held by pointer-ish payloads
	p.head = (p.head + 1) & (len(p.ring) - 1)
	p.n--
	return v, true
}

// NextAt returns the earliest delivery cycle among in-flight items, or
// Never when the pipe is empty — the pipe's event-horizon contribution
// for forecasting components.
func (p *Pipe[T]) NextAt() Cycle {
	if p.n == 0 {
		return Never
	}
	return p.ring[p.head].at
}

// Len returns the number of in-flight items.
func (p *Pipe[T]) Len() int { return p.n }

// Empty reports whether nothing is in flight.
func (p *Pipe[T]) Empty() bool { return p.n == 0 }
