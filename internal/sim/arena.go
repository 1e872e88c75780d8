package sim

// This file provides the hot-path allocation machinery (DESIGN.md §16):
// LIFO free lists ("slabs") for the message structs that dominate the
// simulator's heap profile.
//
// The kernel's own containers (Pipe, Queue, Deque) are already
// allocation-free in steady state — they recycle ring slots in place —
// so the slabs exist for the protocol bodies that cross
// component boundaries inside noc.Message's interface field, where each
// send would otherwise box a fresh heap object.

// Slab is a LIFO free list of *T for single-goroutine use. Get returns
// a zeroed object (recycled when possible, freshly allocated
// otherwise); Put recycles one. The zero value is ready to use.
type Slab[T any] struct {
	free []*T
}

// Get returns a zeroed *T.
func (s *Slab[T]) Get() *T {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return p
	}
	return new(T)
}

// Put zeroes p and pushes it onto the free list. p must not be used
// after Put.
func (s *Slab[T]) Put(p *T) {
	var zero T
	*p = zero
	s.free = append(s.free, p)
}

// Len returns the free-list depth (tests pin recycling with it).
func (s *Slab[T]) Len() int { return len(s.free) }
