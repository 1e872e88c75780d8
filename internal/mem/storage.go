// Package mem models the accelerator's memory system in two decoupled
// halves:
//
//   - Storage is the functional half: a sparse, page-backed byte store
//     holding the actual data workloads compute on. Kernels read and
//     write it eagerly; results are therefore real, not synthetic. A
//     dense page table indexed by page number covers the low addresses
//     that Allocator hands out, so a word access costs a slice index
//     rather than a map lookup; pages past that range live in a map.
//   - DRAM is the timing half: multi-channel bandwidth/latency queues
//     that model when bytes move, independent of what they contain.
//
// The split follows the repository-wide simulation discipline (see
// DESIGN.md §3): functional effects are applied at task dispatch under
// the workloads' phase discipline, while cycle-level timing flows
// through request/response traffic.
package mem

import "encoding/binary"

// Addr is a byte address in the accelerator's flat physical space.
type Addr uint64

// ElemBytes is the fixed element width used throughout the machine:
// every stream element is one 64-bit word.
const ElemBytes = 8

const (
	pageShift = 12
	pageBytes = 1 << pageShift
	pageMask  = pageBytes - 1
)

// denseLimit bounds the page numbers Storage indexes densely: pages
// below it (the first 1 GiB of the address space, a table of at most
// 2 MiB) sit in a slice indexed by page number, and pages at or beyond
// it in a map.
const denseLimit = 1 << 18

// Storage is the functional backing store. Pages are allocated lazily
// on first write; untouched memory reads as zero. Reads never modify
// the store, so any number of readers may share it.
type Storage struct {
	dense []*[pageBytes]byte // indexed by page number, < denseLimit
	far   map[Addr]*[pageBytes]byte
}

// NewStorage returns an empty store.
func NewStorage() *Storage {
	return &Storage{far: make(map[Addr]*[pageBytes]byte)}
}

// page returns the page holding a, or nil if it was never written.
func (s *Storage) page(a Addr) *[pageBytes]byte {
	pn := a >> pageShift
	if pn < Addr(len(s.dense)) {
		return s.dense[pn]
	}
	if pn < denseLimit {
		return nil
	}
	return s.far[pn]
}

// pageForWrite returns the page holding a, allocating it (and growing
// the dense table to cover it, with one allocation) on first touch.
func (s *Storage) pageForWrite(a Addr) *[pageBytes]byte {
	pn := a >> pageShift
	if pn >= denseLimit {
		p := s.far[pn]
		if p == nil {
			p = new([pageBytes]byte)
			s.far[pn] = p
		}
		return p
	}
	if pn >= Addr(len(s.dense)) {
		n := max(2*len(s.dense), int(pn)+1)
		table := make([]*[pageBytes]byte, min(n, denseLimit))
		copy(table, s.dense)
		s.dense = table
	}
	p := s.dense[pn]
	if p == nil {
		p = new([pageBytes]byte)
		s.dense[pn] = p
	}
	return p
}

// Read8 returns the 64-bit word at a, which must be 8-byte aligned.
func (s *Storage) Read8(a Addr) uint64 {
	if a%ElemBytes != 0 {
		panic("mem: unaligned Read8")
	}
	p := s.page(a)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p[a&pageMask:])
}

// Write8 stores the 64-bit word v at a, which must be 8-byte aligned.
func (s *Storage) Write8(a Addr, v uint64) {
	if a%ElemBytes != 0 {
		panic("mem: unaligned Write8")
	}
	binary.LittleEndian.PutUint64(s.pageForWrite(a)[a&pageMask:], v)
}

// ReadElems reads n consecutive 64-bit words starting at a.
func (s *Storage) ReadElems(a Addr, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = s.Read8(a + Addr(i*ElemBytes))
	}
	return out
}

// WriteElems stores the words vs consecutively starting at a.
func (s *Storage) WriteElems(a Addr, vs []uint64) {
	for i, v := range vs {
		s.Write8(a+Addr(i*ElemBytes), v)
	}
}

// Allocator hands out non-overlapping address ranges. Workload builders
// use one Allocator per program so buffers never alias.
type Allocator struct {
	next Addr
}

// NewAllocator returns an allocator starting at a non-zero base so that
// address 0 stays invalid (useful for catching uninitialized
// descriptors).
func NewAllocator() *Allocator { return &Allocator{next: pageBytes} }

// Alloc reserves n bytes aligned to a 64-byte line and returns the base.
func (al *Allocator) Alloc(n int) Addr {
	const align = 64
	base := (al.next + align - 1) &^ Addr(align-1)
	al.next = base + Addr(n)
	return base
}

// AllocElems reserves room for n 64-bit elements.
func (al *Allocator) AllocElems(n int) Addr { return al.Alloc(n * ElemBytes) }
