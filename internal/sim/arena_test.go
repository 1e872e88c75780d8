package sim

import "testing"

type body struct {
	A, B int64
}

func TestSlabRecyclesZeroed(t *testing.T) {
	var s Slab[body]
	p := s.Get()
	p.A, p.B = 7, 9
	s.Put(p)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	q := s.Get()
	if q != p {
		t.Fatal("Get did not reuse the recycled object")
	}
	if q.A != 0 || q.B != 0 {
		t.Fatalf("recycled object not zeroed: %+v", *q)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after Get, want 0", s.Len())
	}
}

// BenchmarkSlabGetPut pins the steady-state cost of the free list.
func BenchmarkSlabGetPut(b *testing.B) {
	var s Slab[body]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := s.Get()
		p.A = int64(i)
		s.Put(p)
	}
}
