package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"taskstream/internal/config"
	"taskstream/internal/sim"
)

func TestStorageReadWrite(t *testing.T) {
	s := NewStorage()
	if got := s.Read8(0x1000); got != 0 {
		t.Fatalf("untouched memory = %#x, want 0", got)
	}
	s.Write8(0x1000, 0xdeadbeefcafe0123)
	if got := s.Read8(0x1000); got != 0xdeadbeefcafe0123 {
		t.Fatalf("readback = %#x", got)
	}
	// Neighbors untouched.
	if s.Read8(0x1008) != 0 || s.Read8(0x0ff8) != 0 {
		t.Fatal("write leaked into neighboring words")
	}
}

func TestStorageCrossesPages(t *testing.T) {
	s := NewStorage()
	base := Addr(4096 - 8) // last word of page 0
	s.WriteElems(base, []uint64{1, 2, 3})
	got := s.ReadElems(base, 3)
	for i, want := range []uint64{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("elem %d = %d, want %d", i, got[i], want)
		}
	}
}

func TestStorageUnalignedPanics(t *testing.T) {
	s := NewStorage()
	for _, a := range []Addr{3, pageBytes + 4, Addr(denseLimit)<<pageShift + 2} {
		for _, access := range []func(){func() { s.Read8(a) }, func() { s.Write8(a, 1) }} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("want panic on unaligned access at %#x", a)
					}
				}()
				access()
			}()
		}
	}
}

func TestStorageProperty(t *testing.T) {
	// Property: a write/readback pair holds for arbitrary aligned
	// addresses and values, independent of write order.
	f := func(words map[uint32]uint64) bool {
		s := NewStorage()
		for k, v := range words {
			s.Write8(Addr(k)*8, v)
		}
		for k, v := range words {
			if s.Read8(Addr(k)*8) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStorageMatchesMapModel runs random aligned Write8, Read8,
// WriteElems and ReadElems calls against a map of words. The
// addresses cluster on page boundaries, on both sides of the dense
// table's bound and far beyond it, so runs cross pages, cross from the
// dense table into the map, and grow the table repeatedly.
func TestStorageMatchesMapModel(t *testing.T) {
	bound := Addr(denseLimit) << pageShift
	bases := []Addr{pageBytes, 3 * pageBytes, 64 * pageBytes, 1 << 24,
		bound - pageBytes, bound, bound + 5*pageBytes, 1 << 40, 1<<63 - pageBytes}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStorage()
		model := map[Addr]uint64{}
		addr := func() Addr {
			// Within ±4 words of a page boundary near a base.
			b := bases[rng.Intn(len(bases))] + Addr(rng.Intn(4))*pageBytes
			return b + Addr(rng.Intn(9)-4)*ElemBytes
		}
		for op := 0; op < 4000; op++ {
			a := addr()
			switch rng.Intn(4) {
			case 0:
				v := rng.Uint64()
				s.Write8(a, v)
				model[a] = v
			case 1:
				if got := s.Read8(a); got != model[a] {
					t.Fatalf("seed %d op %d: Read8(%#x) = %#x, model %#x", seed, op, a, got, model[a])
				}
			case 2:
				vs := make([]uint64, 1+rng.Intn(12))
				for i := range vs {
					vs[i] = rng.Uint64()
					model[a+Addr(i*ElemBytes)] = vs[i]
				}
				s.WriteElems(a, vs)
			case 3:
				n := 1 + rng.Intn(12)
				got := s.ReadElems(a, n)
				for i, v := range got {
					if w := model[a+Addr(i*ElemBytes)]; v != w {
						t.Fatalf("seed %d op %d: ReadElems(%#x)[%d] = %#x, model %#x", seed, op, a, i, v, w)
					}
				}
			}
		}
		for a, v := range model {
			if got := s.Read8(a); got != v {
				t.Fatalf("seed %d: final Read8(%#x) = %#x, model %#x", seed, a, got, v)
			}
		}
	}
}

// TestStorageUntouchedReadsAllocateNothing pins the read side of the
// page table: a read of a page never written returns 0, below, inside
// and beyond the dense range, and neither allocates a page nor grows
// the table.
func TestStorageUntouchedReadsAllocateNothing(t *testing.T) {
	s := NewStorage()
	s.Write8(3*pageBytes, 7)
	s.Write8(Addr(denseLimit+2)<<pageShift, 9)
	dense, far := len(s.dense), len(s.far)
	for _, a := range []Addr{0, 2 * pageBytes, 3*pageBytes + 8, 100 * pageBytes,
		Addr(denseLimit-1) << pageShift, Addr(denseLimit) << pageShift, 1 << 50} {
		if got := s.Read8(a); got != 0 {
			t.Fatalf("untouched Read8(%#x) = %#x, want 0", a, got)
		}
		if allocs := testing.AllocsPerRun(10, func() { s.Read8(a) }); allocs != 0 {
			t.Fatalf("Read8(%#x) allocated %v times", a, allocs)
		}
	}
	if len(s.dense) != dense || len(s.far) != far {
		t.Fatalf("reads grew the store: dense %d → %d pages, far %d → %d", dense, len(s.dense), far, len(s.far))
	}
	for pn, p := range s.dense {
		if p != nil && pn != 3 {
			t.Fatalf("reads allocated dense page %d", pn)
		}
	}
}

func TestAllocatorNonOverlapping(t *testing.T) {
	al := NewAllocator()
	a := al.Alloc(100)
	b := al.Alloc(1)
	c := al.AllocElems(10)
	if a%64 != 0 || b%64 != 0 || c%64 != 0 {
		t.Fatal("allocations must be line aligned")
	}
	if b < a+100 {
		t.Fatalf("b=%#x overlaps a=[%#x,%#x)", b, a, a+100)
	}
	if c < b+1 {
		t.Fatalf("c=%#x overlaps b", c)
	}
	if a == 0 {
		t.Fatal("first allocation must not be address 0")
	}
}

func dramCfg() config.DRAM {
	return config.DRAM{Channels: 1, LatencyCycles: 10, BytesPerCycle: 16, LineBytes: 64, QueueDepth: 4}
}

func TestChannelLatencyAndBandwidth(t *testing.T) {
	ch := NewChannel(dramCfg())
	// 64B line at 16B/cycle = 4 cycles serialization; resp at issue+10+4.
	if !ch.Submit(Request{ID: 1, Line: 0}) {
		t.Fatal("submit failed")
	}
	var got []sim.Cycle
	for now := sim.Cycle(0); now < 40; now++ {
		ch.Tick(now)
		if r, ok := ch.PopResponse(now); ok {
			if r.ID != 1 {
				t.Fatalf("resp ID = %d", r.ID)
			}
			got = append(got, now)
		}
	}
	if len(got) != 1 || got[0] != 14 {
		t.Fatalf("response cycles = %v, want [14]", got)
	}
}

func TestChannelSerializesRequests(t *testing.T) {
	ch := NewChannel(dramCfg())
	for i := uint64(0); i < 3; i++ {
		if !ch.Submit(Request{ID: i, Line: Addr(i * 64)}) {
			t.Fatal("submit failed")
		}
	}
	var times []sim.Cycle
	for now := sim.Cycle(0); now < 60; now++ {
		ch.Tick(now)
		for {
			if _, ok := ch.PopResponse(now); !ok {
				break
			}
			times = append(times, now)
		}
	}
	// Issues at cycles 0,4,8 → responses at 14,18,22: bandwidth-limited
	// spacing of 4 cycles.
	want := []sim.Cycle{14, 18, 22}
	if len(times) != 3 {
		t.Fatalf("got %d responses, want 3", len(times))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("response times = %v, want %v", times, want)
		}
	}
	if !ch.Idle() {
		t.Fatal("channel should be idle after drain")
	}
	if ch.ReadLines != 3 || ch.WriteLines != 0 {
		t.Fatalf("stats: reads=%d writes=%d", ch.ReadLines, ch.WriteLines)
	}
}

func TestChannelBackpressure(t *testing.T) {
	ch := NewChannel(dramCfg())
	for i := uint64(0); i < 4; i++ {
		if !ch.Submit(Request{ID: i}) {
			t.Fatalf("submit %d should succeed (depth 4)", i)
		}
	}
	if ch.Submit(Request{ID: 99}) {
		t.Fatal("submit beyond queue depth should fail")
	}
	if ch.QueueSpace() != 0 {
		t.Fatalf("QueueSpace = %d, want 0", ch.QueueSpace())
	}
}

func TestChannelWriteCounted(t *testing.T) {
	ch := NewChannel(dramCfg())
	ch.Submit(Request{ID: 7, Line: 64, Write: true})
	for now := sim.Cycle(0); now < 20; now++ {
		ch.Tick(now)
		if r, ok := ch.PopResponse(now); ok && (!r.Write || r.Line != 64) {
			t.Fatalf("bad write response %+v", r)
		}
	}
	if ch.WriteLines != 1 {
		t.Fatalf("WriteLines = %d, want 1", ch.WriteLines)
	}
}

func TestLineAndChannelMapping(t *testing.T) {
	if LineOf(0x12345, 64) != 0x12340 {
		t.Fatalf("LineOf = %#x", LineOf(0x12345, 64))
	}
	// Interleave: consecutive lines hit consecutive channels.
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		c := ChannelOf(Addr(i*64), 64, 4)
		if seen[c] {
			t.Fatalf("channel %d repeated within one interleave period", c)
		}
		seen[c] = true
	}
	if ChannelOf(0, 64, 4) != ChannelOf(4*64, 64, 4) {
		t.Fatal("interleave should wrap with period channels*line")
	}
}

func TestSpadBankConflicts(t *testing.T) {
	s := NewSpad(config.Spad{Bytes: 1024, Banks: 2})
	// Four accesses all to bank 0 (addresses 0,16,32,48 with 2 banks →
	// element index even = bank 0).
	for i := uint64(0); i < 4; i++ {
		if !s.Submit(Request{ID: i, Line: Addr(i * 16)}) {
			t.Fatal("submit failed")
		}
	}
	var times []sim.Cycle
	for now := sim.Cycle(0); now < 20; now++ {
		s.Tick(now)
		for {
			if _, ok := s.PopResponse(now); !ok {
				break
			}
			times = append(times, now)
		}
	}
	// One per cycle from the same bank: responses at 2,3,4,5.
	want := []sim.Cycle{2, 3, 4, 5}
	if len(times) != 4 {
		t.Fatalf("got %d responses, want 4 (%v)", len(times), times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
	if !s.Idle() {
		t.Fatal("spad should be idle")
	}
}

func TestSpadParallelBanks(t *testing.T) {
	s := NewSpad(config.Spad{Bytes: 1024, Banks: 4})
	// One access per bank: all serviced in the same cycle.
	for i := uint64(0); i < 4; i++ {
		s.Submit(Request{ID: i, Line: Addr(i * 8)})
	}
	count := 0
	for now := sim.Cycle(0); now < 10; now++ {
		s.Tick(now)
		for {
			if r, ok := s.PopResponse(now); ok {
				if now != SpadLatency {
					t.Fatalf("response %d at cycle %d, want %d", r.ID, now, SpadLatency)
				}
				count++
			} else {
				break
			}
		}
	}
	if count != 4 {
		t.Fatalf("responses = %d, want 4", count)
	}
}
