package stream

import (
	"testing"

	"taskstream/internal/config"
	"taskstream/internal/mem"
	"taskstream/internal/noc"
	"taskstream/internal/proto"
	"taskstream/internal/sim"
)

func testCfg() config.Config { return config.Default8() }

// loopback is a test harness standing in for NoC+DRAM: it accepts
// injected requests and reflects responses back to the engine after a
// fixed delay. Forward messages are delivered to a sibling engine if
// present.
type loopback struct {
	delay    sim.Cycle
	pipe     *sim.Pipe[noc.Message]
	now      sim.Cycle
	engines  map[int]*Engine
	topo     proto.Topology
	rejected bool // when true, TryInject refuses everything
	sent     []noc.Message
}

func newLoopback(delay sim.Cycle, topo proto.Topology) *loopback {
	return &loopback{delay: delay, pipe: sim.NewPipe[noc.Message](0), engines: map[int]*Engine{}, topo: topo}
}

func (l *loopback) TryInject(msg noc.Message) bool {
	if l.rejected {
		return false
	}
	l.sent = append(l.sent, msg)
	switch msg.Kind {
	case noc.KindMemReq:
		resp := noc.Message{Kind: noc.KindMemResp, Dests: noc.DestMask(msg.Src), A: msg.A}
		l.pipe.SendAt(l.now+l.delay, resp)
	case noc.KindForward:
		l.pipe.SendAt(l.now+l.delay, msg)
	}
	return true
}

// tick advances one cycle: run each engine, deliver matured messages.
func (l *loopback) tick(e *Engine) {
	e.Tick(l.now)
	for {
		msg, ok := l.pipe.Recv(l.now)
		if !ok {
			break
		}
		if msg.Kind == noc.KindForward {
			// Map the destination node back to its lane index.
			node := destNode(msg.Dests)
			var dst *Engine
			for lane := 0; lane < l.topo.Lanes; lane++ {
				if l.topo.LaneNode(lane) == node {
					dst = l.engines[lane]
				}
			}
			dst.OnMessage(msg)
		} else {
			e.OnMessage(msg)
		}
	}
	l.now++
}

func destNode(mask uint64) int {
	n := 0
	for mask&1 == 0 {
		mask >>= 1
		n++
	}
	return n
}

func TestBuildSpansLinear(t *testing.T) {
	spans := BuildSpans(LinearAddrs(0x1000, 16), 64)
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Line != 0x1000 || spans[0].Elems != 8 {
		t.Fatalf("span0 = %+v", spans[0])
	}
	if spans[1].Line != 0x1040 || spans[1].Elems != 8 {
		t.Fatalf("span1 = %+v", spans[1])
	}
}

func TestBuildSpansUnalignedStart(t *testing.T) {
	// 4 elements starting mid-line: addresses 0x1030..0x1048 span two lines.
	spans := BuildSpans(LinearAddrs(0x1030, 4), 64)
	if len(spans) != 2 || spans[0].Elems != 2 || spans[1].Elems != 2 {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestBuildSpansGatherCoalescing(t *testing.T) {
	// Two consecutive same-line gathers coalesce; a revisit does not.
	addrs := []mem.Addr{0x1000, 0x1008, 0x2000, 0x1010}
	spans := BuildSpans(addrs, 64)
	if len(spans) != 3 {
		t.Fatalf("spans = %+v, want 3", spans)
	}
	if spans[0].Elems != 2 {
		t.Fatalf("first span should coalesce 2 elems: %+v", spans[0])
	}
}

func TestBuildGatherSpansNeedIdx(t *testing.T) {
	addrs := []mem.Addr{0x1000, 0x1008, 0x2000}
	spans := BuildGatherSpans(addrs, 64)
	if spans[0].NeedIdx != 2 || spans[1].NeedIdx != 3 {
		t.Fatalf("NeedIdx = %d,%d want 2,3", spans[0].NeedIdx, spans[1].NeedIdx)
	}
}

func TestAffine2DAddrs(t *testing.T) {
	// 2 rows of 3 elements, pitch 10 elements.
	a := Affine2DAddrs(0, 2, 3, 10)
	want := []mem.Addr{0, 8, 16, 80, 88, 96}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("addrs = %v, want %v", a, want)
		}
	}
}

func TestGatherAddrs(t *testing.T) {
	a := GatherAddrs(0x1000, []uint64{0, 7, 2})
	want := []mem.Addr{0x1000, 0x1038, 0x1010}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("addrs = %v, want %v", a, want)
		}
	}
}

func newTestEngine(lb *loopback, lane int) *Engine {
	cfg := testCfg()
	spad := mem.NewSpad(cfg.Spad)
	e := NewEngine(lane, cfg, lb.topo, lb, spad)
	lb.engines[lane] = e
	return e
}

func TestLinearDRAMRead(t *testing.T) {
	lb := newLoopback(20, proto.Topology{Lanes: 2, Channels: 2})
	e := newTestEngine(lb, 0)
	e.SetupRead(0, ReadSetup{Kind: SrcDRAM, N: 16, Addrs: LinearAddrs(0x1000, 16)})
	for i := 0; i < 100 && e.Avail(0) < 16; i++ {
		lb.tick(e)
	}
	if e.Avail(0) != 16 {
		t.Fatalf("avail = %d, want 16", e.Avail(0))
	}
	if e.DRAMLinesRequested != 2 {
		t.Fatalf("lines requested = %d, want 2", e.DRAMLinesRequested)
	}
	e.Consume(0, 16)
	if !e.Done() {
		t.Fatal("engine should be done after full consume")
	}
}

func TestReadLatencyRespected(t *testing.T) {
	lb := newLoopback(30, proto.Topology{Lanes: 1, Channels: 1})
	e := newTestEngine(lb, 0)
	e.SetupRead(0, ReadSetup{Kind: SrcDRAM, N: 8, Addrs: LinearAddrs(0x1000, 8)})
	var firstAvail sim.Cycle = -1
	for i := sim.Cycle(0); i < 100; i++ {
		lb.tick(e)
		if firstAvail < 0 && e.Avail(0) > 0 {
			firstAvail = i
		}
	}
	if firstAvail < 30 {
		t.Fatalf("data available at cycle %d, before the 30-cycle latency", firstAvail)
	}
}

func TestGatherGatedOnIndices(t *testing.T) {
	lb := newLoopback(10, proto.Topology{Lanes: 1, Channels: 1})
	e := newTestEngine(lb, 0)
	// Gather: value fetches must wait for the index stream.
	e.SetupRead(0, ReadSetup{
		Kind:     SrcDRAM,
		N:        4,
		Addrs:    []mem.Addr{0x8000, 0x9000, 0xa000, 0xb000},
		IdxAddrs: LinearAddrs(0x1000, 4),
	})
	// First injected request must be the index line, not a value line.
	lb.tick(e)
	if len(lb.sent) == 0 {
		t.Fatal("no request issued")
	}
	if first := lb.sent[0].B; first != 0x1000 {
		t.Fatalf("first request line %#x, want index line 0x1000", first)
	}
	// Values become available only after idx (10) + value (10) round trips.
	var availAt sim.Cycle = -1
	for i := sim.Cycle(1); i < 200; i++ {
		lb.tick(e)
		if availAt < 0 && e.Avail(0) == 4 {
			availAt = i
		}
	}
	if availAt < 20 {
		t.Fatalf("gather complete at %d, want ≥20 (two dependent round trips)", availAt)
	}
	e.Consume(0, 4)
	if !e.Done() {
		t.Fatal("should be done")
	}
}

func TestDRAMWriteLifecycle(t *testing.T) {
	lb := newLoopback(15, proto.Topology{Lanes: 1, Channels: 1})
	e := newTestEngine(lb, 0)
	e.SetupWrite(0, WriteSetup{Kind: DstDRAM, N: 16, Addrs: LinearAddrs(0x2000, 16)})
	if e.Done() {
		t.Fatal("not done before producing")
	}
	if !e.OutSpace(0, 16) {
		t.Fatal("write buffer should have space")
	}
	e.Produce(0, 16)
	for i := 0; i < 100 && !e.Done(); i++ {
		lb.tick(e)
	}
	if !e.Done() {
		t.Fatal("write never acked")
	}
	if e.DRAMLinesWritten != 2 {
		t.Fatalf("lines written = %d, want 2", e.DRAMLinesWritten)
	}
}

func TestPartialTrailingLineWrite(t *testing.T) {
	lb := newLoopback(5, proto.Topology{Lanes: 1, Channels: 1})
	e := newTestEngine(lb, 0)
	// 10 elements = one full line + 2-element partial line.
	e.SetupWrite(0, WriteSetup{Kind: DstDRAM, N: 10, Addrs: LinearAddrs(0x2000, 10)})
	e.Produce(0, 10)
	for i := 0; i < 100 && !e.Done(); i++ {
		lb.tick(e)
	}
	if !e.Done() || e.DRAMLinesWritten != 2 {
		t.Fatalf("done=%v lines=%d, want true,2", e.Done(), e.DRAMLinesWritten)
	}
}

func TestForwardBetweenEngines(t *testing.T) {
	lb := newLoopback(8, proto.Topology{Lanes: 2, Channels: 1})
	prod := newTestEngine(lb, 0)
	cons := newTestEngine(lb, 1)
	prod.SetupWrite(0, WriteSetup{Kind: DstForward, N: 12, ConsumerLane: 1, ConsumerPort: 2})
	cons.SetupRead(2, ReadSetup{Kind: SrcForward, N: 12})
	prod.Produce(0, 12)
	for i := 0; i < 100; i++ {
		lb.tick(prod)
		cons.Tick(lb.now)
		if cons.Avail(2) == 12 {
			break
		}
	}
	if cons.Avail(2) != 12 {
		t.Fatalf("consumer avail = %d, want 12", cons.Avail(2))
	}
	if !prod.Done() {
		t.Fatal("producer should be done after shipping")
	}
	cons.Consume(2, 12)
	if !cons.Done() {
		t.Fatal("consumer should be done")
	}
	if prod.FwdMsgsSent == 0 || cons.FwdElemsRecv != 12 {
		t.Fatalf("fwd stats: sent=%d recv=%d", prod.FwdMsgsSent, cons.FwdElemsRecv)
	}
}

func TestConstAlwaysAvailable(t *testing.T) {
	lb := newLoopback(1, proto.Topology{Lanes: 1, Channels: 1})
	e := newTestEngine(lb, 0)
	e.SetupRead(1, ReadSetup{Kind: SrcConst, N: 5})
	if e.Avail(1) != 5 {
		t.Fatalf("const avail = %d, want 5", e.Avail(1))
	}
	e.Consume(1, 5)
	if !e.Done() {
		t.Fatal("done after consuming const")
	}
}

func TestSpadReadWrite(t *testing.T) {
	lb := newLoopback(1, proto.Topology{Lanes: 1, Channels: 1})
	e := newTestEngine(lb, 0)
	e.SetupRead(0, ReadSetup{Kind: SrcSpad, N: 8, Addrs: LinearAddrs(0x100, 8)})
	e.SetupWrite(1, WriteSetup{Kind: DstSpad, N: 8, Addrs: LinearAddrs(0x300, 8)})
	e.Produce(1, 8)
	for i := 0; i < 100 && !(e.Avail(0) == 8 && e.Done() == false); i++ {
		lb.tick(e)
		e.spad.Tick(lb.now - 1)
	}
	// Drain fully.
	for i := 0; i < 100 && e.Avail(0) < 8; i++ {
		e.spad.Tick(lb.now)
		lb.tick(e)
	}
	if e.Avail(0) != 8 {
		t.Fatalf("spad read avail = %d, want 8", e.Avail(0))
	}
	e.Consume(0, 8)
	for i := 0; i < 100 && !e.Done(); i++ {
		e.spad.Tick(lb.now)
		lb.tick(e)
	}
	if !e.Done() {
		t.Fatal("spad write never acked")
	}
	if e.SpadAccesses != 16 {
		t.Fatalf("spad accesses = %d, want 16", e.SpadAccesses)
	}
}

func TestMulticastArrival(t *testing.T) {
	lb := newLoopback(1, proto.Topology{Lanes: 1, Channels: 1})
	e := newTestEngine(lb, 0)
	// Group fetch of 3 lines; this port's data starts 2 elements into
	// the first line and runs 20 elements.
	e.SetupRead(0, ReadSetup{Kind: SrcMulticast, N: 20, Group: 7, Lines: 3, HeadSkip: 2})
	deliver := func(seq int) {
		e.OnMessage(noc.Message{Kind: noc.KindMemResp, Mcast: true, A: 7, B: uint64(seq)})
	}
	// Landing-buffer semantics: availability tracks arrived-line count
	// (out-of-order arrivals are buffered and drained in stream order).
	deliver(1)
	if e.Avail(0) != 6 {
		t.Fatalf("avail after one line = %d, want 6 (8 - 2 headskip)", e.Avail(0))
	}
	deliver(1) // duplicate delivery must not double-count
	if e.Avail(0) != 6 {
		t.Fatalf("avail after duplicate = %d, want 6", e.Avail(0))
	}
	deliver(0) // two lines = 16 elems - 2 skip = 14
	if e.Avail(0) != 14 {
		t.Fatalf("avail = %d, want 14", e.Avail(0))
	}
	deliver(2) // all 3 lines: 24-2=22, capped at N=20
	if e.Avail(0) != 20 {
		t.Fatalf("avail = %d, want 20", e.Avail(0))
	}
	e.Consume(0, 20)
	if !e.Done() {
		t.Fatal("should be done")
	}
}

func TestOutSpaceBounded(t *testing.T) {
	lb := newLoopback(1000, proto.Topology{Lanes: 1, Channels: 1}) // acks never arrive in time
	e := newTestEngine(lb, 0)
	e.SetupWrite(0, WriteSetup{Kind: DstDRAM, N: 1000, Addrs: LinearAddrs(0x2000, 1000)})
	n := 0
	for e.OutSpace(0, 4) {
		e.Produce(0, 4)
		n += 4
		if n > 500 {
			t.Fatal("write buffer never fills")
		}
	}
	if n == 0 {
		t.Fatal("write buffer should accept some elements")
	}
}

func TestConsumePanicsWhenUnavailable(t *testing.T) {
	lb := newLoopback(1, proto.Topology{Lanes: 1, Channels: 1})
	e := newTestEngine(lb, 0)
	e.SetupRead(0, ReadSetup{Kind: SrcDRAM, N: 8, Addrs: LinearAddrs(0x1000, 8)})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic consuming unavailable elements")
		}
	}()
	e.Consume(0, 1)
}

func TestInjectBackpressureStallsIssue(t *testing.T) {
	lb := newLoopback(1, proto.Topology{Lanes: 1, Channels: 1})
	e := newTestEngine(lb, 0)
	lb.rejected = true
	e.SetupRead(0, ReadSetup{Kind: SrcDRAM, N: 8, Addrs: LinearAddrs(0x1000, 8)})
	for i := 0; i < 10; i++ {
		lb.tick(e)
	}
	if e.DRAMLinesRequested != 0 {
		t.Fatal("requests counted despite rejection")
	}
	lb.rejected = false
	for i := 0; i < 50 && e.Avail(0) < 8; i++ {
		lb.tick(e)
	}
	if e.Avail(0) != 8 {
		t.Fatalf("avail = %d after backpressure clears, want 8", e.Avail(0))
	}
}
