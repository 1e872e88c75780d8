package stream

import (
	"testing"

	"taskstream/internal/noc"
	"taskstream/internal/proto"
)

func TestSetupAheadAndPromote(t *testing.T) {
	lb := newLoopback(10, proto.Topology{Lanes: 1, Channels: 1})
	e := newTestEngine(lb, 0)
	// Current task on port 0.
	e.SetupRead(0, ReadSetup{Kind: SrcDRAM, N: 8, Addrs: LinearAddrs(0x1000, 8)})
	// Prefetch the next task's port 0 while current runs.
	setups := make([]ReadSetup, 4)
	setups[0] = ReadSetup{Kind: SrcDRAM, N: 8, Addrs: LinearAddrs(0x2000, 8)}
	e.SetupAhead(setups)
	if !e.HasAhead() {
		t.Fatal("prefetch must be armed")
	}
	// Run until both streams' data arrived.
	for i := 0; i < 100; i++ {
		lb.tick(e)
	}
	if e.Avail(0) != 8 {
		t.Fatalf("current avail = %d, want 8", e.Avail(0))
	}
	e.Consume(0, 8)
	// Promote: the prefetched context becomes current with its data
	// already arrived — zero startup latency.
	e.Promote()
	if e.HasAhead() {
		t.Fatal("prefetch must be consumed by Promote")
	}
	if e.Avail(0) != 8 {
		t.Fatalf("promoted avail = %d, want 8 (prefetched data lost)", e.Avail(0))
	}
	e.Consume(0, 8)
	if !e.Done() {
		t.Fatal("engine should be done")
	}
}

func TestPrefetchUsesLeftoverBudgetOnly(t *testing.T) {
	lb := newLoopback(1000, proto.Topology{Lanes: 1, Channels: 1}) // responses never return
	e := newTestEngine(lb, 0)
	// Current task wants many lines; it must win the request budget.
	e.SetupRead(0, ReadSetup{Kind: SrcDRAM, N: 512, Addrs: LinearAddrs(0x1000, 512)})
	setups := make([]ReadSetup, 4)
	setups[0] = ReadSetup{Kind: SrcDRAM, N: 512, Addrs: LinearAddrs(0x8000, 512)}
	e.SetupAhead(setups)
	lb.tick(e)
	// All first-cycle requests must target the current stream.
	for _, msg := range lb.sent {
		body := msg.Body.(*proto.MemReqBody)
		if body.Line >= 0x8000 {
			t.Fatalf("prefetch request issued ahead of current task: %#x", body.Line)
		}
	}
	if len(lb.sent) == 0 {
		t.Fatal("no requests issued")
	}
}

func TestPrefetchNonPrefetchableKindsDeferred(t *testing.T) {
	lb := newLoopback(5, proto.Topology{Lanes: 2, Channels: 1})
	e := newTestEngine(lb, 0)
	setups := make([]ReadSetup, 4)
	setups[0] = ReadSetup{Kind: SrcForward, N: 4}
	setups[1] = ReadSetup{Kind: SrcConst, N: 1}
	e.SetupAhead(setups)
	e.Promote()
	// Forward/const ports are programmed at Promote time.
	if e.Avail(1) != 1 {
		t.Fatalf("const port avail = %d, want 1", e.Avail(1))
	}
	e.OnMessage(mkForward(2, 0, 4))
	if e.Avail(0) != 4 {
		t.Fatalf("forward port avail = %d, want 4", e.Avail(0))
	}
}

func TestPromoteWithoutAheadPanics(t *testing.T) {
	lb := newLoopback(1, proto.Topology{Lanes: 1, Channels: 1})
	e := newTestEngine(lb, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Promote without SetupAhead must panic")
		}
	}()
	e.Promote()
}

func TestSetupAheadWrongLengthPanics(t *testing.T) {
	lb := newLoopback(1, proto.Topology{Lanes: 1, Channels: 1})
	e := newTestEngine(lb, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("SetupAhead with wrong port count must panic")
		}
	}()
	e.SetupAhead([]ReadSetup{{}})
}

func TestCtxIDsRecycleAcrossManyTasks(t *testing.T) {
	// Run far more tasks than the 64-entry context-id space: retired
	// contexts must free their ids.
	lb := newLoopback(3, proto.Topology{Lanes: 1, Channels: 1})
	e := newTestEngine(lb, 0)
	for task := 0; task < 300; task++ {
		e.SetupRead(0, ReadSetup{Kind: SrcDRAM, N: 8, Addrs: LinearAddrs(0x1000, 8)})
		e.SetupWrite(0, WriteSetup{Kind: DstDiscard, N: 0})
		for i := 0; i < 30 && e.Avail(0) < 8; i++ {
			lb.tick(e)
		}
		if e.Avail(0) != 8 {
			t.Fatalf("task %d never received data", task)
		}
		e.Consume(0, 8)
		if !e.Done() {
			t.Fatalf("task %d not done", task)
		}
	}
}

func TestEmptyStreamRetiresImmediately(t *testing.T) {
	// Zero-length DRAM streams (e.g. BFS leaves) must not leak
	// context-routing entries.
	lb := newLoopback(1, proto.Topology{Lanes: 1, Channels: 1})
	e := newTestEngine(lb, 0)
	for i := 0; i < 200; i++ {
		e.SetupRead(0, ReadSetup{Kind: SrcDRAM, N: 0})
	}
	if len(e.ctxByID) != 0 {
		t.Fatalf("%d contexts leaked for empty streams", len(e.ctxByID))
	}
}

// mkForward builds a forward-delivery message for tests.
func mkForward(srcNode, port, count int) noc.Message {
	return noc.Message{
		Kind: noc.KindForward,
		Src:  srcNode,
		Body: &proto.ForwardBody{Port: port, Count: count},
	}
}
