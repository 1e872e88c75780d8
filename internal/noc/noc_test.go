package noc

import (
	"testing"
	"testing/quick"

	"taskstream/internal/config"
	"taskstream/internal/sim"
)

func cfg() config.NoC {
	return config.NoC{FlitBytes: 16, LinkLatency: 1, VCDepth: 8}
}

// drain runs the mesh until idle or maxCycles, collecting deliveries
// per node.
func drain(t *testing.T, m *Mesh, maxCycles int) map[int][]Message {
	t.Helper()
	got := map[int][]Message{}
	for now := sim.Cycle(0); now < sim.Cycle(maxCycles); now++ {
		m.Tick(now)
		for n := 0; n < m.Nodes(); n++ {
			for {
				msg, ok := m.Pop(n)
				if !ok {
					break
				}
				got[n] = append(got[n], msg)
			}
		}
		if m.Idle() {
			return got
		}
	}
	t.Fatalf("mesh did not drain in %d cycles", maxCycles)
	return nil
}

func TestUnicastDelivery(t *testing.T) {
	m := NewMesh(cfg(), 9) // 3x3
	msg := Message{Kind: KindMemReq, Src: 0, Dests: DestMask(8), Bytes: 8, A: 42}
	if !m.TryInject(msg) {
		t.Fatal("inject failed")
	}
	got := drain(t, m, 100)
	if len(got[8]) != 1 || got[8][0].A != 42 {
		t.Fatalf("node 8 got %v", got[8])
	}
	for n := 0; n < 8; n++ {
		if len(got[n]) != 0 {
			t.Fatalf("node %d spuriously received %v", n, got[n])
		}
	}
}

func TestSelfDelivery(t *testing.T) {
	m := NewMesh(cfg(), 4)
	m.TryInject(Message{Src: 2, Dests: DestMask(2), Bytes: 8, A: 7})
	got := drain(t, m, 50)
	if len(got[2]) != 1 || got[2][0].A != 7 {
		t.Fatalf("self delivery failed: %v", got[2])
	}
}

func TestUnicastLatencyScalesWithHops(t *testing.T) {
	// On a 4x4 mesh, node 0 → node 3 is 3 hops east; node 0 → 15 is 6
	// hops. Measure delivery cycles.
	deliverAt := func(dest int) sim.Cycle {
		m := NewMesh(cfg(), 16)
		m.TryInject(Message{Src: 0, Dests: DestMask(dest), Bytes: 8, A: 1})
		for now := sim.Cycle(0); now < 100; now++ {
			m.Tick(now)
			if _, ok := m.Pop(dest); ok {
				return now
			}
		}
		t.Fatalf("no delivery to %d", dest)
		return 0
	}
	near := deliverAt(1)
	far := deliverAt(15)
	if far <= near {
		t.Fatalf("far delivery (%d) should take longer than near (%d)", far, near)
	}
	// Each hop costs serialization (1 flit = 1 cycle here) + link
	// latency 1: expect roughly 2 cycles/hop.
	if far-near < 8 {
		t.Fatalf("6 hops vs 1 hop should differ by ≥8 cycles, got %d vs %d", far, near)
	}
}

func TestMulticastDeliversToAllAndCountsReplicas(t *testing.T) {
	m := NewMesh(cfg(), 16)
	dests := DestMask(3) | DestMask(12) | DestMask(15)
	m.TryInject(Message{Kind: KindMemResp, Src: 0, Dests: dests, Bytes: 64, A: 9})
	got := drain(t, m, 200)
	for _, d := range []int{3, 12, 15} {
		if len(got[d]) != 1 || got[d][0].A != 9 {
			t.Fatalf("dest %d got %v", d, got[d])
		}
	}
	if m.Replicas == 0 {
		t.Fatal("multicast should record replications")
	}
}

func TestMulticastCheaperThanUnicasts(t *testing.T) {
	// Flit-cycles for one multicast to k dests must be below k unicasts:
	// the tree shares the common prefix of the routes.
	dests := []int{12, 13, 14, 15}
	mc := NewMesh(cfg(), 16)
	mask := uint64(0)
	for _, d := range dests {
		mask |= DestMask(d)
	}
	mc.TryInject(Message{Src: 0, Dests: mask, Bytes: 64, A: 1})
	drain(t, mc, 300)

	uc := NewMesh(cfg(), 16)
	for i, d := range dests {
		uc.TryInject(Message{Src: 0, Dests: DestMask(d), Bytes: 64, A: uint64(i)})
	}
	drain(t, uc, 300)

	if mc.FlitCycles >= uc.FlitCycles {
		t.Fatalf("multicast flit-cycles %d should be < unicast %d", mc.FlitCycles, uc.FlitCycles)
	}
}

func TestManyMessagesAllDelivered(t *testing.T) {
	m := NewMesh(cfg(), 12)
	const per = 20
	for src := 0; src < 12; src++ {
		for i := 0; i < per; i++ {
			dst := (src + i + 1) % 12
			msg := Message{Src: src, Dests: DestMask(dst), Bytes: 32, A: uint64(src*1000 + i)}
			for !m.TryInject(msg) {
				m.Tick(0) // make room under backpressure
				for n := 0; n < 12; n++ {
					for {
						if _, ok := m.Pop(n); !ok {
							break
						}
					}
				}
			}
		}
	}
	got := drain(t, m, 20000)
	total := 0
	for _, msgs := range got {
		total += len(msgs)
	}
	// Deliveries popped during the backpressure loop above are lost to
	// the count, so count only a lower bound... instead re-check via
	// stats: every sent message must have been delivered (mesh idle).
	if !m.Idle() {
		t.Fatal("mesh not idle after drain")
	}
	if int64(total) > m.MsgsSent {
		t.Fatalf("delivered %d > sent %d", total, m.MsgsSent)
	}
}

func TestInjectBackpressure(t *testing.T) {
	m := NewMesh(cfg(), 4)
	n := 0
	for m.TryInject(Message{Src: 0, Dests: DestMask(3), Bytes: 64, A: uint64(n)}) {
		n++
		if n > 1000 {
			t.Fatal("injection never backpressures")
		}
	}
	if n == 0 {
		t.Fatal("first injection should succeed")
	}
}

func TestInjectPanicsOnBadDests(t *testing.T) {
	m := NewMesh(cfg(), 4)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for empty dest set")
		}
	}()
	m.TryInject(Message{Src: 0, Dests: 0})
}

func TestInjectPanicsOnOutOfRangeDest(t *testing.T) {
	m := NewMesh(cfg(), 4)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-range dest")
		}
	}()
	m.TryInject(Message{Src: 0, Dests: DestMask(7)})
}

func TestRaggedMeshNodesReachable(t *testing.T) {
	// 7 nodes on a 3-wide grid leaves a ragged last row; every pair
	// must still communicate.
	m := NewMesh(cfg(), 7)
	id := uint64(0)
	for s := 0; s < 7; s++ {
		for d := 0; d < 7; d++ {
			for !m.TryInject(Message{Src: s, Dests: DestMask(d), Bytes: 8, A: id}) {
				m.Tick(0)
				for n := 0; n < 7; n++ {
					for {
						if _, ok := m.Pop(n); !ok {
							break
						}
					}
				}
			}
			id++
		}
	}
	drain(t, m, 10000)
	if !m.Idle() {
		t.Fatal("ragged mesh failed to drain")
	}
}

func TestBigMessageSerialization(t *testing.T) {
	// A 64B payload (+8 header) at 16B/flit = 5 flit-cycles per hop; a
	// 1-hop transfer must take ≥5 cycles longer than an 8B one.
	timeFor := func(bytes int) sim.Cycle {
		m := NewMesh(cfg(), 4)
		m.TryInject(Message{Src: 0, Dests: DestMask(1), Bytes: bytes, A: 1})
		for now := sim.Cycle(0); now < 100; now++ {
			m.Tick(now)
			if _, ok := m.Pop(1); ok {
				return now
			}
		}
		t.Fatal("no delivery")
		return 0
	}
	small, big := timeFor(8), timeFor(64)
	if big-small < 3 {
		t.Fatalf("big message should serialize longer: small=%d big=%d", small, big)
	}
}

func TestPropertyAllDestinationsCovered(t *testing.T) {
	// Property: for an arbitrary destination set on an arbitrary mesh
	// size, one multicast reaches exactly the requested destinations.
	f := func(rawNodes uint8, rawMask uint64, rawSrc uint8) bool {
		nodes := int(rawNodes%16) + 2 // 2..17
		mask := rawMask & ((1 << uint(nodes)) - 1)
		if mask == 0 {
			mask = 1
		}
		src := int(rawSrc) % nodes
		m := NewMesh(cfg(), nodes)
		if !m.TryInject(Message{Src: src, Dests: mask, Bytes: 16, A: 5}) {
			return false
		}
		seen := uint64(0)
		for now := sim.Cycle(0); now < 2000; now++ {
			m.Tick(now)
			for n := 0; n < nodes; n++ {
				for {
					msg, ok := m.Pop(n)
					if !ok {
						break
					}
					if msg.A != 5 || seen&DestMask(n) != 0 {
						return false // duplicate or foreign delivery
					}
					seen |= DestMask(n)
				}
			}
			if m.Idle() {
				break
			}
		}
		return seen == mask && m.Idle()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// residents recounts every buffered message directly from the queues,
// to pin the incremental counters to ground truth.
func residents(m *Mesh) (inject, link, eject int) {
	for n := 0; n < m.nodes; n++ {
		inject += m.inject[n].Len()
		eject += m.eject[n].Len()
	}
	for _, l := range m.allLinks {
		link += l.q.Len() + l.inflight.Len()
		if l.hasBlocked {
			link++
		}
	}
	return
}

// checkResidents fails t unless the mesh's occupancy counters equal a
// recount of its queues, and its bitsets agree with the queues: a node
// is ready exactly where an in-link holds a blocked head or a matured
// arrival, injecting exactly where its injection queue is non-empty,
// and a link is queued exactly where its transmit queue is non-empty.
func checkResidents(t *testing.T, m *Mesh, now sim.Cycle) {
	t.Helper()
	inj, link, ej := residents(m)
	if m.linkN != link || m.ejectN != ej {
		t.Fatalf("cycle %d: counters (link=%d eject=%d) != recount (%d %d)",
			now, m.linkN, m.ejectN, link, ej)
	}
	if m.Idle() != (inj == 0 && link == 0 && ej == 0) {
		t.Fatalf("cycle %d: Idle()=%v disagrees with recount (%d %d %d)",
			now, m.Idle(), inj, link, ej)
	}
	var readyNodes, injectNodes uint64
	for n := 0; n < m.nodes; n++ {
		var ready uint8
		for s, l := range m.inLinks[n] {
			if l.hasBlocked || l.matured > 0 {
				ready |= 1 << uint(s)
			}
			if l.matured < 0 || l.matured > l.inflight.Len() {
				t.Fatalf("cycle %d: link %d has %d matured of %d in flight",
					now, l.idx, l.matured, l.inflight.Len())
			}
		}
		if m.ready[n] != ready {
			t.Fatalf("cycle %d: node %d ready bits %04b, queues say %04b", now, n, m.ready[n], ready)
		}
		if ready != 0 {
			readyNodes |= DestMask(n)
		}
		if !m.inject[n].Empty() {
			injectNodes |= DestMask(n)
		}
	}
	if m.readyNodes != readyNodes || m.injectNodes != injectNodes {
		t.Fatalf("cycle %d: node sets ready=%#x inject=%#x, queues say %#x %#x",
			now, m.readyNodes, m.injectNodes, readyNodes, injectNodes)
	}
	unmatured := 0
	for i, l := range m.allLinks {
		if queued := m.queued[i>>6]&(1<<uint(i&63)) != 0; queued == l.q.Empty() {
			t.Fatalf("cycle %d: link %d queued bit %v with %d queued", now, i, queued, l.q.Len())
		}
		unmatured += l.inflight.Len() - l.matured
	}
	if unmatured != m.arrivals.Len() {
		t.Fatalf("cycle %d: %d unmatured messages in flight, %d pending arrivals", now, unmatured, m.arrivals.Len())
	}
}

// TestOccupancyCountersMatchQueues pins the O(1) occupancy counters
// (which gate the empty-Tick early return, NextEvent, and Idle) and
// the ready, injection and queued bitsets (which choose what Tick and
// NextEvent visit) to a direct recount of every queue at every cycle
// of a contended multicast-heavy run. A drifting counter or bit would
// make Idle/NextEvent lie, or Tick skip work, and silently break
// fast-forwarding.
func TestOccupancyCountersMatchQueues(t *testing.T) {
	m := NewMesh(cfg(), 16)
	sent := 0
	for now := sim.Cycle(0); now < 400; now++ {
		// Mixed unicast + multicast injections keep links, blocked
		// heads, and ejection queues all populated at once.
		if now < 120 {
			for src := 0; src < 16; src++ {
				msg := Message{Kind: KindMemReq, Src: src, Bytes: 48,
					Dests: DestMask((src + 1 + sent) % 16)}
				if src%5 == 0 {
					msg.Dests = DestMask(0) | DestMask(5) | DestMask(10) | DestMask(15)
				}
				if m.TryInject(msg) {
					sent++
				}
			}
		}
		checkResidents(t, m, now)
		m.Tick(now)
		checkResidents(t, m, now)
		// Pop only some nodes, so ejection queues back up.
		for n := 0; n < 16; n += 2 {
			for {
				if _, ok := m.Pop(n); !ok {
					break
				}
			}
			checkResidents(t, m, now)
		}
	}
	if sent == 0 {
		t.Fatal("no messages injected")
	}
	// Drain completely: counters must reach exactly zero.
	for now := sim.Cycle(400); !m.Idle(); now++ {
		if now > 5000 {
			t.Fatal("mesh did not drain")
		}
		m.Tick(now)
		for n := 0; n < 16; n++ {
			for {
				if _, ok := m.Pop(n); !ok {
					break
				}
			}
		}
		checkResidents(t, m, now)
	}
	checkResidents(t, m, 5001)
}
