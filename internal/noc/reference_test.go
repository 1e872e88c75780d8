package noc

import (
	"math/rand"
	"testing"

	"taskstream/internal/config"
	"taskstream/internal/obs"
	"taskstream/internal/sim"
)

// The reference mesh: Tick, route and NextEvent as they were before
// routing by masks and arrivals by event. Every cycle scans every
// in-link's own arrival pipe, every injection port and every link
// queue, and route walks the destination set bit by bit through
// routeDir. It shares only the geometry (neighbor, routeDir,
// serCycles) with Mesh. The differential test below drives both with
// the same traffic and requires identical behaviour at every cycle.

type refLink struct {
	q          *sim.Queue[Message]
	busyUntil  sim.Cycle
	inflight   *sim.Pipe[Message]
	blocked    Message
	hasBlocked bool
	idx        int32
}

type refMesh struct {
	geo      *Mesh // geometry and serialization only
	out      [][numDirs]*refLink
	inLinks  [][]*refLink
	allLinks []*refLink
	inject   []*sim.Queue[Message]
	eject    []sim.Deque[Message]
	injectN  int
	linkN    int
	ejectN   int

	MsgsSent   int64
	FlitCycles int64
	Replicas   int64

	obs *obs.Sink
}

func newRefMesh(cfg config.NoC, nodes int) *refMesh {
	m := &refMesh{geo: NewMesh(cfg, nodes)}
	m.out = make([][numDirs]*refLink, nodes)
	m.inject = make([]*sim.Queue[Message], nodes)
	m.eject = make([]sim.Deque[Message], nodes)
	for n := 0; n < nodes; n++ {
		for d := 0; d < numDirs; d++ {
			if m.geo.neighbor(n, d) >= 0 {
				m.out[n][d] = &refLink{
					q:        sim.NewQueue[Message](cfg.VCDepth),
					inflight: sim.NewPipe[Message](sim.Cycle(cfg.LinkLatency)),
				}
			}
		}
		m.inject[n] = sim.NewQueue[Message](cfg.VCDepth)
	}
	m.inLinks = make([][]*refLink, nodes)
	for n := 0; n < nodes; n++ {
		for d := 0; d < numDirs; d++ {
			if nb := m.geo.neighbor(n, d); nb >= 0 {
				m.inLinks[n] = append(m.inLinks[n], m.out[nb][opposite(d)])
			}
		}
	}
	for n := 0; n < nodes; n++ {
		for d := 0; d < numDirs; d++ {
			if l := m.out[n][d]; l != nil {
				l.idx = int32(len(m.allLinks))
				m.allLinks = append(m.allLinks, l)
			}
		}
	}
	return m
}

func (m *refMesh) TryInject(msg Message) bool {
	if !m.inject[msg.Src].Push(msg) {
		return false
	}
	m.injectN++
	m.MsgsSent++
	return true
}

func (m *refMesh) Pop(n int) (Message, bool) {
	msg, ok := m.eject[n].Pop()
	if ok {
		m.ejectN--
	}
	return msg, ok
}

func (m *refMesh) Idle() bool { return m.injectN == 0 && m.linkN == 0 && m.ejectN == 0 }

func (m *refMesh) route(n int, msg Message) bool {
	var perDir [numDirs]uint64
	var local uint64
	rest := msg.Dests
	for rest != 0 {
		d := refTrailingNode(rest)
		rest &^= 1 << uint(d)
		dir := m.geo.routeDir(n, d)
		if dir < 0 {
			local |= 1 << uint(d)
		} else {
			perDir[dir] |= 1 << uint(d)
		}
	}
	for dir, mask := range perDir {
		if mask != 0 && m.out[n][dir].q.Full() {
			return false
		}
	}
	branches := 0
	for dir, mask := range perDir {
		if mask == 0 {
			continue
		}
		cp := msg
		cp.Dests = mask
		m.out[n][dir].q.Push(cp)
		m.linkN++
		branches++
	}
	if local != 0 {
		cp := msg
		cp.Dests = local
		m.eject[n].Push(cp)
		m.ejectN++
		branches++
	}
	if branches > 1 {
		m.Replicas += int64(branches - 1)
	}
	return true
}

func (m *refMesh) Tick(now sim.Cycle) {
	if m.injectN == 0 && m.linkN == 0 {
		return
	}
	for n := range m.inLinks {
		for _, l := range m.inLinks[n] {
			if l.hasBlocked {
				if m.route(n, l.blocked) {
					l.hasBlocked = false
					m.linkN--
				}
				continue
			}
			if msg, ok := l.inflight.Recv(now); ok {
				m.linkN--
				if !m.route(n, msg) {
					l.blocked = msg
					l.hasBlocked = true
					m.linkN++
				}
			}
		}
		if msg, ok := m.inject[n].Peek(); ok {
			if m.route(n, msg) {
				m.inject[n].Pop()
				m.injectN--
			}
		}
	}
	for _, l := range m.allLinks {
		if now < l.busyUntil {
			continue
		}
		msg, ok := l.q.Pop()
		if !ok {
			continue
		}
		ser := m.geo.serCycles(msg)
		l.busyUntil = now + ser
		m.FlitCycles += int64(ser)
		l.inflight.SendAt(now+ser+sim.Cycle(m.geo.cfg.LinkLatency), msg)
		if m.obs != nil {
			m.obs.Emit(obs.Event{Cycle: int64(now), Dur: int64(ser),
				Kind: obs.KindNoCHop, Comp: l.idx,
				A: int64(msg.Bytes), B: int64(msg.Kind)})
		}
	}
}

func (m *refMesh) NextEvent(now sim.Cycle) sim.Cycle {
	if m.injectN > 0 {
		return now
	}
	if m.linkN == 0 {
		return sim.Never
	}
	ev := sim.Never
	for _, l := range m.allLinks {
		if l.hasBlocked {
			return now
		}
		if at := l.inflight.NextAt(); at < ev {
			if at <= now {
				return now
			}
			ev = at
		}
		if !l.q.Empty() {
			if l.busyUntil <= now {
				return now
			}
			if l.busyUntil < ev {
				ev = l.busyUntil
			}
		}
	}
	return ev
}

func refTrailingNode(mask uint64) int {
	n := 0
	for mask&1 == 0 {
		mask >>= 1
		n++
	}
	return n
}

// TestMeshMatchesReference drives the mesh and the reference with the
// same seeded random traffic — unicast and multicast, on the suite's
// and serve-mixed's mesh shapes (ragged rows included), with one- and
// two-deep buffers so heads block — and compares every cycle: the
// forecast, each node's ejections in order (whole messages with random
// payload words and multicast flags, so every copy must arrive
// intact), the stats, Idle, and the KindNoCHop event stream. Half the runs tick every cycle; the other
// half tick only when the forecast says the mesh can act, as the
// engine's SkipIdle does, and jump idle stretches as fast-forwarding
// does.
func TestMeshMatchesReference(t *testing.T) {
	for _, nodes := range []int{6, 12, 18, 24} {
		for depth := 1; depth <= 2; depth++ {
			for seed := int64(0); seed < 4; seed++ {
				c := config.NoC{FlitBytes: 16, LinkLatency: 1 + int(seed%2), VCDepth: depth}
				diffAgainstReference(t, c, nodes, seed, seed >= 2)
			}
		}
	}
}

func diffAgainstReference(t *testing.T, c config.NoC, nodes int, seed int64, eventDriven bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed*1000 + int64(nodes*10+c.VCDepth)))
	m, ref := NewMesh(c, nodes), newRefMesh(c, nodes)
	m.SetObs(obs.New(0))
	ref.obs = obs.New(0)
	all := uint64(1)<<uint(nodes) - 1
	var id uint64
	const cycles = 3000
	for now := sim.Cycle(0); now < cycles; now++ {
		// Bursty offered load: heavy in the first two thirds of every
		// 600-cycle window, none in the rest, so queues fill, heads
		// block, and the mesh also drains to idle.
		if now < cycles-400 && now%600 < 400 {
			for k := rng.Intn(nodes); k > 0; k-- {
				msg := Message{Kind: Kind(rng.Intn(3)), Mcast: rng.Intn(2) == 0,
					Src: rng.Intn(nodes), Bytes: 8 * (1 + rng.Intn(8)), A: id, B: rng.Uint64()}
				if rng.Intn(4) == 0 {
					msg.Dests = rng.Uint64() & all
				}
				if msg.Dests == 0 {
					msg.Dests = DestMask(rng.Intn(nodes))
				}
				id++
				if got, want := m.TryInject(msg), ref.TryInject(msg); got != want {
					t.Fatalf("%d nodes, cycle %d: TryInject = %v, reference %v", nodes, now, got, want)
				}
			}
		}
		got, want := m.NextEvent(now), ref.NextEvent(now)
		if got != want {
			t.Fatalf("%d nodes depth %d seed %d, cycle %d: NextEvent = %d, reference %d",
				nodes, c.VCDepth, seed, now, got, want)
		}
		if !eventDriven || got <= now {
			m.Tick(now)
			ref.Tick(now)
		}
		// Each node pops with probability 3/4, so ejection queues
		// back up as well.
		for n := 0; n < nodes; n++ {
			if rng.Intn(4) == 0 {
				continue
			}
			for {
				a, okA := m.Pop(n)
				b, okB := ref.Pop(n)
				if okA != okB || a != b {
					t.Fatalf("%d nodes, cycle %d, node %d: popped %+v (%v), reference %+v (%v)",
						nodes, now, n, a, okA, b, okB)
				}
				if !okA {
					break
				}
			}
		}
		if m.MsgsSent != ref.MsgsSent || m.FlitCycles != ref.FlitCycles || m.Replicas != ref.Replicas {
			t.Fatalf("%d nodes, cycle %d: stats (%d %d %d), reference (%d %d %d)", nodes, now,
				m.MsgsSent, m.FlitCycles, m.Replicas, ref.MsgsSent, ref.FlitCycles, ref.Replicas)
		}
		if m.Idle() != ref.Idle() {
			t.Fatalf("%d nodes, cycle %d: Idle = %v, reference %v", nodes, now, m.Idle(), ref.Idle())
		}
		checkResidents(t, m, now)
		// Fast-forward: with nothing offered, jump straight to the
		// next forecast event, as the engine does.
		if eventDriven && now%600 >= 400 && m.injectNodes == 0 {
			if next := m.NextEvent(now + 1); next != sim.Never && next > now+1 && next < cycles {
				now = next - 1
			}
		}
	}
	if m.MsgsSent == 0 || m.Replicas == 0 {
		t.Fatalf("%d nodes: traffic too thin (%d sent, %d replicas)", nodes, m.MsgsSent, m.Replicas)
	}
	a, b := m.obs.Events(), ref.obs.Events()
	if len(a) != len(b) {
		t.Fatalf("%d nodes: %d hop events, reference %d", nodes, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%d nodes: hop event %d = %+v, reference %+v", nodes, i, a[i], b[i])
		}
	}
}
