// Package noc models the accelerator's on-chip network: a 2-D mesh with
// dimension-order (X-Y) routing, per-link serialization at flit
// granularity, bounded router buffering with head-of-line blocking, and
// hardware multicast (a message carries a destination bitmask and is
// replicated at the router where its routes diverge — tree multicast).
//
// Messages move at virtual-cut-through granularity: a message occupies
// each link for ceil(bytes/flitBytes) cycles and arrives at the next
// router after the link latency. Ejection queues are unbounded; traffic
// sources in this machine are self-throttled (bounded outstanding
// requests), which together with X-Y routing keeps the network
// deadlock-free.
//
// A tick costs what the traffic costs. Routing splits a destination
// set with one AND per direction against masks precomputed from the
// X-Y rule. Arrivals reach routers through one mesh-wide pipe of link
// indices keyed by arrival cycle, and bitsets of ready in-links,
// non-empty injection ports and non-empty link queues let Tick and
// NextEvent visit only the links and nodes that hold messages, in the
// same order a full scan would.
package noc

import (
	"fmt"
	"math"
	"math/bits"

	"taskstream/internal/config"
	"taskstream/internal/obs"
	"taskstream/internal/sim"
)

// Kind tags the protocol class of a message; upper layers dispatch on it.
type Kind uint8

// Message kinds used by the machine.
const (
	// KindMemReq is a lane→memory read/write stream request.
	KindMemReq Kind = iota
	// KindMemResp is a memory→lane(s) data line; may be multicast.
	KindMemResp
	// KindForward is producer→consumer task-stream data.
	KindForward
)

// HeaderBytes is the per-message header overhead added to payload size.
const HeaderBytes = 8

// MaxNodes bounds the mesh size; destination sets are 64-bit masks.
const MaxNodes = 64

// Message is one network transfer. It holds no pointers, so queues
// copy it and nothing owns it. The network reads Src, Dests and Bytes,
// and Kind for hop events; Mcast and the payload words A and B belong
// to the protocol above it:
//
//	Kind         Mcast  A                             B
//	KindMemReq   false  request ID (proto.MakeReqID)  line address
//	KindMemResp  false  ID of the request it answers  unused
//	KindMemResp  true   multicast group id            line sequence number
//	KindForward  false  consumer input port           element count
//
// A request ID carries the write bit, so a write ack is a unicast
// KindMemResp whose ID says write (and whose Bytes is 0).
type Message struct {
	Kind  Kind
	Mcast bool
	Src   int
	Dests uint64 // bitmask of destination node ids
	Bytes int    // payload bytes (header added internally)
	A, B  uint64
}

// DestMask returns the bitmask for a single node.
func DestMask(node int) uint64 { return 1 << uint(node) }

// link is one unidirectional mesh link plus its transmit queue.
type link struct {
	q         *sim.Queue[Message]
	busyUntil sim.Cycle
	// inflight holds transmitted messages in arrival order: a link's
	// arrival cycles strictly increase, since a transmission starts no
	// earlier than the previous one's busy-until and lasts at least one
	// cycle. matured counts the arrived messages at its head.
	inflight sim.Deque[Message]
	matured  int
	// blocked holds the head-of-line message that could not route on
	// (valid when hasBlocked; stored by value so blocking never
	// allocates).
	blocked    Message
	hasBlocked bool
	// idx is the link's position in allLinks — the component index
	// occupancy events carry.
	idx int32
	// to is the receiving node and slot the link's position in
	// inLinks[to]: the ready bit its arrivals and blocked head set.
	to   int
	slot uint8
}

const (
	dirE = iota
	dirW
	dirN
	dirS
	numDirs
)

// Mesh is the network fabric.
type Mesh struct {
	cfg        config.NoC
	nodes      int
	cols, rows int
	// out[n][d] is node n's outgoing link in direction d.
	out [][numDirs]*link
	// inLinks[n] lists node n's incoming links in Tick's processing
	// order (precomputed so the per-cycle loops do no neighbor
	// arithmetic); allLinks flattens every link in phase-B order.
	inLinks  [][]*link
	allLinks []*link
	// dirMask[n][d] is the set of destinations that X-Y routing sends
	// from node n in direction d.
	dirMask [][numDirs]uint64
	// arrivals carries each transmission's link index to its arrival
	// cycle; Tick moves matured ones into their link's matured count.
	arrivals *sim.Pipe[int32]
	// ready[n] has bit s set while inLinks[n][s] holds a blocked head
	// or a matured arrival, readyNodes has bit n set while ready[n] is
	// non-zero, and injectNodes while inject[n] is non-empty: phase A
	// visits only the nodes in their union. queued has bit i set while
	// allLinks[i]'s transmit queue is non-empty: phase B and NextEvent
	// visit only those links.
	ready       []uint8
	readyNodes  uint64
	injectNodes uint64
	queued      []uint64
	// inject[n] is node n's local injection queue.
	inject []*sim.Queue[Message]
	// eject[n] is node n's (unbounded) delivery queue; a reusable ring
	// so steady-state delivery neither reallocates nor leaks head
	// capacity the way the old append/shift slice did.
	eject []sim.Deque[Message]
	// linkN and ejectN count buffered messages (link queues +
	// in-flight + blocked heads; delivery queues). injectNodes and
	// linkN both zero means a Tick has nothing to do, making the
	// empty-mesh cycle O(1); with ejectN zero too, Idle is O(1).
	linkN  int
	ejectN int

	// Stats.
	MsgsSent   int64
	FlitCycles int64
	Replicas   int64 // extra copies created by multicast branching

	// obs, when non-nil, receives per-link occupancy events.
	obs *obs.Sink
}

// NewMesh builds a mesh for the given node count. Node ids 0..n-1 are
// laid out row-major on a near-square grid.
func NewMesh(cfg config.NoC, nodes int) *Mesh {
	if nodes <= 0 || nodes > MaxNodes {
		panic(fmt.Sprintf("noc: node count %d out of range 1..%d", nodes, MaxNodes))
	}
	cols := int(math.Ceil(math.Sqrt(float64(nodes))))
	rows := (nodes + cols - 1) / cols
	m := &Mesh{cfg: cfg, nodes: nodes, cols: cols, rows: rows,
		arrivals: sim.NewPipe[int32](0)}
	m.out = make([][numDirs]*link, nodes)
	m.inject = make([]*sim.Queue[Message], nodes)
	m.eject = make([]sim.Deque[Message], nodes)
	for n := 0; n < nodes; n++ {
		for d := 0; d < numDirs; d++ {
			if m.neighbor(n, d) >= 0 {
				m.out[n][d] = &link{q: sim.NewQueue[Message](cfg.VCDepth)}
			}
		}
		m.inject[n] = sim.NewQueue[Message](cfg.VCDepth)
	}
	m.inLinks = make([][]*link, nodes)
	m.ready = make([]uint8, nodes)
	for n := 0; n < nodes; n++ {
		for d := 0; d < numDirs; d++ {
			if nb := m.neighbor(n, d); nb >= 0 {
				l := m.out[nb][opposite(d)]
				l.to, l.slot = n, uint8(len(m.inLinks[n]))
				m.inLinks[n] = append(m.inLinks[n], l)
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
	m.queued = make([]uint64, (len(m.allLinks)+63)/64)
	m.dirMask = make([][numDirs]uint64, nodes)
	for n := 0; n < nodes; n++ {
		for dest := 0; dest < nodes; dest++ {
			if d := m.routeDir(n, dest); d >= 0 {
				m.dirMask[n][d] |= DestMask(dest)
			}
		}
	}
	return m
}

// SetObs attaches the observability sink: every link transmission
// emits a KindNoCHop occupancy event, and the per-link track labels
// ("n3→n4") are registered into the sink for the exporters.
func (m *Mesh) SetObs(s *obs.Sink) {
	m.obs = s
	if s == nil {
		return
	}
	labels := make([]string, len(m.allLinks))
	for n := 0; n < m.nodes; n++ {
		for d := 0; d < numDirs; d++ {
			if l := m.out[n][d]; l != nil {
				labels[l.idx] = fmt.Sprintf("n%d→n%d", n, m.neighbor(n, d))
			}
		}
	}
	s.LinkLabels = labels
}

// Nodes returns the node count.
func (m *Mesh) Nodes() int { return m.nodes }

func (m *Mesh) coord(n int) (x, y int) { return n % m.cols, n / m.cols }

// neighbor returns the node in direction d from n, or -1 at the edge or
// where the (ragged) last row has no node.
func (m *Mesh) neighbor(n, d int) int {
	x, y := m.coord(n)
	switch d {
	case dirE:
		x++
	case dirW:
		x--
	case dirN:
		y--
	case dirS:
		y++
	}
	if x < 0 || x >= m.cols || y < 0 || y >= m.rows {
		return -1
	}
	nb := y*m.cols + x
	if nb >= m.nodes {
		return -1
	}
	return nb
}

// routeDir returns the X-Y direction from cur toward dest (-1 if
// equal). On a ragged mesh the last row may be partial; when the X step
// would enter a missing node, the route detours north first (the rows
// above the ragged row are always full, so Y-then-X reaches any node).
// NewMesh folds it into dirMask, so no message pays for it.
func (m *Mesh) routeDir(cur, dest int) int {
	cx, cy := m.coord(cur)
	dx, dy := m.coord(dest)
	var dir int
	switch {
	case dx > cx:
		dir = dirE
	case dx < cx:
		dir = dirW
	case dy > cy:
		return dirS
	case dy < cy:
		return dirN
	default:
		return -1
	}
	if m.neighbor(cur, dir) < 0 {
		return dirN
	}
	return dir
}

// TryInject offers a message to node src's injection port, reporting
// false under backpressure. Dests must be a non-empty subset of nodes.
func (m *Mesh) TryInject(msg Message) bool {
	if msg.Dests == 0 {
		panic("noc: message with empty destination set")
	}
	if msg.Dests>>uint(m.nodes) != 0 {
		panic(fmt.Sprintf("noc: destinations %#x outside %d-node mesh", msg.Dests, m.nodes))
	}
	if !m.inject[msg.Src].Push(msg) {
		return false
	}
	m.injectNodes |= DestMask(msg.Src)
	m.MsgsSent++
	return true
}

// Pop removes the next delivered message at node n, if any.
func (m *Mesh) Pop(n int) (Message, bool) {
	msg, ok := m.eject[n].Pop()
	if ok {
		m.ejectN--
	}
	return msg, ok
}

// Deliverable reports whether node n has delivered messages waiting —
// the forecast contribution of the component that drains node n's
// ejection queue (a lane or memory controller).
func (m *Mesh) Deliverable(n int) bool { return !m.eject[n].Empty() }

// serCycles is the link occupancy of one message.
func (m *Mesh) serCycles(msg Message) sim.Cycle {
	fl := (msg.Bytes + HeaderBytes + m.cfg.FlitBytes - 1) / m.cfg.FlitBytes
	if fl < 1 {
		fl = 1
	}
	return sim.Cycle(fl)
}

// route forwards msg from router n: splits the destination set by next
// hop, ejects the local share, and pushes copies onto out-links. It is
// all-or-nothing: if any needed out-link queue is full, nothing moves
// and route reports false.
func (m *Mesh) route(n int, msg Message) bool {
	masks := &m.dirMask[n]
	out := &m.out[n]
	// Check capacity first (atomic forwarding).
	for dir, mask := range masks {
		if msg.Dests&mask != 0 && out[dir].q.Full() {
			return false
		}
	}
	branches := 0
	for dir, mask := range masks {
		if mask &= msg.Dests; mask == 0 {
			continue
		}
		cp := msg
		cp.Dests = mask
		l := out[dir]
		l.q.Push(cp)
		m.queued[l.idx>>6] |= 1 << uint(l.idx&63)
		m.linkN++
		branches++
	}
	if local := msg.Dests & DestMask(n); local != 0 {
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

// Tick advances the network one cycle: deliver matured arrivals into
// routers, then start new link transmissions. An empty mesh (no
// injected or link-resident messages) ticks in O(1).
func (m *Mesh) Tick(now sim.Cycle) {
	if m.injectNodes == 0 && m.linkN == 0 {
		return
	}
	// Arrivals due by now mature on their links and make them ready.
	for {
		i, ok := m.arrivals.Recv(now)
		if !ok {
			break
		}
		l := m.allLinks[i]
		l.matured++
		m.ready[l.to] |= 1 << l.slot
		m.readyNodes |= DestMask(l.to)
	}
	// Phase A: routing. For each node, retry blocked heads, then route
	// newly arrived messages, then drain the injection port. A node's
	// routing touches only its own in-links, out-link queues and
	// ejection queue, so visiting only the nodes with work, in
	// ascending order, is exactly the full scan.
	for active := m.readyNodes | m.injectNodes; active != 0; active &= active - 1 {
		n := bits.TrailingZeros64(active)
		for r := m.ready[n]; r != 0; r &= r - 1 {
			m.receive(n, m.inLinks[n][bits.TrailingZeros8(r)])
		}
		// Local injection (one message per cycle).
		if q := m.inject[n]; !q.Empty() {
			if msg, _ := q.Peek(); m.route(n, msg) {
				if q.Pop(); q.Empty() {
					m.injectNodes &^= DestMask(n)
				}
			}
		}
	}
	// Phase B: link transmission, in allLinks order.
	for w, word := range m.queued {
		for ; word != 0; word &= word - 1 {
			bit := bits.TrailingZeros64(word)
			l := m.allLinks[w<<6|bit]
			if now < l.busyUntil {
				continue
			}
			msg, _ := l.q.Pop()
			if l.q.Empty() {
				m.queued[w] &^= 1 << uint(bit)
			}
			ser := m.serCycles(msg)
			l.busyUntil = now + ser
			m.FlitCycles += int64(ser)
			l.inflight.Push(msg)
			m.arrivals.SendAt(now+ser+sim.Cycle(m.cfg.LinkLatency), l.idx)
			if m.obs != nil {
				m.obs.Emit(obs.Event{Cycle: int64(now), Dur: int64(ser),
					Kind: obs.KindNoCHop, Comp: l.idx,
					A: int64(msg.Bytes), B: int64(msg.Kind)})
			}
		}
	}
}

// receive gives node n's ready in-link l its one routing attempt of the
// cycle: retry a blocked head (head-of-line blocking: nothing else
// moves on l this cycle), or route the oldest matured arrival. l stays
// ready while it holds a blocked head or another matured arrival.
func (m *Mesh) receive(n int, l *link) {
	if l.hasBlocked {
		if m.route(n, l.blocked) {
			l.hasBlocked = false
			m.linkN--
		}
	} else {
		msg, _ := l.inflight.Pop()
		l.matured--
		if m.route(n, msg) {
			m.linkN--
		} else {
			l.blocked = msg
			l.hasBlocked = true
		}
	}
	if !l.hasBlocked && l.matured == 0 {
		if m.ready[n] &^= 1 << l.slot; m.ready[n] == 0 {
			m.readyNodes &^= DestMask(n)
		}
	}
}

// NextEvent reports when the mesh's own Tick can next act: immediately
// while any injection queue holds a message or any in-link holds a
// blocked head or a matured arrival (all retried every cycle); at link-
// transmission start when a link queue waits on its busy-until timer;
// at arrival maturity for in-flight link traffic. Ejected messages are
// not mesh events — their consumers forecast them via Deliverable. The
// answer comes from the counters, the arrival pipe's head and the
// queued links alone.
func (m *Mesh) NextEvent(now sim.Cycle) sim.Cycle {
	if m.injectNodes|m.readyNodes != 0 {
		return now
	}
	if m.linkN == 0 {
		return sim.Never
	}
	ev := m.arrivals.NextAt()
	if ev <= now {
		return now
	}
	for w, word := range m.queued {
		for ; word != 0; word &= word - 1 {
			l := m.allLinks[w<<6|bits.TrailingZeros64(word)]
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

// Idle reports whether no message is buffered or in flight anywhere.
// Ejection queues count: a message is in flight until its consumer pops
// it.
func (m *Mesh) Idle() bool {
	return m.injectNodes == 0 && m.linkN == 0 && m.ejectN == 0
}

func opposite(d int) int {
	switch d {
	case dirE:
		return dirW
	case dirW:
		return dirE
	case dirN:
		return dirS
	default:
		return dirN
	}
}
