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
package noc

import (
	"fmt"
	"math"

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
	// KindSpawn is a lane→coordinator new-task announcement.
	KindSpawn
	// KindCtl is small control traffic (completion, credit, locate).
	KindCtl
)

// HeaderBytes is the per-message header overhead added to payload size.
const HeaderBytes = 8

// MaxNodes bounds the mesh size; destination sets are 64-bit masks.
const MaxNodes = 64

// Message is one network transfer. Body is opaque to the network.
type Message struct {
	Kind  Kind
	Src   int
	Dests uint64 // bitmask of destination node ids
	Bytes int    // payload bytes (header added internally)
	ID    uint64
	Body  any
}

// DestMask returns the bitmask for a single node.
func DestMask(node int) uint64 { return 1 << uint(node) }

// link is one unidirectional mesh link plus its transmit queue.
type link struct {
	q         *sim.Queue[Message]
	busyUntil sim.Cycle
	inflight  *sim.Pipe[Message]
	// blocked holds the head-of-line message that could not route on
	// (valid when hasBlocked; stored by value so blocking never
	// allocates).
	blocked    Message
	hasBlocked bool
	flits      int64
	// idx is the link's position in allLinks — the component index
	// occupancy events carry.
	idx int32
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
	// inject[n] is node n's local injection queue.
	inject []*sim.Queue[Message]
	// eject[n] is node n's (unbounded) delivery queue; a reusable ring
	// so steady-state delivery neither reallocates nor leaks head
	// capacity the way the old append/shift slice did.
	eject []sim.Deque[Message]
	// injectN, linkN, and ejectN count buffered messages (injection
	// queues; link queues + in-flight + blocked heads; delivery
	// queues). injectN and linkN both zero means a Tick has nothing to
	// do, making the empty-mesh cycle O(1) instead of a full link scan;
	// all three zero makes Idle O(1).
	injectN int
	linkN   int
	ejectN  int

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
	m := &Mesh{cfg: cfg, nodes: nodes, cols: cols, rows: rows}
	m.out = make([][numDirs]*link, nodes)
	m.inject = make([]*sim.Queue[Message], nodes)
	m.eject = make([]sim.Deque[Message], nodes)
	for n := 0; n < nodes; n++ {
		for d := 0; d < numDirs; d++ {
			if m.neighbor(n, d) >= 0 {
				m.out[n][d] = &link{
					q:        sim.NewQueue[Message](cfg.VCDepth),
					inflight: sim.NewPipe[Message](sim.Cycle(cfg.LinkLatency)),
				}
			}
		}
		m.inject[n] = sim.NewQueue[Message](cfg.VCDepth)
	}
	m.inLinks = make([][]*link, nodes)
	for n := 0; n < nodes; n++ {
		for d := 0; d < numDirs; d++ {
			if nb := m.neighbor(n, d); nb >= 0 {
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
	m.injectN++
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
	var perDir [numDirs]uint64
	var local uint64
	rest := msg.Dests
	for rest != 0 {
		d := trailingNode(rest)
		rest &^= 1 << uint(d)
		dir := m.routeDir(n, d)
		if dir < 0 {
			local |= 1 << uint(d)
		} else {
			perDir[dir] |= 1 << uint(d)
		}
	}
	// Check capacity first (atomic forwarding).
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

// Tick advances the network one cycle: deliver matured arrivals into
// routers, then start new link transmissions. An empty mesh (no
// injected or link-resident messages) ticks in O(1).
func (m *Mesh) Tick(now sim.Cycle) {
	if m.injectN == 0 && m.linkN == 0 {
		return
	}
	// Phase A: routing. For each node, retry blocked heads, then route
	// newly arrived messages, then drain the injection port.
	for n := 0; n < m.nodes; n++ {
		for _, l := range m.inLinks[n] {
			if l.hasBlocked {
				if m.route(n, l.blocked) {
					l.blocked = Message{} // release the Body reference
					l.hasBlocked = false
					m.linkN--
				}
				continue // head-of-line blocking: nothing else this cycle
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
		// Local injection (one message per cycle).
		if msg, ok := m.inject[n].Peek(); ok {
			if m.route(n, msg) {
				m.inject[n].Pop()
				m.injectN--
			}
		}
	}
	// Phase B: link transmission.
	for _, l := range m.allLinks {
		if now < l.busyUntil {
			continue
		}
		msg, ok := l.q.Pop()
		if !ok {
			continue
		}
		ser := m.serCycles(msg)
		l.busyUntil = now + ser
		l.flits += int64(ser)
		m.FlitCycles += int64(ser)
		l.inflight.SendAt(now+ser+sim.Cycle(m.cfg.LinkLatency), msg)
		if m.obs != nil {
			m.obs.Emit(obs.Event{Cycle: int64(now), Dur: int64(ser),
				Kind: obs.KindNoCHop, Comp: l.idx,
				A: int64(msg.Bytes), B: int64(msg.Kind)})
		}
	}
}

// NextEvent reports when the mesh's own Tick can next act: immediately
// while any injection queue holds a message or any link has a blocked
// head (both retried every cycle); at link-transmission start when a
// link queue waits on its busy-until timer; at arrival maturity for
// in-flight link traffic. Ejected messages are not mesh events — their
// consumers forecast them via Deliverable. An empty mesh answers in
// O(1).
func (m *Mesh) NextEvent(now sim.Cycle) sim.Cycle {
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

// Idle reports whether no message is buffered or in flight anywhere.
// Ejection queues count: a message is in flight until its consumer pops
// it.
func (m *Mesh) Idle() bool {
	return m.injectN == 0 && m.linkN == 0 && m.ejectN == 0
}

// residents recounts every buffered message directly from the queues;
// tests use it to pin the incremental counters to ground truth.
func (m *Mesh) residents() (inject, link, eject int) {
	for n := 0; n < m.nodes; n++ {
		inject += m.inject[n].Len()
		eject += m.eject[n].Len()
		for d := 0; d < numDirs; d++ {
			l := m.out[n][d]
			if l == nil {
				continue
			}
			link += l.q.Len() + l.inflight.Len()
			if l.hasBlocked {
				link++
			}
		}
	}
	return
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

// trailingNode returns the index of the lowest set bit.
func trailingNode(mask uint64) int {
	n := 0
	for mask&1 == 0 {
		mask >>= 1
		n++
	}
	return n
}
