package core

import (
	"taskstream/internal/mem"
	"taskstream/internal/obs"
	"taskstream/internal/proto"
	"taskstream/internal/sim"
)

// mcastManager implements the coordinator's shared-read recovery: tasks
// whose dispatch falls within the coalescing window and whose shared
// read names the same address range join one group; the group issues a
// single line-fetch sequence whose responses the NoC multicasts to
// every member lane.
type mcastManager struct {
	window    sim.Cycle
	lineBytes int
	nextID    uint64
	// open groups by range key, still accepting joiners.
	open map[mcastKey]*mcastGroup
	// issuing groups that still have lines to submit to DRAM.
	issuing []*mcastGroup
	// directory maps an in-flight request ID to its delivery info; the
	// memory controllers consult it when a response surfaces.
	directory map[uint64]proto.McastReq

	// Stats.
	Groups      int64
	MemberJoins int64
	LinesSaved  int64 // unicast line fetches avoided by sharing

	// obs, when non-nil, receives table hit/miss events (nil-safe).
	obs *obs.Sink
}

type mcastKey struct {
	base mem.Addr
	n    int
}

type mcastGroup struct {
	id       uint64
	key      mcastKey
	dests    uint64 // lane-node mask
	lines    int
	headSkip int
	closes   sim.Cycle
	nextLine int // issue cursor
}

func newMcastManager(window sim.Cycle, lineBytes int) *mcastManager {
	return &mcastManager{
		window:    window,
		lineBytes: lineBytes,
		nextID:    1,
		open:      make(map[mcastKey]*mcastGroup),
		directory: make(map[uint64]proto.McastReq),
	}
}

// join adds a lane (by NoC node id) to the open group covering
// [base, base+n*8), opening a new group if none is collecting. Returns
// the group for the lane's stream setup.
func (mm *mcastManager) join(base mem.Addr, n int, laneNode int, now sim.Cycle) *mcastGroup {
	key := mcastKey{base: base, n: n}
	if g, ok := mm.open[key]; ok {
		g.dests |= 1 << uint(laneNode)
		mm.MemberJoins++
		mm.LinesSaved += int64(g.lines)
		mm.obs.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindMcastHit,
			Comp: int32(laneNode), A: int64(g.id), B: int64(g.lines)})
		return g
	}
	first := mem.LineOf(base, mm.lineBytes)
	last := mem.LineOf(base+mem.Addr((n-1)*mem.ElemBytes), mm.lineBytes)
	lines := int((last-first)/mem.Addr(mm.lineBytes)) + 1
	if n == 0 {
		lines = 0
	}
	g := &mcastGroup{
		id:       mm.nextID,
		key:      key,
		dests:    1 << uint(laneNode),
		lines:    lines,
		headSkip: int(base-first) / mem.ElemBytes,
		closes:   now + mm.window,
	}
	mm.nextID++
	mm.open[key] = g
	mm.Groups++
	mm.MemberJoins++
	mm.obs.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindMcastMiss,
		Comp: int32(laneNode), A: int64(g.id), B: int64(lines)})
	return g
}

// tick closes expired groups and feeds issuing groups' line requests
// into the DRAM channels via submit, which reports acceptance. budget
// bounds submissions per cycle.
func (mm *mcastManager) tick(now sim.Cycle, budget int, submit func(proto.McastReq) bool) {
	// Close expired groups in deterministic (id) order.
	var toClose []*mcastGroup
	for _, g := range mm.open {
		if now >= g.closes {
			toClose = append(toClose, g)
		}
	}
	// Sort by id for determinism (map iteration order is random).
	for i := 1; i < len(toClose); i++ {
		for j := i; j > 0 && toClose[j-1].id > toClose[j].id; j-- {
			toClose[j-1], toClose[j] = toClose[j], toClose[j-1]
		}
	}
	for _, g := range toClose {
		delete(mm.open, g.key)
		if g.lines > 0 {
			mm.issuing = append(mm.issuing, g)
		}
	}
	// Issue lines round-robin across open groups so one large fetch
	// does not serialize the others (each group's lines interleave
	// across DRAM channels, so round-robin also spreads channel load).
	stuck := 0
	for budget > 0 && len(mm.issuing) > 0 && stuck < len(mm.issuing) {
		g := mm.issuing[0]
		line := mem.LineOf(g.key.base, mm.lineBytes) + mem.Addr(g.nextLine*mm.lineBytes)
		req := proto.McastReq{
			Line:  line,
			Group: g.id,
			Seq:   g.nextLine,
			Dests: g.dests,
		}
		if !submit(req) {
			// Channel backpressure: rotate and give others a chance.
			mm.issuing = append(mm.issuing[1:], g)
			stuck++
			continue
		}
		stuck = 0
		g.nextLine++
		budget--
		if g.nextLine == g.lines {
			mm.issuing = mm.issuing[1:]
		} else {
			mm.issuing = append(mm.issuing[1:], g)
		}
	}
}

// nextEvent reports when the manager's tick can next do anything:
// immediately while lines wait to issue (retried under backpressure
// every cycle), at the earliest group-close deadline otherwise.
// Directory entries are passive lookups, not events.
func (mm *mcastManager) nextEvent(now sim.Cycle) sim.Cycle {
	if len(mm.issuing) > 0 {
		return now
	}
	ev := sim.Never
	for _, g := range mm.open {
		if g.closes < ev {
			ev = g.closes
		}
	}
	return ev
}

// register records an in-flight multicast request so the memory
// controller can route its response; the controller removes it.
func (mm *mcastManager) register(reqID uint64, req proto.McastReq) {
	mm.directory[reqID] = req
}

// lookup resolves and removes a directory entry.
func (mm *mcastManager) lookup(reqID uint64) (proto.McastReq, bool) {
	req, ok := mm.directory[reqID]
	if ok {
		delete(mm.directory, reqID)
	}
	return req, ok
}

// drained reports whether no group work remains.
func (mm *mcastManager) drained() bool {
	return len(mm.open) == 0 && len(mm.issuing) == 0 && len(mm.directory) == 0
}
