package core

import (
	"fmt"

	"taskstream/internal/config"
	"taskstream/internal/fabric"
	"taskstream/internal/mem"
	"taskstream/internal/noc"
	"taskstream/internal/obs"
	"taskstream/internal/proto"
	"taskstream/internal/sim"
	"taskstream/internal/stats"
	"taskstream/internal/stream"
)

// Options select the execution model variant for a run.
type Options struct {
	// Policy picks TaskStream dispatch or the static-parallel baseline.
	Policy Policy
	// Hints controls work-hint fidelity (E12).
	Hints HintMode
	// MaxCycles overrides the safety limit (0 = default).
	MaxCycles sim.Cycle
	// Obs, when non-nil, receives the machine-wide observability event
	// stream (package obs): dispatch decisions, task starts and
	// completions, lane state spans with stall attribution,
	// stream-engine spans, multicast table activity, NoC hop and DRAM
	// channel occupancy. Attaching a sink disables event-horizon
	// fast-forwarding for the run so attribution is observed per cycle
	// rather than synthesized — a switch the §11 byte-identity contract
	// guarantees changes no cycle count or stat.
	Obs *obs.Sink
	// Vet runs the registered whole-program static verifier (see
	// RegisterVetter; internal/analysis provides it) before the machine
	// is wired. NewMachine fails if the program does not vet clean.
	Vet bool
	// DisableFastForward forces cycle-by-cycle execution. Fast-forward
	// is on by default and byte-identical to it (DESIGN.md §11); this
	// switch exists for the equality tests and for debugging.
	DisableFastForward bool
}

// Machine is one fully wired accelerator instance executing one
// program under one execution model.
type Machine struct {
	cfg     config.Config
	opts    Options
	prog    *Program
	topo    proto.Topology
	storage *mem.Storage

	engine   *sim.Engine
	mesh     *noc.Mesh
	channels []*mem.Channel
	memctrls []*memCtrl
	lanes    []*Lane
	coord    *coordinator
	mcast    *mcastManager

	mappings []fabric.Mapping
	tagData  map[uint64][]uint64

	now sim.Cycle
	set *stats.Set
}

// Report summarizes one run.
type Report struct {
	// Cycles is the total execution time.
	Cycles int64
	// LaneBusy is per-lane busy cycles (imbalance analysis).
	LaneBusy []int64
	// Stats holds every counter the machine collected.
	Stats *stats.Set
}

// NewMachine validates, maps every task type onto the fabric, and wires
// the hardware.
func NewMachine(cfg config.Config, prog *Program, storage *mem.Storage, opts Options) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if opts.Vet {
		if err := runVet(prog, cfg.Fabric.NumPorts); err != nil {
			return nil, err
		}
	}
	topo := proto.Topology{Lanes: cfg.Lanes, Channels: cfg.DRAM.Channels}
	if topo.Nodes() > noc.MaxNodes {
		return nil, fmt.Errorf("core: %d nodes exceed the %d-node mesh limit", topo.Nodes(), noc.MaxNodes)
	}
	m := &Machine{
		cfg:     cfg,
		opts:    opts,
		prog:    prog,
		topo:    topo,
		storage: storage,
		tagData: make(map[uint64][]uint64),
		set:     stats.NewSet(),
	}
	m.mappings = make([]fabric.Mapping, len(prog.Types))
	for i, tt := range prog.Types {
		mp, err := fabric.Map(tt.DFG, cfg.Fabric.Rows, cfg.Fabric.Cols)
		if err != nil {
			return nil, fmt.Errorf("core: mapping type %s: %w", tt.Name, err)
		}
		m.mappings[i] = mp
	}
	m.mesh = noc.NewMesh(cfg.NoC, topo.Nodes())
	m.mcast = newMcastManager(sim.Cycle(cfg.Task.CoalesceWindowCycles), cfg.DRAM.LineBytes)
	for c := 0; c < cfg.DRAM.Channels; c++ {
		ch := mem.NewChannel(cfg.DRAM)
		m.channels = append(m.channels, ch)
		m.memctrls = append(m.memctrls, newMemCtrl(m, c, ch))
	}
	for i := 0; i < cfg.Lanes; i++ {
		m.lanes = append(m.lanes, newLane(i, m))
	}
	m.coord = newCoordinator(m, opts.Policy)
	if opts.Obs != nil {
		opts.Obs.Lanes = cfg.Lanes
		opts.Obs.Channels = cfg.DRAM.Channels
		m.mesh.SetObs(opts.Obs)
		for c, ch := range m.channels {
			ch.SetObs(opts.Obs, int32(c))
		}
		for _, l := range m.lanes {
			l.eng.SetObs(opts.Obs)
		}
		m.mcast.obs = opts.Obs
	}

	m.engine = sim.NewEngine()
	m.engine.FastForward = !opts.DisableFastForward && opts.Obs == nil
	// Per-ticker micro-skip inside executed cycles: byte-identical by
	// the Forecaster contract. Off under observation for the same
	// reason fast-forwarding is — per-cycle attribution (lane state
	// classification, span extension) must be observed, not skipped.
	m.engine.SkipIdle = opts.Obs == nil
	if opts.MaxCycles > 0 {
		m.engine.MaxCycles = opts.MaxCycles
	}
	m.engine.Register("clock", clockTicker{m: m})
	m.engine.Register("coordinator", m.coord)
	for i, l := range m.lanes {
		m.engine.Register(fmt.Sprintf("lane%d", i), l)
	}
	m.engine.Register("mesh", m.mesh)
	for c, mc := range m.memctrls {
		m.engine.Register(fmt.Sprintf("memctrl%d", c), mc)
	}
	for c, ch := range m.channels {
		m.engine.Register(fmt.Sprintf("dram%d", c), chanTicker{ch: ch})
	}
	return m, nil
}

// clockTicker publishes the engine's cycle into m.now. Registered
// first, so every other component's Tick sees the fresh value. It
// never originates events.
type clockTicker struct{ m *Machine }

func (c clockTicker) Tick(now sim.Cycle) { c.m.now = now }

func (c clockTicker) NextEvent(now sim.Cycle) sim.Cycle { return sim.Never }

// Skip replays the clock's only per-cycle effect in bulk: after ticking
// cycles [from, to) the last published value would be to-1. This is
// what lets the forever-quiet clock participate in SkipIdle — its Skip
// is exactly its Tick — without ever leaving m.now stale for the
// components that read it (coordinator pipe stamps, obs events).
func (c clockTicker) Skip(from, to sim.Cycle) { c.m.now = to - 1 }

// chanTicker adapts a DRAM channel (its responses are drained by the
// memory controller, so the channel itself only ticks).
type chanTicker struct{ ch *mem.Channel }

func (c chanTicker) Tick(now sim.Cycle) { c.ch.Tick(now) }
func (c chanTicker) Idle() bool         { return c.ch.Idle() }

func (c chanTicker) NextEvent(now sim.Cycle) sim.Cycle { return c.ch.NextEvent(now) }

func (c chanTicker) Skip(from, to sim.Cycle) { c.ch.Skip(from, to) }

// Storage returns the functional store (for result verification).
func (m *Machine) Storage() *mem.Storage { return m.storage }

// effectiveHint applies the configured hint fidelity.
func (m *Machine) effectiveHint(t *Task) int64 {
	switch m.opts.Hints {
	case HintNone:
		return 1
	case HintNoisy:
		// Deterministic per-task factor in {1/4, 1/2, 1, 2, 4}.
		h := t.DefaultWorkHint()
		switch fabric.Mix64(t.Key^0x9e3779b97f4a7c15) % 5 {
		case 0:
			h /= 4
		case 1:
			h /= 2
		case 3:
			h *= 2
		case 4:
			h *= 4
		}
		if h < 1 {
			h = 1
		}
		return h
	default:
		return t.DefaultWorkHint()
	}
}

// submitMcast feeds a coordinator group-fetch line into its DRAM
// channel, registering the delivery directory entry.
func (m *Machine) submitMcast(req proto.McastReq) bool {
	c := mem.ChannelOf(req.Line, m.cfg.DRAM.LineBytes, m.cfg.DRAM.Channels)
	id := proto.MakeReqID(0xFF, false, 0, int64(req.Group)<<16|int64(req.Seq))
	if !m.channels[c].Submit(mem.Request{ID: id, Line: req.Line}) {
		return false
	}
	m.mcast.register(id, req)
	return true
}

// Run executes the program to completion and reports.
func (m *Machine) Run() (Report, error) {
	cycles, err := m.engine.Run(m.coord.AllDone)
	if err != nil {
		return Report{}, fmt.Errorf("%w (%s)", err, m.coord.backlog())
	}
	if m.opts.Obs != nil {
		for _, l := range m.lanes {
			l.obsFlush(cycles)
		}
	}
	return m.report(int64(cycles)), nil
}

// report assembles the statistics snapshot.
func (m *Machine) report(cycles int64) Report {
	s := m.set
	s.SetVal("cycles", cycles)
	s.SetVal("tasks_dispatched", m.coord.Dispatched)
	s.SetVal("tasks_spawned", m.coord.Spawned)
	s.SetVal("fwd_pairs", m.coord.FwdPairs)
	s.SetVal("mcast_groups", m.mcast.Groups)
	s.SetVal("mcast_joins", m.mcast.MemberJoins)
	s.SetVal("mcast_lines_saved", m.mcast.LinesSaved)
	var busy []int64
	var fireCycles, tasksRun, cfgStalls int64
	var dramReq, dramWr, spadAcc, fwdSent, fwdElems int64
	stallKinds := []struct {
		kind stream.SrcKind
		name string
	}{
		{stream.SrcDRAM, "stall_in_dram"},
		{stream.SrcSpad, "stall_in_spad"},
		{stream.SrcForward, "stall_in_fwd"},
		{stream.SrcMulticast, "stall_in_mcast"},
	}
	var stallOut int64
	for _, sk := range stallKinds {
		s.SetVal(sk.name, 0)
	}
	for _, l := range m.lanes {
		for _, sk := range stallKinds {
			s.Add(sk.name, l.StallIn[sk.kind])
		}
		stallOut += l.StallOut
		busy = append(busy, l.BusyCycles)
		fireCycles += l.FireCycles
		tasksRun += l.TasksRun
		cfgStalls += l.ConfigStalls
		dramReq += l.eng.DRAMLinesRequested
		dramWr += l.eng.DRAMLinesWritten
		spadAcc += l.eng.SpadAccesses
		fwdSent += l.eng.FwdMsgsSent
		fwdElems += l.eng.FwdElemsRecv
	}
	s.SetVal("stall_out", stallOut)
	s.SetVal("fire_cycles", fireCycles)
	s.SetVal("tasks_run", tasksRun)
	s.SetVal("config_stalls", cfgStalls)
	s.SetVal("lane_dram_line_reads", dramReq)
	s.SetVal("lane_dram_line_writes", dramWr)
	s.SetVal("spad_accesses", spadAcc)
	s.SetVal("fwd_msgs", fwdSent)
	s.SetVal("fwd_elems", fwdElems)
	var rd, wr, busyCh int64
	for _, ch := range m.channels {
		rd += ch.ReadLines
		wr += ch.WriteLines
		busyCh += ch.BusyCycles
	}
	s.SetVal("dram_lines_read", rd)
	s.SetVal("dram_lines_written", wr)
	s.SetVal("dram_bytes", (rd+wr)*int64(m.cfg.DRAM.LineBytes))
	s.SetVal("dram_busy_cycles", busyCh)
	s.SetVal("noc_msgs", m.mesh.MsgsSent)
	s.SetVal("noc_flit_cycles", m.mesh.FlitCycles)
	s.SetVal("noc_replicas", m.mesh.Replicas)
	return Report{Cycles: cycles, LaneBusy: busy, Stats: s}
}

// memCtrl bridges one DRAM channel to the NoC: requests in, responses
// (unicast or multicast) out.
type memCtrl struct {
	m    *Machine
	chn  int
	node int // cached NoC node id
	ch   *mem.Channel
	// held is the response that could not inject under backpressure
	// (valid when hasHeld), kept by value so holding never allocates.
	held    noc.Message
	hasHeld bool
}

func newMemCtrl(m *Machine, chn int, ch *mem.Channel) *memCtrl {
	return &memCtrl{m: m, chn: chn, node: m.topo.MemNode(chn), ch: ch}
}

// Tick drains NoC requests into the channel and channel responses back
// into the NoC.
func (mc *memCtrl) Tick(now sim.Cycle) {
	node := mc.node
	// Requests: accept while the channel has queue space.
	for mc.ch.QueueSpace() > 0 {
		msg, ok := mc.m.mesh.Pop(node)
		if !ok {
			break
		}
		if msg.Kind != noc.KindMemReq {
			panic(fmt.Sprintf("core: memctrl got message kind %d", msg.Kind))
		}
		_, write, _, _ := proto.SplitReqID(msg.A)
		mc.ch.Submit(mem.Request{ID: msg.A, Line: mem.Addr(msg.B), Write: write})
	}
	// Responses: one injection attempt per cycle, holding under
	// backpressure.
	if mc.hasHeld {
		if mc.m.mesh.TryInject(mc.held) {
			mc.hasHeld = false
		}
		return
	}
	r, ok := mc.ch.PopResponse(now)
	if !ok {
		return
	}
	msg := noc.Message{Kind: noc.KindMemResp, Src: node, Bytes: mc.m.cfg.DRAM.LineBytes}
	if req, isMcast := mc.m.mcast.lookup(r.ID); isMcast {
		msg.Mcast, msg.Dests = true, req.Dests
		msg.A, msg.B = req.Group, uint64(req.Seq)
		if s := mc.m.opts.Obs; s != nil {
			s.Emit(obs.Event{Cycle: int64(now), Kind: obs.KindMcastForward,
				Comp: int32(mc.chn), A: int64(req.Group), B: int64(req.Seq)})
		}
	} else {
		lane, _, _, _ := proto.SplitReqID(r.ID)
		msg.Dests, msg.A = noc.DestMask(mc.m.lanes[lane].node), r.ID
		if r.Write {
			msg.Bytes = 0 // ack only
		}
	}
	if !mc.m.mesh.TryInject(msg) {
		mc.held, mc.hasHeld = msg, true
	}
}

// Idle reports controller quiescence.
func (mc *memCtrl) Idle() bool { return !mc.hasHeld && mc.ch.Idle() }

// NextEvent reports when the controller can next act: immediately when
// a held response can retry injection, NoC requests wait and the
// channel can accept, or a matured response waits; at response maturity
// otherwise.
func (mc *memCtrl) NextEvent(now sim.Cycle) sim.Cycle {
	if mc.hasHeld {
		return now
	}
	if mc.m.mesh.Deliverable(mc.node) && mc.ch.QueueSpace() > 0 {
		return now
	}
	return mc.ch.RespNextAt()
}
