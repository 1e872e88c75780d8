package stream

import (
	"fmt"

	"taskstream/internal/config"
	"taskstream/internal/mem"
	"taskstream/internal/noc"
	"taskstream/internal/obs"
	"taskstream/internal/proto"
	"taskstream/internal/sim"
)

// Injector is the engine's view of the NoC injection port.
type Injector interface {
	TryInject(noc.Message) bool
}

// Engine is one lane's stream engine: a set of read contexts feeding
// the fabric's input ports and write contexts draining its output
// ports. It issues line requests over the NoC, tracks arrivals, and
// exposes element availability to the fabric.
type Engine struct {
	lane      int
	topo      proto.Topology
	cfg       config.Config
	inj       Injector
	spad      *mem.Spad
	reads     []*readCtx
	writes    []*writeCtx
	maxOut    int // per-context outstanding line requests
	reqBudget int // request injections per cycle

	// selfNode, laneNodes, and memNodes cache the Topology node lookups
	// (O(nodes·channels) each) off the per-message path.
	selfNode  int
	laneNodes []int
	memNodes  []int

	// mcBuf buffers multicast line arrivals for groups whose consuming
	// task has not yet programmed its port (the lane-level multicast
	// fill buffer). Entries persist for the machine's lifetime; see
	// DESIGN.md on memory accounting simplifications.
	mcBuf map[uint64]map[int]bool

	// Response routing: memory-path read contexts are addressed by a
	// small rotating id so that current and prefetched contexts can
	// have responses in flight simultaneously.
	ctxSeq      int
	ctxByID     map[int]*readCtx
	aheadSetups []ReadSetup
	aheadCtxs   []*readCtx

	// Stats.
	DRAMLinesRequested int64
	DRAMLinesWritten   int64
	SpadAccesses       int64
	FwdMsgsSent        int64
	FwdElemsRecv       int64

	// obs, when non-nil, receives span issue/complete events; now is
	// the engine's view of the current cycle (messages are delivered
	// outside Tick, so the lane refreshes it via SetCycle).
	obs *obs.Sink
	now sim.Cycle
}

// idxPortBias distinguishes gather-index requests from value requests
// in the ReqID routing field; ctxIDSpace bounds rotating context ids
// below it.
const (
	idxPortBias = 64
	ctxIDSpace  = 64
)

// NewEngine builds a stream engine for the given lane.
func NewEngine(lane int, cfg config.Config, topo proto.Topology, inj Injector, spad *mem.Spad) *Engine {
	e := &Engine{
		lane:      lane,
		topo:      topo,
		cfg:       cfg,
		inj:       inj,
		spad:      spad,
		maxOut:    32,
		reqBudget: 4,
		mcBuf:     make(map[uint64]map[int]bool),
		ctxByID:   make(map[int]*readCtx),
	}
	e.selfNode = topo.LaneNode(lane)
	e.laneNodes = make([]int, topo.Lanes)
	for i := range e.laneNodes {
		e.laneNodes[i] = topo.LaneNode(i)
	}
	e.memNodes = make([]int, topo.Channels)
	for c := range e.memNodes {
		e.memNodes[c] = topo.MemNode(c)
	}
	e.reads = make([]*readCtx, cfg.Fabric.NumPorts)
	e.writes = make([]*writeCtx, cfg.Fabric.NumPorts)
	for i := range e.reads {
		e.reads[i] = &readCtx{}
		e.writes[i] = &writeCtx{}
	}
	return e
}

// SetObs attaches the observability sink; nil detaches it.
func (e *Engine) SetObs(s *obs.Sink) { e.obs = s }

// SetCycle refreshes the engine's notion of the current cycle so that
// events emitted from message handlers (which run outside Tick) carry
// the right stamp.
func (e *Engine) SetCycle(now sim.Cycle) { e.now = now }

// readCtx tracks one input port's stream progress.
type readCtx struct {
	kind     SrcKind
	id       int // response-routing id (SrcDRAM/SrcSpad)
	n        int
	consumed int
	avail    int // elements deliverable to the fabric

	// SrcDRAM / SrcSpad value spans.
	spans   []Span
	issued  int
	arrived []bool
	prefix  int // spans arrived in prefix order
	outst   int

	// Gather index spans (SrcDRAM only).
	idxSpans   []Span
	idxIssued  int
	idxArrived []bool
	idxPrefix  int
	idxElems   int
	idxOutst   int

	// SrcSpad per-element tracking.
	spadAddrs   []mem.Addr
	spadIssued  int
	spadArrived []bool
	spadPrefix  int

	// SrcMulticast.
	group    uint64
	mcArr    []bool
	mcCount  int
	headSkip int
}

// writeCtx tracks one output port's stream progress.
type writeCtx struct {
	kind     DstKind
	n        int
	produced int // elements pushed by the fabric
	pending  int // produced but not yet shipped

	spans   []Span
	shipped int // spans shipped (DstDRAM)
	acked   int // spans acked (DstDRAM)

	spadAddrs   []mem.Addr
	spadShipped int
	spadAcked   int

	consumerLane int
	consumerPort int
	fwdShipped   int
	gate         *bool
}

// newReadCtx builds a read context and, for kinds whose responses
// return over the memory path, registers it for response routing.
func (e *Engine) newReadCtx(s ReadSetup) *readCtx {
	ctx := &readCtx{kind: s.Kind, n: s.N}
	switch s.Kind {
	case SrcNone:
	case SrcConst:
		ctx.avail = s.N
	case SrcDRAM:
		if len(s.IdxAddrs) > 0 {
			ctx.spans = BuildGatherSpans(s.Addrs, e.cfg.DRAM.LineBytes)
			ctx.idxSpans = BuildSpans(s.IdxAddrs, e.cfg.DRAM.LineBytes)
			ctx.idxArrived = make([]bool, len(ctx.idxSpans))
		} else {
			ctx.spans = BuildSpans(s.Addrs, e.cfg.DRAM.LineBytes)
		}
		ctx.arrived = make([]bool, len(ctx.spans))
	case SrcSpad:
		ctx.spadAddrs = s.Addrs
		ctx.spadArrived = make([]bool, s.N)
	case SrcForward:
	case SrcMulticast:
		ctx.group = s.Group
		ctx.mcArr = make([]bool, s.Lines)
		ctx.headSkip = s.HeadSkip
		// Replay lines that arrived before the port was programmed.
		for seq := range e.mcBuf[s.Group] {
			if seq < len(ctx.mcArr) && !ctx.mcArr[seq] {
				ctx.mcArr[seq] = true
				ctx.mcCount++
			}
		}
		e.advanceMcast(ctx)
	default:
		panic(fmt.Sprintf("stream: unknown SrcKind %d", s.Kind))
	}
	if s.Kind == SrcDRAM || s.Kind == SrcSpad {
		e.ctxSeq = (e.ctxSeq + 1) % ctxIDSpace
		if _, clash := e.ctxByID[e.ctxSeq]; clash {
			panic("stream: read-context id space exhausted")
		}
		ctx.id = e.ctxSeq
		e.ctxByID[ctx.id] = ctx
		e.retireIfDone(ctx) // empty streams route no responses
	}
	return ctx
}

// retireIfDone removes a fully arrived context from response routing.
func (e *Engine) retireIfDone(c *readCtx) {
	switch c.kind {
	case SrcDRAM:
		if c.prefix == len(c.arrived) && c.idxPrefix == len(c.idxArrived) {
			delete(e.ctxByID, c.id)
		}
	case SrcSpad:
		if c.spadPrefix == c.n {
			delete(e.ctxByID, c.id)
		}
	}
}

// SetupRead programs input port p for the coming task.
func (e *Engine) SetupRead(p int, s ReadSetup) {
	e.reads[p] = e.newReadCtx(s)
}

// SetupAhead arms a prefetch for the next queued task: DRAM and
// scratchpad read streams begin issuing immediately (with leftover
// request budget), hiding the next task's startup latency behind the
// current task — the task-queue argument prefetch of the execution
// model. Forward, multicast, and constant ports are not prefetched
// (their landing buffers and gates already decouple arrival from
// setup); their setups are stored and applied at Promote.
func (e *Engine) SetupAhead(setups []ReadSetup) {
	if len(setups) != len(e.reads) {
		panic("stream: SetupAhead needs one setup per port")
	}
	e.aheadSetups = append([]ReadSetup(nil), setups...)
	e.aheadCtxs = make([]*readCtx, len(setups))
	for p, s := range setups {
		if s.Kind == SrcDRAM || s.Kind == SrcSpad {
			e.aheadCtxs[p] = e.newReadCtx(s)
		}
	}
}

// HasAhead reports whether a prefetch is armed.
func (e *Engine) HasAhead() bool { return e.aheadCtxs != nil }

// Promote installs the prefetched task's read contexts as current.
func (e *Engine) Promote() {
	if e.aheadCtxs == nil {
		panic("stream: Promote without SetupAhead")
	}
	for p := range e.reads {
		if e.aheadCtxs[p] != nil {
			e.reads[p] = e.aheadCtxs[p]
		} else {
			e.SetupRead(p, e.aheadSetups[p])
		}
	}
	e.aheadCtxs, e.aheadSetups = nil, nil
}

// SetupWrite programs output port p for the coming task.
func (e *Engine) SetupWrite(p int, s WriteSetup) {
	ctx := &writeCtx{kind: s.Kind, n: s.N,
		consumerLane: s.ConsumerLane, consumerPort: s.ConsumerPort, gate: s.Gate}
	switch s.Kind {
	case DstNone, DstDiscard, DstForward:
	case DstDRAM:
		ctx.spans = BuildSpans(s.Addrs, e.cfg.DRAM.LineBytes)
	case DstSpad:
		ctx.spadAddrs = s.Addrs
	default:
		panic(fmt.Sprintf("stream: unknown DstKind %d", s.Kind))
	}
	e.writes[p] = ctx
}

// Avail returns how many elements input port p can deliver right now.
func (e *Engine) Avail(p int) int {
	c := e.reads[p]
	return c.avail - c.consumed
}

// Consume removes k elements from input port p (fabric firing).
func (e *Engine) Consume(p, k int) {
	c := e.reads[p]
	if c.consumed+k > c.avail {
		panic("stream: consuming unavailable elements")
	}
	c.consumed += k
}

// OutSpace reports whether output port p can accept k more elements.
// DRAM and scratchpad writes are bounded by a write buffer; forwarding
// and discard are never a stall source (see DESIGN.md on deadlock
// freedom).
func (e *Engine) OutSpace(p, k int) bool {
	c := e.writes[p]
	switch c.kind {
	case DstDRAM, DstSpad:
		return c.pending+k <= writeBufElems
	default:
		return true
	}
}

// writeBufElems is the per-port write-coalescing buffer capacity.
const writeBufElems = 64

// Produce pushes k elements into output port p (fabric firing).
func (e *Engine) Produce(p, k int) {
	c := e.writes[p]
	c.produced += k
	c.pending += k
	if c.produced > c.n {
		panic("stream: producing beyond programmed length")
	}
}

// Done reports whether every programmed stream has fully drained: all
// input elements consumed and all output elements shipped and
// acknowledged.
func (e *Engine) Done() bool {
	for _, c := range e.reads {
		if c.kind == SrcNone {
			continue
		}
		if c.consumed < c.n {
			return false
		}
	}
	for _, c := range e.writes {
		switch c.kind {
		case DstNone:
		case DstDiscard:
			if c.produced < c.n {
				return false
			}
		case DstDRAM:
			if c.produced < c.n || c.acked < len(c.spans) {
				return false
			}
		case DstSpad:
			if c.produced < c.n || c.spadAcked < c.n {
				return false
			}
		case DstForward:
			if c.fwdShipped < c.n {
				return false
			}
		}
	}
	return true
}

// Tick advances the engine: collect scratchpad responses, issue new
// requests under the per-cycle budget (current task first, armed
// prefetch with the leftovers), and ship pending writes.
func (e *Engine) Tick(now sim.Cycle) {
	e.now = now
	e.collectSpad(now)
	budget := e.reqBudget
	for _, c := range e.reads {
		budget = e.issueRead(c, budget)
	}
	for p := 0; p < len(e.writes); p++ {
		budget = e.issueWrite(p, budget)
	}
	if e.aheadCtxs != nil {
		for _, c := range e.aheadCtxs {
			if c == nil {
				continue
			}
			budget = e.issueRead(c, budget)
		}
	}
}

// NextEvent reports when the engine's own Tick can next act: now if any
// read context (current or prefetched) can issue a request or any write
// context can ship elements, Never otherwise. Arrivals are not engine
// events — the NoC, DRAM channels, and scratchpad forecast them; a
// gated forward port wakes when the consumer's lane flips the shared
// gate, which happens on a cycle the consumer's own forecast keeps
// executed.
func (e *Engine) NextEvent(now sim.Cycle) sim.Cycle {
	for _, c := range e.reads {
		if e.readIssuable(c) {
			return now
		}
	}
	for _, c := range e.aheadCtxs {
		if c != nil && e.readIssuable(c) {
			return now
		}
	}
	for _, c := range e.writes {
		if e.writeIssuable(c) {
			return now
		}
	}
	return sim.Never
}

// readIssuable mirrors issueRead's issue conditions: true when the
// context could inject at least one request this cycle given budget and
// a willing network (backpressure retries keep the forecast at "now",
// which is conservative and therefore sound).
func (e *Engine) readIssuable(c *readCtx) bool {
	switch c.kind {
	case SrcDRAM:
		if c.idxIssued < len(c.idxSpans) && c.idxOutst < e.maxOut {
			return true
		}
		return c.issued < len(c.spans) && c.outst < e.maxOut &&
			c.spans[c.issued].NeedIdx <= c.idxElems
	case SrcSpad:
		return c.spadIssued < c.n
	}
	return false
}

// writeIssuable mirrors issueWrite's shipping conditions.
func (e *Engine) writeIssuable(c *writeCtx) bool {
	switch c.kind {
	case DstDiscard, DstSpad:
		return c.pending > 0
	case DstDRAM:
		return c.shipped < len(c.spans) && c.pending >= c.spans[c.shipped].Elems
	case DstForward:
		return c.pending > 0 && (c.gate == nil || *c.gate)
	}
	return false
}

// issueRead issues requests for a read context, returning remaining
// budget.
func (e *Engine) issueRead(c *readCtx, budget int) int {
	switch c.kind {
	case SrcDRAM:
		// Index spans first: gathers are gated on index arrival.
		for budget > 0 && c.idxIssued < len(c.idxSpans) && c.idxOutst < e.maxOut {
			sp := c.idxSpans[c.idxIssued]
			if !e.sendLineReq(sp.Line, false, c.id+idxPortBias, int64(c.idxIssued)) {
				return 0
			}
			c.idxIssued++
			c.idxOutst++
			budget--
		}
		for budget > 0 && c.issued < len(c.spans) && c.outst < e.maxOut {
			sp := c.spans[c.issued]
			if sp.NeedIdx > c.idxElems {
				break // gather gated on indices not yet arrived
			}
			if !e.sendLineReq(sp.Line, false, c.id, int64(c.issued)) {
				return 0
			}
			if e.obs != nil {
				e.obs.Emit(obs.Event{Cycle: int64(e.now), Kind: obs.KindSpanIssue,
					Comp: int32(e.lane), A: int64(sp.Line), B: int64(sp.Elems)})
			}
			c.issued++
			c.outst++
			budget--
		}
	case SrcSpad:
		// Up to PortWidth element requests per cycle.
		for i := 0; i < e.cfg.Fabric.PortWidth && c.spadIssued < c.n; i++ {
			a := c.spadAddrs[c.spadIssued]
			ok := e.spad.Submit(mem.Request{
				ID:   proto.MakeReqID(e.lane, false, c.id, int64(c.spadIssued)),
				Line: a,
			})
			if !ok {
				break
			}
			e.SpadAccesses++
			c.spadIssued++
		}
	}
	return budget
}

// issueWrite ships pending output elements for port p.
func (e *Engine) issueWrite(p, budget int) int {
	c := e.writes[p]
	switch c.kind {
	case DstDiscard:
		c.pending = 0
	case DstDRAM:
		for budget > 0 && c.shipped < len(c.spans) {
			sp := c.spans[c.shipped]
			if c.pending < sp.Elems {
				break
			}
			if !e.sendLineReq(sp.Line, true, p, int64(c.shipped)) {
				return 0
			}
			c.pending -= sp.Elems
			c.shipped++
			budget--
		}
	case DstSpad:
		for i := 0; i < e.cfg.Fabric.PortWidth && c.pending > 0; i++ {
			a := c.spadAddrs[c.spadShipped]
			ok := e.spad.Submit(mem.Request{
				ID:    proto.MakeReqID(e.lane, true, p, int64(c.spadShipped)),
				Line:  a,
				Write: true,
			})
			if !ok {
				break
			}
			e.SpadAccesses++
			c.spadShipped++
			c.pending--
		}
	case DstForward:
		if c.gate != nil && !*c.gate {
			break // consumer not yet started; hold shipments
		}
		if c.pending > 0 {
			k := c.pending
			if k > e.cfg.Fabric.PortWidth {
				k = e.cfg.Fabric.PortWidth
			}
			msg := noc.Message{
				Kind:  noc.KindForward,
				Src:   e.selfNode,
				Dests: noc.DestMask(e.laneNodes[c.consumerLane]),
				Bytes: k * mem.ElemBytes,
				A:     uint64(c.consumerPort),
				B:     uint64(k),
			}
			if e.inj.TryInject(msg) {
				c.pending -= k
				c.fwdShipped += k
				e.FwdMsgsSent++
			}
		}
	}
	return budget
}

// sendLineReq injects one line request, reporting success.
func (e *Engine) sendLineReq(line mem.Addr, write bool, port int, seq int64) bool {
	chn := mem.ChannelOf(line, e.cfg.DRAM.LineBytes, e.topo.Channels)
	bytes := 8
	if write {
		bytes = e.cfg.DRAM.LineBytes // write data travels with the request
	}
	msg := noc.Message{
		Kind:  noc.KindMemReq,
		Src:   e.selfNode,
		Dests: noc.DestMask(e.memNodes[chn]),
		Bytes: bytes,
		A:     proto.MakeReqID(e.lane, write, port, seq),
		B:     uint64(line),
	}
	if !e.inj.TryInject(msg) {
		return false
	}
	if write {
		e.DRAMLinesWritten++
	} else {
		e.DRAMLinesRequested++
	}
	return true
}

// OnMessage handles a NoC delivery addressed to this lane: a memory
// response (a unicast line or write ack, or a multicast line) or a
// forward.
func (e *Engine) OnMessage(msg noc.Message) {
	switch {
	case msg.Kind == noc.KindMemResp && msg.Mcast:
		group, seq := msg.A, int(msg.B)
		buf := e.mcBuf[group]
		if buf == nil {
			buf = make(map[int]bool)
			e.mcBuf[group] = buf
		}
		buf[seq] = true
		for _, c := range e.reads {
			if c.kind != SrcMulticast || c.group != group {
				continue
			}
			if seq < len(c.mcArr) && !c.mcArr[seq] {
				c.mcArr[seq] = true
				c.mcCount++
				e.advanceMcast(c)
			}
		}
	case msg.Kind == noc.KindMemResp:
		lane, write, route, seq := proto.SplitReqID(msg.A)
		if lane != e.lane {
			panic("stream: response for another lane")
		}
		if write {
			e.writes[route].acked++
			return
		}
		isIdx := route >= idxPortBias
		if isIdx {
			route -= idxPortBias
		}
		c := e.ctxByID[route]
		if c == nil {
			panic("stream: response for unknown read context")
		}
		if isIdx {
			c.idxArrived[seq] = true
			c.idxOutst--
			for c.idxPrefix < len(c.idxArrived) && c.idxArrived[c.idxPrefix] {
				c.idxElems += c.idxSpans[c.idxPrefix].Elems
				c.idxPrefix++
			}
			e.retireIfDone(c)
			return
		}
		c.arrived[seq] = true
		c.outst--
		before := c.avail
		for c.prefix < len(c.arrived) && c.arrived[c.prefix] {
			c.avail += c.spans[c.prefix].Elems
			c.prefix++
		}
		if e.obs != nil {
			e.obs.Emit(obs.Event{Cycle: int64(e.now), Kind: obs.KindSpanComplete,
				Comp: int32(e.lane), A: seq, B: int64(c.avail - before)})
		}
		e.retireIfDone(c)
	case msg.Kind == noc.KindForward:
		port, count := int(msg.A), int(msg.B)
		c := e.reads[port]
		if c.kind != SrcForward {
			panic("stream: forward delivery to non-forward port")
		}
		c.avail += count
		e.FwdElemsRecv += int64(count)
	default:
		panic(fmt.Sprintf("stream: unexpected message kind %d", msg.Kind))
	}
}

// advanceMcast recomputes a multicast context's availability from its
// arrived-line count. Multicast fills land in the lane's per-group
// landing buffer (mcBuf), which the port drains in stream order with
// full-buffer visibility — so availability tracks the count of arrived
// lines rather than the in-order prefix (lines from different channels
// and multicast tree branches legitimately arrive out of order).
func (e *Engine) advanceMcast(c *readCtx) {
	elemsPerLine := e.cfg.DRAM.LineBytes / mem.ElemBytes
	av := c.mcCount*elemsPerLine - c.headSkip
	if av < 0 {
		av = 0
	}
	if av > c.n {
		av = c.n
	}
	c.avail = av
}

// collectSpad drains matured scratchpad responses.
func (e *Engine) collectSpad(now sim.Cycle) {
	for {
		r, ok := e.spad.PopResponse(now)
		if !ok {
			return
		}
		_, write, route, seq := proto.SplitReqID(r.ID)
		if write {
			e.writes[route].spadAcked++
			continue
		}
		c := e.ctxByID[route]
		if c == nil {
			panic("stream: scratchpad response for unknown read context")
		}
		c.spadArrived[seq] = true
		for c.spadPrefix < len(c.spadArrived) && c.spadArrived[c.spadPrefix] {
			c.spadPrefix++
		}
		c.avail = c.spadPrefix
		e.retireIfDone(c)
	}
}
