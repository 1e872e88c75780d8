package mem

import (
	"taskstream/internal/config"
	"taskstream/internal/obs"
	"taskstream/internal/sim"
)

// Request is one line-granularity DRAM access. Requests carry an opaque
// ID that the issuer uses to match responses; the timing model never
// inspects payload data (the functional half lives in Storage).
type Request struct {
	// ID matches the response to the issuer's bookkeeping.
	ID uint64
	// Line is the line-aligned byte address.
	Line Addr
	// Write marks a store; stores are acknowledged after service like
	// loads (the ack models write-completion tracking for barriers).
	Write bool
}

// Response reports a serviced request.
type Response struct {
	ID    uint64
	Line  Addr
	Write bool
}

// Channel models one DRAM channel: a bounded request queue, a fixed
// service latency, and a line-serialization bandwidth limit. A channel
// accepts one request into service every LineBytes/BytesPerCycle
// cycles; the response matures LatencyCycles after service start plus
// the serialization time.
type Channel struct {
	cfg        config.DRAM
	queue      *sim.Queue[Request]
	resp       *sim.Pipe[Response]
	nextIssue  sim.Cycle
	servicePer sim.Cycle

	// Stats, readable by the owner.
	ReadLines  int64
	WriteLines int64

	// obs, when non-nil, receives a service-occupancy event per line;
	// obsID is the channel index those events carry.
	obs   *obs.Sink
	obsID int32

	// wake wakes the channel on Submit, and drain the component that
	// drains its responses when a service starts. Zero Wakers (the
	// default) do nothing.
	wake, drain sim.Waker
}

// NewChannel returns a channel with the given DRAM parameters.
func NewChannel(cfg config.DRAM) *Channel {
	per := sim.Cycle((cfg.LineBytes + cfg.BytesPerCycle - 1) / cfg.BytesPerCycle)
	if per < 1 {
		per = 1
	}
	return &Channel{
		cfg:        cfg,
		queue:      sim.NewQueue[Request](cfg.QueueDepth),
		resp:       sim.NewPipe[Response](0),
		servicePer: per,
	}
}

// SetObs attaches the observability sink; id is this channel's index.
func (ch *Channel) SetObs(s *obs.Sink, id int32) {
	ch.obs = s
	ch.obsID = id
}

// SetWake connects the channel to the engine's input edges: self wakes
// it when a request is submitted, and drain wakes its response drainer
// when a service starts, which frees a queue slot and schedules a
// response.
func (ch *Channel) SetWake(self, drain sim.Waker) {
	ch.wake, ch.drain = self, drain
}

// Submit enqueues a request, reporting false under backpressure.
func (ch *Channel) Submit(r Request) bool {
	if ch.queue.Full() {
		return false
	}
	ch.wake.Wake()
	ch.queue.Push(r)
	return true
}

// Tick advances the channel one cycle, starting service on the next
// queued request when the data bus frees up.
func (ch *Channel) Tick(now sim.Cycle) {
	if now < ch.nextIssue || ch.queue.Empty() {
		return
	}
	ch.drain.Wake()
	r, _ := ch.queue.Pop()
	ch.nextIssue = now + ch.servicePer
	done := now + sim.Cycle(ch.cfg.LatencyCycles) + ch.servicePer
	ch.resp.SendAt(done, Response{ID: r.ID, Line: r.Line, Write: r.Write})
	if ch.obs != nil {
		var w int64
		if r.Write {
			w = 1
		}
		ch.obs.Emit(obs.Event{Cycle: int64(now), Dur: int64(ch.servicePer),
			Kind: obs.KindDRAM, Comp: ch.obsID, A: int64(r.Line), B: w})
	}
	if r.Write {
		ch.WriteLines++
	} else {
		ch.ReadLines++
	}
}

// PopResponse returns a matured response, if any.
func (ch *Channel) PopResponse(now sim.Cycle) (Response, bool) {
	return ch.resp.Recv(now)
}

// Idle reports whether the channel has no queued or in-flight work.
func (ch *Channel) Idle() bool { return ch.queue.Empty() && ch.resp.Empty() }

// BusyCycles returns the cycles the data bus has spent serializing
// lines. Each service holds the bus for exactly servicePer cycles and
// its response matures only after them, so once every response has
// been delivered this is the number of lines served times servicePer.
func (ch *Channel) BusyCycles() int64 {
	return (ch.ReadLines + ch.WriteLines) * int64(ch.servicePer)
}

// NextEvent reports when the channel's own Tick can next act: with
// requests queued, the next service start (bounded below by the data
// bus freeing at nextIssue); with an empty queue, never — response
// maturity is the owner's event (see RespNextAt).
func (ch *Channel) NextEvent(now sim.Cycle) sim.Cycle {
	if ch.queue.Empty() {
		return sim.Never
	}
	if ch.nextIssue > now {
		return ch.nextIssue
	}
	return now
}

// RespNextAt returns the maturity cycle of the earliest in-flight
// response, or sim.Never — the forecast contribution of whichever
// component drains this channel's responses.
func (ch *Channel) RespNextAt() sim.Cycle { return ch.resp.NextAt() }

// QueueSpace returns remaining request-queue slots.
func (ch *Channel) QueueSpace() int { return ch.queue.Cap() - ch.queue.Len() }

// LineOf returns the line-aligned address containing a under cfg.
func LineOf(a Addr, lineBytes int) Addr { return a &^ Addr(lineBytes-1) }

// ChannelOf returns the channel index servicing the given line address:
// lines are interleaved round-robin across channels.
func ChannelOf(line Addr, lineBytes, channels int) int {
	return int(line / Addr(lineBytes) % Addr(channels))
}
