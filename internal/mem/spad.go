package mem

import (
	"taskstream/internal/config"
	"taskstream/internal/sim"
)

// Spad models a lane-private banked scratchpad. Accesses are
// element-granularity, have a fixed two-cycle latency, and each bank
// services at most one access per cycle; bank conflicts serialize. The
// scratchpad is a pure timing structure — functional scratchpad state
// lives in Storage like everything else, at addresses carved out of the
// global space by the workload's allocator.
type Spad struct {
	cfg     config.Spad
	pending []*sim.Queue[Request]
	resp    *sim.Pipe[Response]
}

// SpadLatency is the access latency in cycles.
const SpadLatency = 2

// NewSpad returns a scratchpad with the given parameters.
func NewSpad(cfg config.Spad) *Spad {
	s := &Spad{cfg: cfg, resp: sim.NewPipe[Response](SpadLatency)}
	for i := 0; i < cfg.Banks; i++ {
		s.pending = append(s.pending, sim.NewQueue[Request](64))
	}
	return s
}

// bankOf maps an element address to its bank (element interleaved).
func (s *Spad) bankOf(a Addr) int {
	return int(a / ElemBytes % Addr(s.cfg.Banks))
}

// Submit enqueues an element access, reporting false under
// backpressure on the target bank.
func (s *Spad) Submit(r Request) bool {
	return s.pending[s.bankOf(r.Line)].Push(r)
}

// Tick services one access per bank per cycle.
func (s *Spad) Tick(now sim.Cycle) {
	for _, q := range s.pending {
		r, ok := q.Pop()
		if !ok {
			continue
		}
		s.resp.Send(now, Response{ID: r.ID, Line: r.Line, Write: r.Write})
	}
}

// PopResponse returns a matured access, if any.
func (s *Spad) PopResponse(now sim.Cycle) (Response, bool) {
	return s.resp.Recv(now)
}

// NextEvent reports when the scratchpad can next act: immediately while
// any bank has pending accesses, otherwise at the maturity of the
// earliest in-flight response (drained by the owning lane's engine).
func (s *Spad) NextEvent(now sim.Cycle) sim.Cycle {
	for _, q := range s.pending {
		if !q.Empty() {
			return now
		}
	}
	return s.resp.NextAt()
}

// Idle reports whether all banks are drained.
func (s *Spad) Idle() bool {
	for _, q := range s.pending {
		if !q.Empty() {
			return false
		}
	}
	return s.resp.Empty()
}
