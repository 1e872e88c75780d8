package proto

import "taskstream/internal/sim"

// Body pooling. The simulator's heap profile is dominated by interface
// boxing of message bodies: every line request, line response, and
// forward notification allocates a fresh body to place inside
// noc.Message's interface field. Pooling the three body types removes
// ~95% of steady-state allocations (see DESIGN.md §16). Bodies travel
// as pointers (*MemReqBody, *MemRespBody, *ForwardBody) with
// single-consumer ownership: whoever consumes the message frees the
// body back to its pool. McastLineBody is deliberately NOT pooled — a
// multicast delivery shares one Body value across every replica, so
// per-consumer frees would double-free; it stays a by-value body.
//
// Ownership map for this machine:
//   - *MemReqBody: allocated by a stream engine (or freed-on-inject-
//     fail), freed by the memory controller after Submit.
//   - *MemRespBody: allocated by the memory controller, freed by the
//     receiving stream engine in OnMessage (every arm, including write
//     acks and index arrivals).
//   - *ForwardBody: allocated by the producer stream engine, freed by
//     the consumer in OnMessage.

// Pool allocates and recycles the pooled message body types; Get
// methods return zeroed bodies. One pool serves a whole machine, so a
// body freed by its consumer is reused by whichever component
// allocates next. Not safe for concurrent use.
type Pool struct {
	req  sim.Slab[MemReqBody]
	resp sim.Slab[MemRespBody]
	fwd  sim.Slab[ForwardBody]
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

func (p *Pool) GetReq() *MemReqBody    { return p.req.Get() }
func (p *Pool) PutReq(b *MemReqBody)   { p.req.Put(b) }
func (p *Pool) GetResp() *MemRespBody  { return p.resp.Get() }
func (p *Pool) PutResp(b *MemRespBody) { p.resp.Put(b) }
func (p *Pool) GetFwd() *ForwardBody   { return p.fwd.Get() }
func (p *Pool) PutFwd(b *ForwardBody)  { p.fwd.Put(b) }
