package noc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"taskstream/internal/sim"
)

// nodeSink drains one node's deliveries, as a lane or memory controller
// does: it forecasts now while a message waits, and logs each message
// with the cycle it popped it.
type nodeSink struct {
	m   *Mesh
	n   int
	got []string
}

func (s *nodeSink) Tick(now sim.Cycle) {
	for {
		msg, ok := s.m.Pop(s.n)
		if !ok {
			return
		}
		s.got = append(s.got, fmt.Sprintf("c%d:%d", now, msg.A))
	}
}

func (s *nodeSink) NextEvent(now sim.Cycle) sim.Cycle {
	if s.m.Deliverable(s.n) {
		return now
	}
	return sim.Never
}

func (s *nodeSink) Idle() bool { return !s.m.Deliverable(s.n) }

// timedMsg is a message offered for injection from cycle at on.
type timedMsg struct {
	at  sim.Cycle
	msg Message
}

// injector offers its messages in order, each from its cycle on, and
// retries a refused one every cycle.
type injector struct {
	m    *Mesh
	msgs []timedMsg
}

func (in *injector) Tick(now sim.Cycle) {
	for len(in.msgs) > 0 && in.msgs[0].at <= now && in.m.TryInject(in.msgs[0].msg) {
		in.msgs = in.msgs[1:]
	}
}

func (in *injector) NextEvent(now sim.Cycle) sim.Cycle {
	if len(in.msgs) == 0 {
		return sim.Never
	}
	return in.msgs[0].at
}

func (in *injector) Idle() bool { return len(in.msgs) == 0 }

// TestMeshWakes drives the mesh inside an engine between an injector
// registered before it and one sink per node, half registered before
// the mesh and half after, with bursts of unicast and multicast
// traffic separated by quiet stretches. With components asleep between
// events, the mesh's two wake edges — an injection wakes the mesh, a
// delivery wakes the node's sink — must pass the engine's missed-wake
// check every cycle and reproduce an every-cycle run's deliveries; the
// mesh must sleep through the quiet stretches.
func TestMeshWakes(t *testing.T) {
	const nodes = 12
	run := func(ff bool) ([][]string, *sim.Engine) {
		rng := rand.New(rand.NewSource(7))
		m := NewMesh(cfg(), nodes)
		in := &injector{m: m}
		for burst := sim.Cycle(0); burst < 4; burst++ {
			for k := 0; k < 40; k++ {
				msg := Message{Src: rng.Intn(nodes), Bytes: 8 * (1 + rng.Intn(8)), A: uint64(len(in.msgs))}
				msg.Dests = DestMask(rng.Intn(nodes))
				if k%5 == 0 {
					msg.Dests |= DestMask(rng.Intn(nodes))
				}
				in.msgs = append(in.msgs, timedMsg{at: burst*500 + sim.Cycle(k/4), msg: msg})
			}
		}
		e := sim.NewEngine()
		e.FastForward = ff
		e.Register("injector", in)
		sinks := make([]*nodeSink, nodes)
		wakers := make([]sim.Waker, nodes)
		add := func(n int) {
			sinks[n] = &nodeSink{m: m, n: n}
			wakers[n] = e.Waker(e.Register(fmt.Sprintf("sink%d", n), sinks[n]))
		}
		for n := 0; n < nodes; n += 2 {
			add(n)
		}
		self := e.Waker(e.Register("mesh", m))
		for n := 1; n < nodes; n += 2 {
			add(n)
		}
		m.SetWake(self, wakers)
		for !in.Idle() || !m.Idle() {
			if e.Now() > 5000 {
				t.Fatalf("ff=%v: traffic not drained by cycle %d", ff, e.Now())
			}
			e.Step()
			if err := e.CheckWakes(); err != nil {
				t.Fatalf("ff=%v, cycle %d: %v", ff, e.Now()-1, err)
			}
		}
		var got [][]string
		for _, s := range sinks {
			got = append(got, s.got)
		}
		return got, e
	}
	want, slow := run(false)
	got, e := run(true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("deliveries with sleeping components differ from the every-cycle run:\n got %v\nwant %v", got, want)
	}
	if e.Ticks*3 > slow.Ticks {
		t.Fatalf("%d ticks with sleeping components, %d every cycle: the mesh and sinks did not sleep", e.Ticks, slow.Ticks)
	}
}
