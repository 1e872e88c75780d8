package mem

import (
	"fmt"
	"reflect"
	"testing"

	"taskstream/internal/config"
	"taskstream/internal/sim"
)

// feeder stands in for a memory controller: requests arrive on listed
// cycles into a backlog that it submits while the channel has queue
// space, and it drains matured responses, logging each with the cycle
// it popped it. Its forecast reads the channel's queue space and
// response pipe, as the controller's does.
type feeder struct {
	ch      *Channel
	arrive  []sim.Cycle
	backlog int
	id      uint64
	got     []string
}

func (f *feeder) Tick(now sim.Cycle) {
	for len(f.arrive) > 0 && f.arrive[0] <= now {
		f.arrive = f.arrive[1:]
		f.backlog++
	}
	for f.backlog > 0 && f.ch.QueueSpace() > 0 {
		f.ch.Submit(Request{ID: f.id, Line: Addr(f.id * 64)})
		f.id++
		f.backlog--
	}
	for {
		r, ok := f.ch.PopResponse(now)
		if !ok {
			return
		}
		f.got = append(f.got, fmt.Sprintf("c%d:%d", now, r.ID))
	}
}

func (f *feeder) NextEvent(now sim.Cycle) sim.Cycle {
	if f.backlog > 0 && f.ch.QueueSpace() > 0 {
		return now
	}
	ev := f.ch.RespNextAt()
	if len(f.arrive) > 0 {
		ev = min(ev, f.arrive[0])
	}
	return ev
}

func (f *feeder) Idle() bool { return len(f.arrive) == 0 && f.backlog == 0 && f.ch.Idle() }

// TestChannelWakes drives a two-deep channel inside an engine behind a
// feeder registered before it, as the machine registers a memory
// controller before its channel, with bursts that overrun the queue.
// With components asleep between events, the channel's two wake edges
// — a submission wakes the channel, a service start wakes its drainer
// — must pass the engine's missed-wake check every cycle and reproduce
// an every-cycle run's responses.
func TestChannelWakes(t *testing.T) {
	run := func(ff bool) ([]string, *sim.Engine) {
		dc := config.Default8().DRAM
		dc.QueueDepth = 2
		ch := NewChannel(dc)
		f := &feeder{ch: ch}
		for burst := sim.Cycle(0); burst < 3; burst++ {
			for k := sim.Cycle(0); k < 6; k++ {
				f.arrive = append(f.arrive, burst*400+k/2)
			}
		}
		e := sim.NewEngine()
		e.FastForward = ff
		drain := e.Waker(e.Register("feeder", f))
		ch.SetWake(e.Waker(e.Register("dram", ch)), drain)
		for !f.Idle() {
			if e.Now() > 5000 {
				t.Fatalf("ff=%v: requests not served by cycle %d", ff, e.Now())
			}
			e.Step()
			if err := e.CheckWakes(); err != nil {
				t.Fatalf("ff=%v, cycle %d: %v", ff, e.Now()-1, err)
			}
		}
		if _, err := e.Run(nil); err != nil { // settles the slept cycles
			t.Fatal(err)
		}
		return f.got, e
	}
	want, slow := run(false)
	got, e := run(true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("responses %v with sleeping components; every cycle %v", got, want)
	}
	if e.Ticks*3 > slow.Ticks {
		t.Fatalf("%d ticks with sleeping components, %d every cycle: nothing slept", e.Ticks, slow.Ticks)
	}
}
