package core

import (
	"testing"

	"taskstream/internal/mem"
)

// respAllocProgram runs a memory-heavy steady state beside one shared
// read: six tasks each stream a private 2,048-element read into a
// 4,096-element write, and two share one 8-line read on port 0 (which
// the streaming tasks leave unused) beside a private 512-element read,
// whose responses reach their lanes before the shared lines do.
func respAllocProgram(st *mem.Storage) *Program {
	const private, out, shared, side = 2048, 4096, 64, 512
	al := mem.NewAllocator()
	tbl := al.AllocElems(shared)
	st.WriteElems(tbl, make([]uint64, shared))
	streamT := &TaskType{
		Name: "stream",
		DFG:  passDFG("stream"),
		Kernel: func(t *Task, in [][]uint64, st *mem.Storage) Result {
			return Result{Out: [][]uint64{nil, nil, make([]uint64, out)}}
		},
	}
	sumT := &TaskType{
		Name: "sum",
		DFG:  passDFG("sum"),
		Kernel: func(t *Task, in [][]uint64, st *mem.Storage) Result {
			var s uint64
			for _, v := range append(in[0], in[1]...) {
				s += v
			}
			return Result{Out: [][]uint64{{s}}}
		},
	}
	var tasks []Task
	for i := 0; i < 6; i++ {
		src, dst := al.AllocElems(private), al.AllocElems(out)
		st.WriteElems(src, make([]uint64, private))
		tasks = append(tasks, Task{
			Type: 0, Key: uint64(i),
			Ins:  []InArg{{}, {Kind: ArgDRAMLinear, Base: src, N: private}},
			Outs: []OutArg{{}, {}, {Kind: OutDRAMLinear, Base: dst, N: out}},
		})
	}
	for i := 6; i < 8; i++ {
		src := al.AllocElems(side)
		st.WriteElems(src, make([]uint64, side))
		tasks = append(tasks, Task{
			Type: 1, Key: uint64(i),
			Ins: []InArg{
				{Kind: ArgDRAMLinear, Base: tbl, N: shared, Shared: true},
				{Kind: ArgDRAMLinear, Base: src, N: side},
			},
			Outs: []OutArg{{Kind: OutDRAMLinear, Base: al.AllocElems(1), N: 1}},
		})
	}
	return &Program{Name: "respalloc", Types: []*TaskType{streamT, sumT}, NumPhases: 1, Tasks: tasks}
}

// TestMemResponsesAllocateNothing pins the memory-response path to zero
// heap allocations: a memory controller turns each DRAM response into a
// NoC message, unicast or multicast, and holds it by value under
// backpressure; the mesh and the lanes move and consume it. One-deep
// NoC buffers and 8-byte flits congest the mesh, so the measured
// window holds unicast read responses and write acks back at their
// controllers while multicast lines leave DRAM.
//
// The group's long coalescing window makes its lines leave DRAM once
// the streams run at steady state, past the cycles in which queues
// and rings grow to their working size. The measured window is centred
// on the cycle the first multicast line lands at a lane, which a
// reference run of the same deterministic program finds: a lane's
// landing buffer is sized when the task joins the group, so landing
// lines allocates nothing either.
func TestMemResponsesAllocateNothing(t *testing.T) {
	build := func() *Machine {
		cfg := testConfig(8)
		cfg.NoC.VCDepth = 1
		cfg.NoC.FlitBytes = 8
		cfg.Task.CoalesceWindowCycles = 1000
		st := mem.NewStorage()
		m, err := NewMachine(cfg, respAllocProgram(st), st, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	landed := func(m *Machine) bool {
		for _, l := range m.lanes {
			if l.eng.Avail(0) > 0 {
				return true
			}
		}
		return false
	}
	ref := build()
	for !landed(ref) {
		if ref.engine.Now() > 5000 {
			t.Fatal("no multicast line reached a lane in 5000 cycles")
		}
		ref.engine.Step()
	}
	land := ref.engine.Now() - 1 // the step that delivered the first line

	const window = 64
	m := build()
	for m.engine.Now() < land-2*window+window/2 {
		m.engine.Step()
	}
	// held counts responses newly held at a controller, by kind:
	// unicast read data, write ack, multicast line.
	var held [3]int
	var mcastLines int
	var sawLanding bool
	wasHeld := make([]bool, len(m.memctrls))
	steps := func() {
		held, mcastLines, sawLanding = [3]int{}, 0, false
		for i := 0; i < window; i++ {
			inFlight := len(m.mcast.directory)
			m.engine.Step()
			mcastLines += inFlight - len(m.mcast.directory)
			sawLanding = sawLanding || landed(m)
			for c, mc := range m.memctrls {
				if mc.hasHeld && !wasHeld[c] {
					switch {
					case mc.held.Mcast:
						held[2]++
					case mc.held.Bytes == 0:
						held[1]++
					default:
						held[0]++
					}
				}
				wasHeld[c] = mc.hasHeld
			}
		}
	}
	// One warm-up window, then the measured one, which spans land.
	allocs := testing.AllocsPerRun(1, steps)
	if mcastLines == 0 || held[0] == 0 || held[1] == 0 || !sawLanding {
		t.Fatalf("window lacks coverage: %d multicast lines left DRAM, held read/ack/mcast = %v, "+
			"multicast data reached a port %v", mcastLines, held, sawLanding)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations over a %d-cycle window of memory responses, want 0 "+
			"(%d multicast lines, held read/ack/mcast = %v)", allocs, window, mcastLines, held)
	}
	t.Logf("%d-cycle window: %d multicast lines, held read/ack/mcast = %v", window, mcastLines, held)
}
