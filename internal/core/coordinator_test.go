package core

import (
	"fmt"
	"strings"
	"testing"

	"taskstream/internal/mem"
	"taskstream/internal/proto"
	"taskstream/internal/sim"
)

// newIdleMachine builds a machine with one trivial pending-free program
// so coordinator internals can be unit-tested directly.
func newIdleMachine(t *testing.T, lanes int) *Machine {
	t.Helper()
	prog := &Program{Name: "idle", Types: []*TaskType{copyType()}, NumPhases: 1}
	m, err := NewMachine(testConfig(lanes), prog, mem.NewStorage(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestChooseDistinctLanes(t *testing.T) {
	m := newIdleMachine(t, 4)
	c := m.coord
	lanes := c.distinctLanes(3)
	if len(lanes) != 3 {
		t.Fatalf("got %d lanes, want 3", len(lanes))
	}
	seen := map[int]bool{}
	for _, l := range lanes {
		if seen[l] {
			t.Fatalf("lane %d chosen twice", l)
		}
		seen[l] = true
	}
	if c.distinctLanes(5) != nil {
		t.Fatal("choosing more lanes than exist must fail")
	}
	// Work-aware preference: load lane 0 heavily, it must come last or
	// not at all in a partial pick.
	c.laneWork[0] = 1000
	pick := c.distinctLanes(1)
	if pick[0] == 0 {
		t.Fatal("least-loaded pick chose the most loaded lane")
	}
}

// TestChooseDistinctLanesRoundRobinWhenLBOff pins the fix for the
// group-lane chooser ignoring the round-robin preference: with
// work-aware balancing off, distinctLanes must follow the rotating
// cursor, not silently fall back to least-work order.
func TestChooseDistinctLanesRoundRobinWhenLBOff(t *testing.T) {
	m := newIdleMachine(t, 4)
	m.cfg.Task.EnableWorkAwareLB = false
	c := m.coord
	// A heavy load on lane 0 must not matter in round-robin mode.
	c.laneWork[0] = 1000
	if got := c.distinctLanes(2); got[0] != 0 || got[1] != 1 {
		t.Fatalf("rr group pick from cursor 0 = %v, want [0 1]", got)
	}
	if c.rr != 2 {
		t.Fatalf("cursor after group pick = %d, want 2", c.rr)
	}
	// The cursor keeps rotating across picks, wrapping at the end.
	if got := c.distinctLanes(3); got[0] != 2 || got[1] != 3 || got[2] != 0 {
		t.Fatalf("rr group pick from cursor 2 = %v, want [2 3 0]", got)
	}
}

func TestPickLaneRoundRobinWhenLBOff(t *testing.T) {
	m := newIdleMachine(t, 4)
	m.cfg.Task.EnableWorkAwareLB = false
	a := m.coord.pickLane(0)
	b := m.coord.pickLane(0)
	c := m.coord.pickLane(0)
	if a == b && b == c {
		t.Fatalf("round-robin must rotate, got %d,%d,%d", a, b, c)
	}
}

func TestEffectiveHintModes(t *testing.T) {
	m := newIdleMachine(t, 2)
	task := &Task{Key: 7, WorkHint: 100}
	if got := m.effectiveHint(task); got != 100 {
		t.Fatalf("exact hint = %d, want 100", got)
	}
	m.opts.Hints = HintNone
	if got := m.effectiveHint(task); got != 1 {
		t.Fatalf("hint-none = %d, want 1", got)
	}
	m.opts.Hints = HintNoisy
	h := m.effectiveHint(task)
	if h < 25 || h > 400 {
		t.Fatalf("noisy hint = %d, want within [hint/4, hint*4]", h)
	}
	if h2 := m.effectiveHint(task); h2 != h {
		t.Fatal("noisy hints must be deterministic per task key")
	}
	// Default estimate when no hint is set: sum of input lengths.
	m.opts.Hints = HintExact
	task2 := &Task{Ins: []InArg{{Kind: ArgDRAMLinear, N: 40}, {Kind: ArgConst}}}
	if got := m.effectiveHint(task2); got != 40 {
		t.Fatalf("default hint = %d, want 40", got)
	}
}

func TestStaticPartitionIsContiguousBlocks(t *testing.T) {
	// 8 tasks over 4 lanes → tasks i*4/8: 0,0,1,1,2,2,3,3.
	m := newIdleMachine(t, 4)
	c := newCoordinator(m, PolicyStatic)
	for i := 0; i < 8; i++ {
		c.accept(Task{Type: 0, Key: uint64(i),
			Ins:  []InArg{{Kind: ArgDRAMLinear, Base: 64, N: 0}},
			Outs: []OutArg{{Kind: OutDiscard, N: 0}}})
	}
	// Trigger the partition build via one dispatch attempt.
	if !c.dispatchOne() {
		t.Fatal("static dispatch found no lane")
	}
	// After one dispatch the assignment list has 7 entries left; the
	// original pattern is block-contiguous.
	want := []int{0, 1, 1, 2, 2, 3, 3}
	if len(c.assigned) != len(want) {
		t.Fatalf("assigned = %v", c.assigned)
	}
	for i, w := range want {
		if c.assigned[i] != w {
			t.Fatalf("assignment[%d] = %d, want %d (%v)", i, c.assigned[i], w, c.assigned)
		}
	}
}

func TestMcastManagerGrouping(t *testing.T) {
	mm := newMcastManager(10, 64)
	g1 := mm.join(0x1000, 16, 0, 0)
	g2 := mm.join(0x1000, 16, 3, 5) // same range within window: joins
	if g1 != g2 {
		t.Fatal("same-range joins within the window must share a group")
	}
	if g1.dests != (1<<0 | 1<<3) {
		t.Fatalf("group = %+v", g1)
	}
	if g1.lines != 2 {
		t.Fatalf("16 elems from 0x1000 = 2 lines, got %d", g1.lines)
	}
	g3 := mm.join(0x2000, 16, 1, 5) // different range: new group
	if g3 == g1 {
		t.Fatal("different ranges must not share a group")
	}
	if mm.Groups != 2 || mm.MemberJoins != 3 {
		t.Fatalf("stats: groups=%d joins=%d", mm.Groups, mm.MemberJoins)
	}
	if mm.LinesSaved != int64(g1.lines) {
		t.Fatalf("lines saved = %d, want %d", mm.LinesSaved, g1.lines)
	}
}

func TestMcastManagerWindowCloses(t *testing.T) {
	mm := newMcastManager(10, 64)
	g1 := mm.join(0x1000, 8, 0, 0)
	var issued []proto.McastReq
	submit := func(r proto.McastReq) bool { issued = append(issued, r); return true }
	mm.tick(5, 8, submit) // window not expired
	if len(issued) != 0 {
		t.Fatal("group issued before its window closed")
	}
	mm.tick(10, 8, submit) // closes and issues
	if len(issued) != g1.lines {
		t.Fatalf("issued %d lines, want %d", len(issued), g1.lines)
	}
	// A join after closing opens a fresh group.
	g2 := mm.join(0x1000, 8, 1, 11)
	if g2 == g1 {
		t.Fatal("closed group must not accept joiners")
	}
	if mm.drained() {
		t.Fatal("manager with an open group is not drained")
	}
}

func TestMcastManagerBackpressureRotates(t *testing.T) {
	mm := newMcastManager(0, 64)
	mm.join(0x1000, 64, 0, 0) // 8 lines
	mm.join(0x9000, 64, 1, 0) // 8 lines
	refuse := func(proto.McastReq) bool { return false }
	mm.tick(1, 8, refuse) // everything refused: nothing issued, no spin
	var got []proto.McastReq
	accept := func(r proto.McastReq) bool { got = append(got, r); return true }
	mm.tick(2, 4, accept)
	if len(got) != 4 {
		t.Fatalf("budget 4 must issue 4 lines, got %d", len(got))
	}
	// Round-robin: both groups progress.
	groups := map[uint64]bool{}
	for _, r := range got {
		groups[r.Group] = true
	}
	if len(groups) != 2 {
		t.Fatalf("issue must round-robin across groups, saw %v", groups)
	}
}

// TestMcastIssueAllocatesNothing: a group issuing under channel
// refusal retries every cycle, and rotating the issue order must not
// allocate.
func TestMcastIssueAllocatesNothing(t *testing.T) {
	mm := newMcastManager(0, 64)
	mm.join(0x1000, 64, 0, 0) // 8 lines
	refuse := func(proto.McastReq) bool { return false }
	mm.tick(1, 8, refuse) // closes the group into the issue list
	if len(mm.issuing) != 1 {
		t.Fatalf("%d groups issuing, want 1", len(mm.issuing))
	}
	now := sim.Cycle(2)
	if a := testing.AllocsPerRun(100, func() { mm.tick(now, 8, refuse); now++ }); a != 0 {
		t.Fatalf("a refused issue attempt allocates %v times", a)
	}
}

// TestMcastIssueOrder pins the round-robin issue order across groups,
// refused and accepted submissions and a group finishing.
func TestMcastIssueOrder(t *testing.T) {
	mm := newMcastManager(0, 64)
	mm.join(0x1000, 16, 0, 0) // group 1: 2 lines
	mm.join(0x9000, 24, 1, 0) // group 2: 3 lines
	mm.join(0x5000, 8, 2, 0)  // group 3: 1 line
	var got []string
	n := 0
	submit := func(r proto.McastReq) bool {
		n++
		if n%3 == 0 {
			return false // every third attempt meets backpressure
		}
		got = append(got, fmt.Sprintf("g%d.%d", r.Group, r.Seq))
		return true
	}
	for now := sim.Cycle(1); !mm.drained(); now++ {
		mm.tick(now, 2, submit)
	}
	want := "g1.0 g2.0 g1.1 g2.1 g2.2 g3.0"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("issue order %q, want %q", s, want)
	}
}

func TestMcastDirectory(t *testing.T) {
	mm := newMcastManager(0, 64)
	req := proto.McastReq{Line: 0x40, Group: 9, Seq: 3, Dests: 0b110}
	mm.register(77, req)
	got, ok := mm.lookup(77)
	if !ok || got.Group != 9 || got.Seq != 3 {
		t.Fatalf("lookup = %+v, %v", got, ok)
	}
	if _, again := mm.lookup(77); again {
		t.Fatal("directory entries must be consumed once")
	}
}

func TestSpawnControlLatency(t *testing.T) {
	// A spawn announced at cycle c is not visible to dispatch before
	// c+ctlLatency.
	m := newIdleMachine(t, 2)
	for m.engine.Now() < 100 {
		m.engine.Step()
	}
	m.coord.spawn(Task{Type: 0, Phase: 0,
		Ins:  []InArg{{Kind: ArgDRAMLinear, Base: 64, N: 0}},
		Outs: []OutArg{{Kind: OutDiscard, N: 0}}})
	m.coord.Tick(100)
	if len(m.coord.pending[0])+m.coord.activeCount[0] != 0 {
		t.Fatal("spawn visible before control latency elapsed")
	}
	m.coord.Tick(100 + ctlLatency)
	if len(m.coord.pending[0])+m.coord.activeCount[0] != 1 {
		t.Fatal("spawn lost after control latency")
	}
	if m.coord.spawnInFlight != 0 {
		t.Fatal("in-flight counter must drain")
	}
}

func TestAllDoneAccounting(t *testing.T) {
	m := newIdleMachine(t, 2)
	if !m.coord.AllDone() {
		t.Fatal("empty program must be done")
	}
	m.coord.accept(Task{Type: 0, Phase: 0})
	if m.coord.AllDone() {
		t.Fatal("pending task must block completion")
	}
}

// TestPendingQueueRemoval pins the phase queue's removal contract
// (DESIGN.md §17): removing from the head, the middle or the tail
// keeps the remaining tasks in FIFO order, a head pop reslices past the
// slot instead of moving the rest, every vacated slot is zeroed, and a
// remove-then-accept cycle does not allocate.
func TestPendingQueueRemoval(t *testing.T) {
	const n = 4096
	c := newIdleMachine(t, 2).coord
	want := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		c.accept(Task{Type: 0, Key: uint64(i), Ins: []InArg{{Kind: ArgDRAMLinear, N: 1}}})
		want = append(want, uint64(i))
	}
	remove := func(i int) {
		t.Helper()
		old := c.pending[0]
		c.removePending(0, i)
		want = append(want[:i], want[i+1:]...)
		q := c.pending[0]
		if len(q) != len(want) {
			t.Fatalf("remove(%d): %d tasks left, want %d", i, len(q), len(want))
		}
		for j, k := range want {
			if q[j].Key != k {
				t.Fatalf("remove(%d): task %d has key %d, want %d", i, j, q[j].Key, k)
			}
		}
		vacated := len(old) - 1
		if i == 0 {
			if &q[0] != &old[1] {
				t.Fatal("head pop moved the queue instead of reslicing")
			}
			vacated = 0
		}
		if old[vacated].Ins != nil {
			t.Fatalf("remove(%d): vacated slot %d still holds its task", i, vacated)
		}
	}
	remove(0)
	remove(len(want) / 2)
	remove(len(want) - 1)
	remove(0)
	remove(1)

	for _, at := range []struct {
		name string
		idx  func() int
	}{
		{"middle", func() int { return len(c.pending[0]) / 2 }},
		{"tail", func() int { return len(c.pending[0]) - 1 }},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			i := at.idx()
			task := c.pending[0][i]
			c.removePending(0, i)
			c.accept(task)
		})
		if allocs != 0 {
			t.Errorf("%s remove-then-accept allocated %v times per run, want 0", at.name, allocs)
		}
	}
	if len(c.pending[0]) != len(want) {
		t.Fatalf("remove-then-accept changed the queue length to %d", len(c.pending[0]))
	}
}

func TestLaneQueueOverflowPanics(t *testing.T) {
	m := newIdleMachine(t, 1)
	l := m.lanes[0]
	for i := 0; i < m.cfg.Task.QueueDepth; i++ {
		l.enqueue(&resolved{})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("enqueue beyond QueueDepth must panic")
		}
	}()
	l.enqueue(&resolved{})
}

func TestCtlLatencyPositive(t *testing.T) {
	if ctlLatency <= 0 {
		t.Fatal("control network must have non-zero latency")
	}
}

func TestMachineRejectsTooManyNodes(t *testing.T) {
	prog := &Program{Name: "x", Types: []*TaskType{copyType()}, NumPhases: 1}
	cfg := testConfig(64) // 64 lanes + 4 channels > 64-node mesh
	if _, err := NewMachine(cfg, prog, mem.NewStorage(), Options{}); err == nil {
		t.Fatal("node overflow must be rejected")
	}
}

func TestPortDelta(t *testing.T) {
	// Proportional progress covers exactly N over F firings.
	for _, tc := range []struct{ n, f int }{{10, 4}, {7, 7}, {1, 5}, {0, 3}, {16, 4}} {
		sum := 0
		for f := 0; f < tc.f; f++ {
			d := portDelta(tc.n, f, tc.f)
			if d < 0 {
				t.Fatalf("negative delta n=%d f=%d", tc.n, f)
			}
			sum += d
		}
		if sum != tc.n {
			t.Fatalf("n=%d F=%d: deltas sum to %d", tc.n, tc.f, sum)
		}
	}
	if portDelta(5, 0, 0) != 0 {
		t.Fatal("zero firings must produce zero delta")
	}
}

func TestLaneIdleAtReset(t *testing.T) {
	m := newIdleMachine(t, 2)
	for _, l := range m.lanes {
		if !l.Idle() {
			t.Fatal("fresh lane must be idle")
		}
		l.Tick(sim.Cycle(0))
		if l.BusyCycles != 0 {
			t.Fatal("idle tick must not count as busy")
		}
	}
}
