package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// toyLane owns a counter, "fires" on cycles set by a per-lane
// deterministic schedule, and reports every firing to a shared log.
// Firing limit times completes it.
type toyLane struct {
	id     int
	period Cycle
	limit  int
	fired  int
	busy   int64 // time-linear accounting replayed by Skip
	log    *[]string
}

func (t *toyLane) Tick(now Cycle) {
	t.busy++
	if t.fired < t.limit && now%t.period == Cycle(t.id)%t.period {
		t.fired++
		*t.log = append(*t.log, fmt.Sprintf("c%d lane%d fire%d", now, t.id, t.fired))
	}
}

func (t *toyLane) Idle() bool { return t.fired >= t.limit }

func (t *toyLane) NextEvent(now Cycle) Cycle {
	if t.fired >= t.limit {
		return Never
	}
	for c := now; ; c++ {
		if c%t.period == Cycle(t.id)%t.period {
			return c
		}
	}
}

func (t *toyLane) Skip(from, to Cycle) { t.busy += int64(to - from) }

// buildToy wires nLanes toy lanes with staggered schedules into an
// engine.
func buildToy(nLanes int, ff bool) (*Engine, []*toyLane, *[]string) {
	log := &[]string{}
	e := NewEngine()
	e.FastForward = ff
	lanes := make([]*toyLane, nLanes)
	for i := range lanes {
		lanes[i] = &toyLane{id: i, period: Cycle(3 + i%4), limit: 5 + i%3, log: log}
		e.Register(fmt.Sprintf("lane%d", i), lanes[i])
	}
	return e, lanes, log
}

// TestHostProfIdentity pins the meter at the engine level: a run with
// fast-forwarding on produces exactly the cycle count, per-lane state,
// and ordered effect log of a cycle-by-cycle one, and each run's meter
// accounts for every cycle as executed or fast-forwarded.
func TestHostProfIdentity(t *testing.T) {
	defer ResetHostProf()
	type result struct {
		c     Cycle
		lanes []*toyLane
		log   []string
	}
	var runs []result
	for _, ff := range []bool{false, true} {
		ResetHostProf()
		e, lanes, log := buildToy(6, ff)
		c, err := e.Run(nil)
		if err != nil {
			t.Fatalf("ff=%v: run: %v", ff, err)
		}
		snap := HostProfSnapshot()
		if snap.Runs != 1 || snap.TotalNS <= 0 {
			t.Fatalf("ff=%v: snapshot = %+v, want 1 run with wall time", ff, snap)
		}
		if got := snap.ExecutedCycles + snap.SkippedCycles; got != int64(c) {
			t.Fatalf("ff=%v: executed %d + skipped %d = %d, want the run's %d cycles",
				ff, snap.ExecutedCycles, snap.SkippedCycles, got, c)
		}
		if ff != (snap.SkippedCycles > 0) {
			t.Fatalf("ff=%v: skipped cycles = %d", ff, snap.SkippedCycles)
		}
		runs = append(runs, result{c, lanes, append([]string(nil), *log...)})
	}
	slow, ff := runs[0], runs[1]
	if slow.c != ff.c {
		t.Fatalf("fast-forwarded run cycles %d != cycle-by-cycle %d", ff.c, slow.c)
	}
	if !reflect.DeepEqual(slow.log, ff.log) {
		t.Fatalf("effect logs diverge:\nslow: %v\nff:   %v", slow.log, ff.log)
	}
	for i := range slow.lanes {
		if slow.lanes[i].fired != ff.lanes[i].fired || slow.lanes[i].busy != ff.lanes[i].busy {
			t.Fatalf("lane %d state diverges: slow {fired %d busy %d} ff {fired %d busy %d}",
				i, slow.lanes[i].fired, slow.lanes[i].busy, ff.lanes[i].fired, ff.lanes[i].busy)
		}
	}
}

// TestHostProfSerialEngine checks that successive runs accumulate in
// the process-wide aggregate until it is reset.
func TestHostProfSerialEngine(t *testing.T) {
	defer ResetHostProf()
	ResetHostProf()
	var cycles int64
	for i := 0; i < 2; i++ {
		e, _, _ := buildToy(4, true)
		c, err := e.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		cycles += int64(c)
	}
	snap := HostProfSnapshot()
	if snap.Runs != 2 || snap.ExecutedCycles+snap.SkippedCycles != cycles {
		t.Fatalf("snapshot = %+v, want 2 runs covering %d cycles", snap, cycles)
	}
	ResetHostProf()
	if snap := HostProfSnapshot(); snap != (HostProf{}) {
		t.Fatalf("reset left %+v", snap)
	}
}

// TestHostProfReportShape checks the -hostprof rendering carries the
// run count and the executed versus fast-forwarded split.
func TestHostProfReportShape(t *testing.T) {
	p := HostProf{Runs: 3, ExecutedCycles: 120, SkippedCycles: 45, TotalNS: 2_500_000}
	rep := p.Report()
	for _, want := range []string{"host profile: 3 runs", "wall 2.50ms", "120 executed", "45 fast-forwarded"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestHostProfMerge checks aggregate folding across runs.
func TestHostProfMerge(t *testing.T) {
	var p HostProf
	p.merge(&HostProf{Runs: 1, ExecutedCycles: 7, SkippedCycles: 3, TotalNS: 10})
	p.merge(&HostProf{Runs: 1, ExecutedCycles: 5, SkippedCycles: 0, TotalNS: 20})
	want := HostProf{Runs: 2, ExecutedCycles: 12, SkippedCycles: 3, TotalNS: 30}
	if p != want {
		t.Fatalf("merge = %+v, want %+v", p, want)
	}
}
