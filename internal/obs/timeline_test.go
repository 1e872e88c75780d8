package obs

import (
	"fmt"
	"strings"
	"testing"
)

// emitTask emits one task's dispatch, start and completion on lane.
func emitTask(s *Sink, lane int32, key uint64, typ string, phase, dispatch, start, end int64) {
	s.Emit(Event{Cycle: dispatch, Kind: KindDispatch, Comp: lane, Name: typ})
	s.Emit(Event{Cycle: start, Kind: KindTaskStart, Comp: lane, A: int64(key), B: phase, Name: typ})
	s.Emit(Event{Cycle: end, Kind: KindTaskComplete, Comp: lane, A: int64(key), B: phase, Name: typ})
}

func TestSpansPairing(t *testing.T) {
	s := New(0)
	// Two tasks on the same lane, same key reused (spawned twins).
	emitTask(s, 0, 5, "a", 0, 1, 2, 9)
	emitTask(s, 0, 5, "a", 1, 10, 12, 30)
	spans := s.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Started != 2 || spans[0].Completed != 9 {
		t.Fatalf("span0 = %+v", spans[0])
	}
	if spans[1].Started != 12 || spans[1].Completed != 30 {
		t.Fatalf("span1 = %+v", spans[1])
	}
	if spans[0].Dispatched != 1 || spans[1].Phase != 1 || spans[1].TaskKey != 5 {
		t.Fatalf("dispatch metadata lost: %+v", spans)
	}

	// A lane's queue is FIFO: two dispatches ahead of their starts pair
	// in order, and the other lane's events do not interleave.
	s = New(0)
	s.Emit(Event{Cycle: 0, Kind: KindDispatch, Comp: 1, Name: "x"})
	s.Emit(Event{Cycle: 1, Kind: KindDispatch, Comp: 1, Name: "y"})
	emitTask(s, 0, 7, "z", 0, 1, 2, 3)
	s.Emit(Event{Cycle: 4, Kind: KindTaskStart, Comp: 1, A: 1})
	s.Emit(Event{Cycle: 6, Kind: KindTaskComplete, Comp: 1, A: 1})
	s.Emit(Event{Cycle: 7, Kind: KindTaskStart, Comp: 1, A: 2})
	spans = s.Spans()
	want := []TaskSpan{
		{Lane: 0, TaskKey: 7, TypeName: "z", Dispatched: 1, Started: 2, Completed: 3},
		{Lane: 1, TaskKey: 1, TypeName: "x", Dispatched: 0, Started: 4, Completed: 6},
		{Lane: 1, TaskKey: 2, TypeName: "y", Dispatched: 1, Started: 7, Completed: -1},
	}
	if fmt.Sprint(spans) != fmt.Sprint(want) {
		t.Fatalf("spans = %+v, want %+v", spans, want)
	}
}

func TestTimelineRendering(t *testing.T) {
	s := New(0)
	emitTask(s, 0, 1, "alpha", 0, 0, 0, 50)
	emitTask(s, 1, 2, "beta", 0, 40, 50, 100)
	out := s.Timeline(2, 40)
	if !strings.Contains(out, "lane  0") || !strings.Contains(out, "lane  1") {
		t.Fatalf("missing lanes:\n%s", out)
	}
	if !strings.Contains(out, "A = alpha") || !strings.Contains(out, "B = beta") {
		t.Fatalf("missing legend:\n%s", out)
	}
	// Lane 0's bar starts at the left; lane 1's does not.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[1], "|A") {
		t.Fatalf("lane 0 should start immediately:\n%s", out)
	}
	if strings.Contains(lines[2], "|B") {
		t.Fatalf("lane 1 should start mid-run:\n%s", out)
	}
}

func TestTimelineEmpty(t *testing.T) {
	if !strings.Contains(New(0).Timeline(2, 10), "no trace") {
		t.Fatal("empty timeline must say so")
	}
	var nilSink *Sink
	if !strings.Contains(nilSink.Timeline(2, 10), "no trace") {
		t.Fatal("nil sink timeline must say so")
	}
}

// TestTimelineAlphabetOverflow pins the legend behavior past the
// 62-letter alphabet: overflow types render as '?' and the legend
// summarizes them in one line instead of listing or reusing letters.
func TestTimelineAlphabetOverflow(t *testing.T) {
	s := New(0)
	const types = 65 // 62 letters + 3 overflow
	for i := 0; i < types; i++ {
		c := int64(i * 10)
		emitTask(s, 0, uint64(i), fmt.Sprintf("type%02d", i), 0, c, c, c+9)
	}
	out := s.Timeline(1, 200)
	if !strings.Contains(out, "A = type00") || !strings.Contains(out, "9 = type61") {
		t.Fatalf("full alphabet not assigned in first-seen order:\n%s", out)
	}
	if !strings.Contains(out, "? = and 3 more task types") {
		t.Fatalf("missing overflow legend line:\n%s", out)
	}
	if strings.Contains(out, "= type62") || strings.Contains(out, "= type64") {
		t.Fatalf("overflow types must not get legend entries:\n%s", out)
	}
	if !strings.Contains(out, "?") {
		t.Fatalf("overflow spans must render as '?':\n%s", out)
	}
}

// TestTimelineSurvivesDrops pins that spans fold as events arrive: a
// sink whose buffer holds almost nothing still renders the same
// timeline, covering every task, as an unbounded one.
func TestTimelineSurvivesDrops(t *testing.T) {
	full, tiny := New(0), New(2)
	for _, s := range []*Sink{full, tiny} {
		for i := 0; i < 40; i++ {
			c := int64(i * 5)
			emitTask(s, int32(i%4), uint64(i), fmt.Sprintf("t%d", i%3), 0, c, c+1, c+20)
		}
	}
	if tiny.Dropped() != 118 {
		t.Fatalf("Dropped = %d, want 118", tiny.Dropped())
	}
	if n := len(tiny.Spans()); n != 40 {
		t.Fatalf("spans = %d after drops, want 40", n)
	}
	got, want := tiny.Timeline(4, 60), full.Timeline(4, 60)
	if got != want {
		t.Fatalf("timeline changed under drops:\n%s\nwant:\n%s", got, want)
	}
	if !strings.Contains(got, "timeline (215 cycles, 40 tasks)") {
		t.Fatalf("timeline does not cover every task:\n%s", got)
	}
}
