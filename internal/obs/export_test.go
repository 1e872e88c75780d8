package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"sort"
	"testing"
)

// The reference encoder: the exporter as it was first written, one
// chromeEvent per event with a map of args, encoded by encoding/json.
// WriteChromeTrace must reproduce its output byte for byte.

// chromeEvent is one entry of the trace-event JSON array.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the exported JSON object.
type chromeTrace struct {
	TraceEvents []chromeEvent  `json:"traceEvents"`
	DisplayUnit string         `json:"displayTimeUnit"`
	OtherData   map[string]any `json:"otherData,omitempty"`
}

// WriteReferenceTrace writes the reference encoder's export of s. It
// is exported for the suite test in package obs_test.
func WriteReferenceTrace(w io.Writer, s *Sink) error {
	events := s.Events()
	out := chromeTrace{
		DisplayUnit: "ms",
		OtherData: map[string]any{
			"cycles_per_ts_unit": 1,
			"events":             len(events),
			"dropped":            s.Dropped(),
		},
	}
	out.TraceEvents = append(out.TraceEvents, metadataEvents(s, events)...)
	for _, ev := range events {
		out.TraceEvents = append(out.TraceEvents, convert(ev))
	}
	return json.NewEncoder(w).Encode(out)
}

// metadataEvents names every process and every thread the trace uses,
// in deterministic order.
func metadataEvents(s *Sink, events []Event) []chromeEvent {
	procs := []struct {
		pid  int
		name string
	}{
		{pidCoordinator, "coordinator"},
		{pidLanes, "lanes"},
		{pidStreams, "stream-engines"},
		{pidNoC, "noc"},
		{pidDRAM, "dram"},
		{pidMcast, "multicast"},
	}
	var out []chromeEvent
	for _, p := range procs {
		out = append(out, chromeEvent{
			Name: "process_name", Ph: "M", Ts: 0, Pid: p.pid, Tid: 0,
			Args: map[string]any{"name": p.name},
		})
	}
	out = append(out, chromeEvent{
		Name: "thread_name", Ph: "M", Ts: 0, Pid: pidCoordinator, Tid: 0,
		Args: map[string]any{"name": "dispatch"},
	})
	out = append(out, chromeEvent{
		Name: "thread_name", Ph: "M", Ts: 0, Pid: pidMcast, Tid: 0,
		Args: map[string]any{"name": "table"},
	})
	for lane := 0; lane < s.Lanes; lane++ {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Ts: 0, Pid: pidLanes, Tid: lane,
			Args: map[string]any{"name": fmt.Sprintf("lane %d", lane)},
		})
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Ts: 0, Pid: pidStreams, Tid: lane,
			Args: map[string]any{"name": fmt.Sprintf("engine %d", lane)},
		})
	}
	for c := 0; c < s.Channels; c++ {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Ts: 0, Pid: pidDRAM, Tid: c,
			Args: map[string]any{"name": fmt.Sprintf("channel %d", c)},
		})
	}
	used := map[int32]bool{}
	for _, ev := range events {
		if ev.Kind == KindNoCHop {
			used[ev.Comp] = true
		}
	}
	links := make([]int, 0, len(used))
	for l := range used {
		links = append(links, int(l))
	}
	sort.Ints(links)
	for _, l := range links {
		label := fmt.Sprintf("link %d", l)
		if l < len(s.LinkLabels) {
			label = s.LinkLabels[l]
		}
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", Ts: 0, Pid: pidNoC, Tid: l,
			Args: map[string]any{"name": label},
		})
	}
	return out
}

// convert maps one observed event onto its trace-event form.
func convert(ev Event) chromeEvent {
	switch ev.Kind {
	case KindDispatch:
		return chromeEvent{
			Name: "dispatch " + ev.Name, Ph: "i", Ts: ev.Cycle,
			Pid: pidCoordinator, Tid: 0, Cat: "dispatch", S: "t",
			Args: map[string]any{
				"lane":        ev.Comp,
				"work_hint":   ev.A,
				"losing_mask": fmt.Sprintf("%#x", uint64(ev.B)),
			},
		}
	case KindLaneState:
		name := ev.Cause.String()
		if ev.Cause == CauseRun && ev.Name != "" {
			name = ev.Name
		}
		return chromeEvent{
			Name: name, Ph: "X", Ts: ev.Cycle, Dur: ev.Dur,
			Pid: pidLanes, Tid: int(ev.Comp), Cat: "lane",
			Args: map[string]any{"cause": ev.Cause.String(), "task": ev.Name},
		}
	case KindSpanIssue:
		return chromeEvent{
			Name: "span-issue", Ph: "i", Ts: ev.Cycle,
			Pid: pidStreams, Tid: int(ev.Comp), Cat: "stream", S: "t",
			Args: map[string]any{"line": fmt.Sprintf("%#x", ev.A), "elems": ev.B},
		}
	case KindSpanComplete:
		return chromeEvent{
			Name: "span-complete", Ph: "i", Ts: ev.Cycle,
			Pid: pidStreams, Tid: int(ev.Comp), Cat: "stream", S: "t",
			Args: map[string]any{"seq": ev.A, "elems": ev.B},
		}
	case KindMcastHit, KindMcastMiss, KindMcastForward:
		return chromeEvent{
			Name: ev.Kind.String(), Ph: "i", Ts: ev.Cycle,
			Pid: pidMcast, Tid: 0, Cat: "mcast", S: "t",
			Args: map[string]any{"comp": ev.Comp, "group": ev.A, "lines": ev.B},
		}
	case KindNoCHop:
		return chromeEvent{
			Name: "xmit", Ph: "X", Ts: ev.Cycle, Dur: ev.Dur,
			Pid: pidNoC, Tid: int(ev.Comp), Cat: "noc",
			Args: map[string]any{"bytes": ev.A, "kind": ev.B},
		}
	case KindDRAM:
		name := "read"
		if ev.B != 0 {
			name = "write"
		}
		return chromeEvent{
			Name: name, Ph: "X", Ts: ev.Cycle, Dur: ev.Dur,
			Pid: pidDRAM, Tid: int(ev.Comp), Cat: "dram",
			Args: map[string]any{"line": fmt.Sprintf("%#x", ev.A)},
		}
	case KindTaskStart, KindTaskComplete:
		return chromeEvent{
			Name: ev.Kind.String() + " " + ev.Name, Ph: "i", Ts: ev.Cycle,
			Pid: pidLanes, Tid: int(ev.Comp), Cat: "task", S: "t",
			Args: map[string]any{"key": uint64(ev.A), "phase": ev.B},
		}
	default:
		return chromeEvent{
			Name: ev.Kind.String(), Ph: "i", Ts: ev.Cycle,
			Pid: pidCoordinator, Tid: 0, S: "t",
		}
	}
}

// sameAsReference fails t unless WriteChromeTrace writes exactly the
// reference encoder's bytes for s, and returns the export.
func sameAsReference(t testing.TB, s *Sink) []byte {
	t.Helper()
	var got, want bytes.Buffer
	if err := WriteChromeTrace(&got, s); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := WriteReferenceTrace(&want, s); err != nil {
		t.Fatalf("reference: %v", err)
	}
	if g, w := got.Bytes(), want.Bytes(); !bytes.Equal(g, w) {
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		from := max(0, i-80)
		t.Fatalf("export differs from the reference at byte %d of %d (reference %d):\n got: %q\nwant: %q",
			i, len(g), len(w), g[from:min(len(g), i+80)], w[from:min(len(w), i+80)])
	}
	return got.Bytes()
}

// everyKind emits one event of every kind, the out-of-range kinds the
// default branch takes included, with the given name, args and span
// length.
func everyKind(s *Sink, cycle int64, comp int32, name string, a, b, dur int64) {
	for k := Kind(0); k <= NumKinds; k++ {
		s.Emit(Event{Cycle: cycle, Dur: dur, Kind: k, Cause: CauseRun, Comp: comp, A: a, B: b, Name: name})
	}
	s.Emit(Event{Cycle: cycle, Kind: Kind(math.MaxUint8), Comp: comp, A: a, B: b, Name: name})
}

// TestWriteChromeTraceMatchesReference pins the exporter's bytes to
// the reference encoder's over synthetic sinks that reach every kind,
// every escaping rule, and every omitempty field.
func TestWriteChromeTraceMatchesReference(t *testing.T) {
	names := []string{
		"copy", "", `say "hi"`, `back\slash`, "new\nline", "ctl\x01", "<tag>",
		"a&b", "line\u2028sep\u2029", "lone\xffbyte", "n3→n4", "tab\tdel\x7f",
	}
	cases := []struct {
		name  string
		build func() *Sink
	}{
		{"empty sink", func() *Sink { return New(0) }},
		{"empty sink with topology", func() *Sink {
			s := New(0)
			s.Lanes, s.Channels, s.LinkLabels = 3, 2, []string{"n0→n1"}
			return s
		}},
		{"every kind", func() *Sink {
			s := New(0)
			s.Lanes, s.Channels, s.LinkLabels = 2, 2, []string{"n0→n1", "n1→n0"}
			everyKind(s, 5, 1, "copy", 0x40, 3, 7)
			everyKind(s, 9, 0, "copy", 0, 0, 2)
			return s
		}},
		{"escaped names", func() *Sink {
			s := New(0)
			s.Lanes, s.Channels, s.LinkLabels = 1, 1, names
			for i, n := range names {
				everyKind(s, int64(i), int32(i), n, int64(i), 1, 1)
				for c := Cause(0); c <= NumCauses; c++ {
					s.Emit(Event{Cycle: int64(i), Dur: 1, Kind: KindLaneState, Cause: c, Name: n})
				}
			}
			return s
		}},
		{"negative and extreme args", func() *Sink {
			s := New(0)
			for _, v := range []int64{-1, -42, math.MinInt64, math.MaxInt64, 1} {
				everyKind(s, v, 0, "neg", v, v, v)
			}
			return s
		}},
		{"zero dur", func() *Sink {
			s := New(0)
			everyKind(s, 3, 0, "copy", 1, 0, 0)
			return s
		}},
		{"links beyond their labels", func() *Sink {
			s := New(0)
			s.LinkLabels = []string{"n0→n1", "n1→n2"}
			for _, l := range []int32{7, 1, 2, 1, math.MaxInt32} {
				s.Emit(Event{Cycle: 1, Dur: 1, Kind: KindNoCHop, Comp: l})
			}
			return s
		}},
		{"dropped events", func() *Sink {
			s := New(5)
			s.Lanes = 1
			everyKind(s, 1, 0, "copy", 1, 2, 3)
			if s.Dropped() == 0 {
				panic("limited sink dropped nothing")
			}
			return s
		}},
		{"several chunks", func() *Sink { return syntheticSink(3*chunkEvents + 17) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sameAsReference(t, tc.build())
		})
	}
}

// decodeTrace unmarshals an exported trace generically, as a validator
// that knows nothing of the exporter's field set would.
func decodeTrace(t *testing.T, b []byte) []map[string]any {
	t.Helper()
	if !json.Valid(b) {
		t.Fatal("exported trace is not valid JSON")
	}
	var top struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return top.TraceEvents
}

// TestWriteChromeTraceRequiredFields pins the exporter contract the CI
// validator enforces: every event — metadata included — carries ph,
// ts, pid, and tid.
func TestWriteChromeTraceRequiredFields(t *testing.T) {
	s := New(0)
	s.Lanes = 2
	s.Channels = 1
	s.LinkLabels = []string{"n0→n1"}
	s.Emit(Event{Cycle: 5, Dur: 3, Kind: KindLaneState, Cause: CauseRun, Comp: 0, Name: "copy"})
	s.Emit(Event{Cycle: 6, Kind: KindDispatch, Comp: 1, A: 100, B: 0x1, Name: "copy"})
	s.Emit(Event{Cycle: 7, Kind: KindSpanIssue, Comp: 0, A: 0x40, B: 8})
	s.Emit(Event{Cycle: 9, Kind: KindSpanComplete, Comp: 0, A: 0, B: 8})
	s.Emit(Event{Cycle: 10, Dur: 4, Kind: KindNoCHop, Comp: 0, A: 64, B: 1})
	s.Emit(Event{Cycle: 12, Dur: 8, Kind: KindDRAM, Comp: 0, A: 0x80, B: 1})
	s.Emit(Event{Cycle: 13, Kind: KindMcastHit, Comp: 1, A: 1, B: 16})

	events := decodeTrace(t, sameAsReference(t, s))
	if len(events) == 0 {
		t.Fatal("no events exported")
	}
	for i, ev := range events {
		for _, field := range []string{"ph", "ts", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing required field %q: %v", i, field, ev)
			}
		}
	}
	// The emitted kinds must land on their component-class processes.
	pids := map[float64]bool{}
	for _, ev := range events {
		if ev["ph"] != "M" {
			pids[ev["pid"].(float64)] = true
		}
	}
	for _, pid := range []float64{pidCoordinator, pidLanes, pidStreams, pidNoC, pidDRAM, pidMcast} {
		if !pids[pid] {
			t.Fatalf("no events on pid %v (have %v)", pid, pids)
		}
	}
}

// TestWriteChromeTraceMetadata pins the track naming: processes for
// every component class, threads for the lanes/engines/channels the
// sink declares, and NoC threads only for links the trace touches.
func TestWriteChromeTraceMetadata(t *testing.T) {
	s := New(0)
	s.Lanes = 2
	s.Channels = 2
	s.LinkLabels = []string{"n0→n1", "n1→n0"}
	s.Emit(Event{Cycle: 1, Dur: 1, Kind: KindNoCHop, Comp: 1})

	events := decodeTrace(t, sameAsReference(t, s))
	threadNames := map[string]bool{}
	processNames := map[string]bool{}
	for _, ev := range events {
		if ev["ph"] != "M" {
			continue
		}
		args := ev["args"].(map[string]any)
		name := args["name"].(string)
		switch ev["name"] {
		case "process_name":
			processNames[name] = true
		case "thread_name":
			threadNames[name] = true
		}
	}
	for _, want := range []string{"coordinator", "lanes", "stream-engines", "noc", "dram", "multicast"} {
		if !processNames[want] {
			t.Fatalf("missing process %q (have %v)", want, processNames)
		}
	}
	for _, want := range []string{"lane 0", "lane 1", "engine 0", "engine 1", "channel 0", "channel 1", "n1→n0"} {
		if !threadNames[want] {
			t.Fatalf("missing thread %q (have %v)", want, threadNames)
		}
	}
	if threadNames["n0→n1"] {
		t.Fatal("untouched link 0 must not get a thread track")
	}
}

var errWriteFailed = errors.New("write failed")

// failAfter accepts its first n bytes and then fails every write.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return len(p), nil
	}
	n := f.n
	f.n = 0
	return n, errWriteFailed
}

// TestWriteChromeTraceWriteError pins that buffering does not swallow
// a write error: whether it surfaces at a later event's write or at
// the final flush, WriteChromeTrace returns it.
func TestWriteChromeTraceWriteError(t *testing.T) {
	small, large := syntheticSink(10), syntheticSink(20_000)
	var full bytes.Buffer
	if err := WriteChromeTrace(&full, large); err != nil {
		t.Fatal(err)
	}
	if full.Len() < 4*traceBufSize {
		t.Fatalf("large trace is %d bytes, want several %d-byte buffers", full.Len(), traceBufSize)
	}
	for _, tc := range []struct {
		s *Sink
		n int
	}{
		{small, 0}, {small, 100},
		{large, 0}, {large, 100}, {large, traceBufSize - 1}, {large, traceBufSize},
		{large, traceBufSize + 1}, {large, 3*traceBufSize + 100}, {large, full.Len() - 1},
	} {
		if err := WriteChromeTrace(&failAfter{n: tc.n}, tc.s); !errors.Is(err, errWriteFailed) {
			t.Errorf("%d-event trace failing after %d bytes: got error %v, want %v",
				tc.s.Len(), tc.n, err, errWriteFailed)
		}
	}
	if err := WriteChromeTrace(&failAfter{n: full.Len()}, large); err != nil {
		t.Fatalf("writer with room for the whole trace: %v", err)
	}
}

// syntheticSink returns a sink of n buffered events cycling through
// every kind, with plain task names and an 8-lane topology.
func syntheticSink(n int) *Sink {
	s := New(0)
	s.Lanes, s.Channels = 8, 4
	for l := 0; l < 16; l++ {
		s.LinkLabels = append(s.LinkLabels, fmt.Sprintf("n%d→n%d", l, l+1))
	}
	for i := 0; s.Len() < n; i++ {
		comp := int32(i % 8)
		c := int64(i)
		switch Kind(i % int(NumKinds)) {
		case KindDispatch:
			s.Emit(Event{Cycle: c, Kind: KindDispatch, Comp: comp, A: c * 3, B: 0xfe, Name: "spmv_row"})
		case KindLaneState:
			s.Emit(Event{Cycle: c, Dur: 4, Kind: KindLaneState, Cause: Cause(i % int(NumCauses)), Comp: comp, Name: "spmv_row"})
		case KindTaskStart, KindTaskComplete:
			s.Emit(Event{Cycle: c, Kind: Kind(i % int(NumKinds)), Comp: comp, A: c, B: 1, Name: "spmv_row"})
		case KindNoCHop:
			s.Emit(Event{Cycle: c, Dur: 2, Kind: KindNoCHop, Comp: int32(i % 16), A: 64, B: 2})
		default:
			s.Emit(Event{Cycle: c, Dur: 8, Kind: Kind(i % int(NumKinds)), Comp: comp, A: c << 6, B: c & 1})
		}
	}
	return s
}

// BenchmarkWriteChromeTrace times one export of a 100k-event sink
// holding every kind. It fails outright unless an export allocates the
// same at 10k and at 100k events, that is, nothing per event. The
// counts are taken with the collector off: a collection empties the
// sync.Pools behind fmt and encoding/json, whose refills would count.
func BenchmarkWriteChromeTrace(b *testing.B) {
	gc := debug.SetGCPercent(-1)
	allocs := func(n int) float64 {
		s := syntheticSink(n)
		return testing.AllocsPerRun(3, func() {
			if err := WriteChromeTrace(io.Discard, s); err != nil {
				b.Fatal(err)
			}
		})
	}
	small, large := allocs(10_000), allocs(100_000)
	debug.SetGCPercent(gc)
	if small != large {
		b.Fatalf("an export allocates %v times at 10k events and %v at 100k, want no per-event allocation", small, large)
	}
	s := syntheticSink(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}
