package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event process ids, one per component class. Perfetto
// and chrome://tracing render each pid as a process group with one
// track per tid.
const (
	pidCoordinator = 1
	pidLanes       = 2
	pidStreams     = 3
	pidNoC         = 4
	pidDRAM        = 5
	pidMcast       = 6
)

// chromeEvent is one entry of the trace-event JSON array. Every event
// carries ph/ts/pid/tid — including metadata events, which the format
// allows to omit ts but downstream validators here require uniformly.
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

// chromeTrace is the exported JSON object. displayTimeUnit only
// affects on-screen formatting: ts values are simulated cycles,
// exported 1 cycle = 1 µs.
type chromeTrace struct {
	TraceEvents []chromeEvent  `json:"traceEvents"`
	DisplayUnit string         `json:"displayTimeUnit"`
	OtherData   map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace exports the sink's event stream as Chrome
// trace-event / Perfetto-compatible JSON: a thread per lane, stream
// engine, NoC link, and DRAM channel; complete ("X") events for spans
// with their kind-specific arguments; instant ("i") events for
// decisions. Load the file at https://ui.perfetto.dev or
// chrome://tracing.
func WriteChromeTrace(w io.Writer, s *Sink) error {
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
	enc := json.NewEncoder(w)
	return enc.Encode(out)
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
	// NoC links: name only the links the trace actually touches, so an
	// idle 64-node mesh does not add 200+ empty tracks.
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
