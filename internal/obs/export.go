package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
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

// traceBufSize is the export's output buffer: events are appended one
// at a time to a reused slice and written through a bufio.Writer of
// this size, so a write error surfaces at a later event or at the
// final flush.
const traceBufSize = 64 << 10

// WriteChromeTrace exports the sink's event stream as Chrome
// trace-event / Perfetto-compatible JSON: a thread per lane, stream
// engine, NoC link, and DRAM channel; complete ("X") events for spans
// with their kind-specific arguments; instant ("i") events for
// decisions. Load the file at https://ui.perfetto.dev or
// chrome://tracing.
//
// The output is one JSON object, {"traceEvents": [...],
// "displayTimeUnit": "ms", "otherData": {...}}, byte for byte what
// encoding/json's Encoder writes for it (the test reference in
// export_test.go): every event's fields in the order name, ph, ts,
// dur, pid, tid, cat, s, args, with dur, cat, s and args left out when
// zero or empty, and each kind's args keys sorted. ts values are
// simulated cycles, exported 1 cycle = 1 µs. The writer streams the
// sink's buffer in place and allocates nothing per event.
func WriteChromeTrace(w io.Writer, s *Sink) error {
	// A bufio.Writer's error is sticky: once a write fails, every later
	// Write and the final Flush return it. The per-event check only
	// stops the export early; the unchecked writes need none.
	bw := bufio.NewWriterSize(w, traceBufSize)
	bw.WriteString(`{"traceEvents":[`)
	// Every event carries its leading comma; the first one's is dropped.
	b := appendMetadata(nil, s)
	bw.Write(b[1:])
	for _, c := range s.chunks {
		for i := range c {
			b = appendEvent(append(b[:0], ','), &c[i])
			if _, err := bw.Write(b); err != nil {
				return err
			}
		}
	}
	b = append(b[:0], `],"displayTimeUnit":"ms","otherData":{"cycles_per_ts_unit":1,"dropped":`...)
	b = strconv.AppendInt(b, s.Dropped(), 10)
	b = append(b, `,"events":`...)
	b = strconv.AppendInt(b, int64(s.Len()), 10)
	b = append(b, "}}\n"...)
	bw.Write(b)
	return bw.Flush()
}

// appendMetadata appends the events naming every process and every
// thread the trace uses, in deterministic order.
func appendMetadata(b []byte, s *Sink) []byte {
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
	for _, p := range procs {
		b = appendMeta(b, "process_name", p.pid, 0, p.name)
	}
	b = appendMeta(b, "thread_name", pidCoordinator, 0, "dispatch")
	b = appendMeta(b, "thread_name", pidMcast, 0, "table")
	for lane := 0; lane < s.Lanes; lane++ {
		b = appendMeta(b, "thread_name", pidLanes, lane, fmt.Sprintf("lane %d", lane))
		b = appendMeta(b, "thread_name", pidStreams, lane, fmt.Sprintf("engine %d", lane))
	}
	for c := 0; c < s.Channels; c++ {
		b = appendMeta(b, "thread_name", pidDRAM, c, fmt.Sprintf("channel %d", c))
	}
	// NoC links: name only the links the trace actually touches, so an
	// idle 64-node mesh does not add 200+ empty tracks.
	for _, l := range usedLinks(s) {
		label := fmt.Sprintf("link %d", l)
		if l < len(s.LinkLabels) {
			label = s.LinkLabels[l]
		}
		b = appendMeta(b, "thread_name", pidNoC, l, label)
	}
	return b
}

// usedLinks returns the NoC links the buffered events touch, ascending.
func usedLinks(s *Sink) []int {
	used := map[int32]bool{}
	for _, c := range s.chunks {
		for i := range c {
			if c[i].Kind == KindNoCHop {
				used[c[i].Comp] = true
			}
		}
	}
	links := make([]int, 0, len(used))
	for l := range used {
		links = append(links, int(l))
	}
	sort.Ints(links)
	return links
}

// appendMeta appends one metadata event naming a process or thread.
// Every event carries ph/ts/pid/tid, metadata included: the format
// allows metadata to omit ts, but validators here require it uniformly.
func appendMeta(b []byte, kind string, pid, tid int, name string) []byte {
	b = append(b, ',')
	b = head{name: kind, ph: "M", pid: pid, tid: tid}.append(b)
	b = append(b, `,"args":{"name":`...)
	b = appendString(b, "", name)
	return append(b, "}}"...)
}

// appendEvent appends one observed event in its trace-event form.
func appendEvent(b []byte, ev *Event) []byte {
	switch ev.Kind {
	case KindDispatch:
		b = head{prefix: "dispatch ", name: ev.Name, ph: "i", ts: ev.Cycle,
			pid: pidCoordinator, cat: "dispatch", s: "t"}.append(b)
		b = append(b, `,"args":{"lane":`...)
		b = strconv.AppendInt(b, int64(ev.Comp), 10)
		b = append(b, `,"losing_mask":`...)
		b = appendHex(b, ev.B, false)
		b = append(b, `,"work_hint":`...)
		b = strconv.AppendInt(b, ev.A, 10)
	case KindLaneState:
		name := ev.Cause.String()
		if ev.Cause == CauseRun && ev.Name != "" {
			name = ev.Name
		}
		b = head{name: name, ph: "X", ts: ev.Cycle, dur: ev.Dur,
			pid: pidLanes, tid: int(ev.Comp), cat: "lane"}.append(b)
		b = append(b, `,"args":{"cause":`...)
		b = appendString(b, "", ev.Cause.String())
		b = append(b, `,"task":`...)
		b = appendString(b, "", ev.Name)
	case KindSpanIssue:
		b = head{name: "span-issue", ph: "i", ts: ev.Cycle,
			pid: pidStreams, tid: int(ev.Comp), cat: "stream", s: "t"}.append(b)
		b = append(b, `,"args":{"elems":`...)
		b = strconv.AppendInt(b, ev.B, 10)
		b = append(b, `,"line":`...)
		b = appendHex(b, ev.A, true)
	case KindSpanComplete:
		b = head{name: "span-complete", ph: "i", ts: ev.Cycle,
			pid: pidStreams, tid: int(ev.Comp), cat: "stream", s: "t"}.append(b)
		b = append(b, `,"args":{"elems":`...)
		b = strconv.AppendInt(b, ev.B, 10)
		b = append(b, `,"seq":`...)
		b = strconv.AppendInt(b, ev.A, 10)
	case KindMcastHit, KindMcastMiss, KindMcastForward:
		b = head{name: ev.Kind.String(), ph: "i", ts: ev.Cycle,
			pid: pidMcast, cat: "mcast", s: "t"}.append(b)
		b = append(b, `,"args":{"comp":`...)
		b = strconv.AppendInt(b, int64(ev.Comp), 10)
		b = append(b, `,"group":`...)
		b = strconv.AppendInt(b, ev.A, 10)
		b = append(b, `,"lines":`...)
		b = strconv.AppendInt(b, ev.B, 10)
	case KindNoCHop:
		b = head{name: "xmit", ph: "X", ts: ev.Cycle, dur: ev.Dur,
			pid: pidNoC, tid: int(ev.Comp), cat: "noc"}.append(b)
		b = append(b, `,"args":{"bytes":`...)
		b = strconv.AppendInt(b, ev.A, 10)
		b = append(b, `,"kind":`...)
		b = strconv.AppendInt(b, ev.B, 10)
	case KindDRAM:
		name := "read"
		if ev.B != 0 {
			name = "write"
		}
		b = head{name: name, ph: "X", ts: ev.Cycle, dur: ev.Dur,
			pid: pidDRAM, tid: int(ev.Comp), cat: "dram"}.append(b)
		b = append(b, `,"args":{"line":`...)
		b = appendHex(b, ev.A, true)
	case KindTaskStart, KindTaskComplete:
		prefix := "task-start "
		if ev.Kind == KindTaskComplete {
			prefix = "task-complete "
		}
		b = head{prefix: prefix, name: ev.Name, ph: "i", ts: ev.Cycle,
			pid: pidLanes, tid: int(ev.Comp), cat: "task", s: "t"}.append(b)
		b = append(b, `,"args":{"key":`...)
		b = strconv.AppendUint(b, uint64(ev.A), 10)
		b = append(b, `,"phase":`...)
		b = strconv.AppendInt(b, ev.B, 10)
	default:
		b = head{name: ev.Kind.String(), ph: "i", ts: ev.Cycle,
			pid: pidCoordinator, s: "t"}.append(b)
		return append(b, '}')
	}
	return append(b, "}}"...)
}

// head is a trace event's fields before its args. The event's name is
// prefix+name; ph, cat and s are plain ASCII.
type head struct {
	prefix, name string
	ph           string
	ts, dur      int64
	pid, tid     int
	cat, s       string
}

// append opens the event object and appends the head's fields in
// field order, leaving out dur, cat and s when zero or empty.
func (h head) append(b []byte) []byte {
	b = append(b, `{"name":`...)
	b = appendString(b, h.prefix, h.name)
	b = append(b, `,"ph":"`...)
	b = append(b, h.ph...)
	b = append(b, `","ts":`...)
	b = strconv.AppendInt(b, h.ts, 10)
	if h.dur != 0 {
		b = append(b, `,"dur":`...)
		b = strconv.AppendInt(b, h.dur, 10)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(h.pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(h.tid), 10)
	if h.cat != "" {
		b = append(b, `,"cat":"`...)
		b = append(b, h.cat...)
		b = append(b, '"')
	}
	if h.s != "" {
		b = append(b, `,"s":"`...)
		b = append(b, h.s...)
		b = append(b, '"')
	}
	return b
}

// appendString appends prefix+s as a JSON string, byte for byte as
// encoding/json writes it. A plain printable-ASCII s is copied; any
// other goes through json.Marshal, which escapes control characters,
// quotes, backslashes, <, > and &, U+2028/U+2029 and invalid UTF-8.
// prefix must be plain printable ASCII, so its escaping is itself.
func appendString(b []byte, prefix, s string) []byte {
	b = append(b, '"')
	b = append(b, prefix...)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q[1:]...)
		}
	}
	b = append(b, s...)
	return append(b, '"')
}

// appendHex appends v as the JSON string fmt's %#x makes of it: of
// int64(v) when signed ("-0x2a"), of uint64(v) otherwise.
func appendHex(b []byte, v int64, signed bool) []byte {
	u := uint64(v)
	b = append(b, '"')
	if signed && v < 0 {
		b = append(b, '-')
		u = -u
	}
	b = append(b, "0x"...)
	b = strconv.AppendUint(b, u, 16)
	return append(b, '"')
}
