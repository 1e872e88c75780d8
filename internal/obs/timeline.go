package obs

import (
	"fmt"
	"sort"
	"strings"
)

// TaskSpan is one task's residency on a lane, folded from its
// KindDispatch, KindTaskStart and KindTaskComplete events. Started and
// Completed are -1 until the matching event arrives.
type TaskSpan struct {
	Lane       int
	TaskKey    uint64
	TypeName   string
	Phase      int
	Dispatched int64
	Started    int64
	Completed  int64
}

// taskFold pairs lifecycle events into spans as they arrive. A lane's
// task queue is FIFO, so the n-th start on a lane belongs to the n-th
// dispatch to it; a lane runs one task at a time, so a completion
// closes the lane's running span.
type taskFold struct {
	spans   []TaskSpan // dispatch order
	queued  [][]int    // per lane: spans dispatched but not started
	running []int      // per lane: the started, uncompleted span or -1
}

func (f *taskFold) fold(ev Event) {
	lane := int(ev.Comp)
	for len(f.queued) <= lane {
		f.queued = append(f.queued, nil)
		f.running = append(f.running, -1)
	}
	switch ev.Kind {
	case KindDispatch:
		f.queued[lane] = append(f.queued[lane], len(f.spans))
		f.spans = append(f.spans, TaskSpan{Lane: lane, TypeName: ev.Name,
			Dispatched: ev.Cycle, Started: -1, Completed: -1})
	case KindTaskStart:
		q := f.queued[lane]
		if len(q) == 0 {
			return
		}
		sp := &f.spans[q[0]]
		sp.TaskKey, sp.Phase, sp.Started = uint64(ev.A), int(ev.B), ev.Cycle
		f.running[lane], f.queued[lane] = q[0], q[1:]
	case KindTaskComplete:
		if i := f.running[lane]; i >= 0 {
			f.spans[i].Completed = ev.Cycle
			f.running[lane] = -1
		}
	}
}

// Spans returns every dispatched task's residency span, sorted by
// start cycle, then lane. Nil-safe.
func (s *Sink) Spans() []TaskSpan {
	if s == nil {
		return nil
	}
	spans := append([]TaskSpan(nil), s.tasks.spans...)
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Started != spans[j].Started {
			return spans[i].Started < spans[j].Started
		}
		return spans[i].Lane < spans[j].Lane
	})
	return spans
}

// Timeline renders a compact per-lane occupancy chart over width
// character columns. Each row is a lane; letters index task types.
func (s *Sink) Timeline(lanes int, width int) string {
	spans := s.Spans()
	if len(spans) == 0 {
		return "(no trace)\n"
	}
	var maxCycle int64
	for _, sp := range spans {
		if sp.Completed > maxCycle {
			maxCycle = sp.Completed
		}
	}
	if maxCycle == 0 {
		return "(no completed tasks)\n"
	}
	rows := make([][]byte, lanes)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	// Task types map onto a 62-letter alphabet in first-seen order;
	// every type past that renders as '?' and is summarized by one
	// legend line rather than silently reusing the last letter.
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
	typeLetter := map[string]byte{}
	assigned, overflow := 0, 0
	for _, sp := range spans {
		if sp.Started < 0 || sp.Completed < 0 || sp.Lane >= lanes {
			continue
		}
		letter, ok := typeLetter[sp.TypeName]
		if !ok {
			if assigned < len(alphabet) {
				letter = alphabet[assigned]
				assigned++
			} else {
				letter = '?'
				overflow++
			}
			typeLetter[sp.TypeName] = letter
		}
		from := int(sp.Started * int64(width) / (maxCycle + 1))
		to := int(sp.Completed * int64(width) / (maxCycle + 1))
		for c := from; c <= to && c < width; c++ {
			rows[sp.Lane][c] = letter
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline (%d cycles, %d tasks):\n", maxCycle, len(spans))
	for i, row := range rows {
		fmt.Fprintf(&b, "lane %2d |%s|\n", i, row)
	}
	var names []string
	for name, letter := range typeLetter {
		if letter != '?' {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  %c = %s\n", typeLetter[name], name)
	}
	if overflow > 0 {
		fmt.Fprintf(&b, "  ? = and %d more task types\n", overflow)
	}
	return b.String()
}
