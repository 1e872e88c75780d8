package core

import (
	"testing"

	"taskstream/internal/mem"
	"taskstream/internal/obs"
)

// TestObsNoPerturbation pins the observability layer's passivity:
// attaching a sink (which also disables fast-forwarding for the run)
// must change no simulated cycle count and no stats counter, across
// multiple workload shapes.
func TestObsNoPerturbation(t *testing.T) {
	cases := []struct {
		name  string
		build func(st *mem.Storage) *Program
		lanes int
		cfg   func(c *configMut)
	}{
		{"skewed", func(st *mem.Storage) *Program { return skewedProgram(t, st) }, 4, nil},
		{"forward", func(st *mem.Storage) *Program { return forwardProgram(st, 512) }, 2,
			func(c *configMut) { c.fwd = true }},
		{"shared-read", func(st *mem.Storage) *Program { return sharedReadProgram(st, 8, 1024, 64) }, 8,
			func(c *configMut) { c.mcast = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(sink *obs.Sink) Report {
				st := mem.NewStorage()
				prog := tc.build(st)
				cfg := testConfig(tc.lanes)
				if tc.cfg != nil {
					var m configMut
					tc.cfg(&m)
					cfg.Task.EnableForwarding = cfg.Task.EnableForwarding || m.fwd
					cfg.Task.EnableMulticast = cfg.Task.EnableMulticast || m.mcast
				}
				return buildAndRun(t, cfg, prog, st, Options{Obs: sink})
			}
			plain := run(nil)
			sink := obs.New(0)
			traced := run(sink)
			if plain.Cycles != traced.Cycles {
				t.Fatalf("tracing changed cycles: %d vs %d", plain.Cycles, traced.Cycles)
			}
			if a, b := plain.Stats.String(), traced.Stats.String(); a != b {
				t.Fatalf("tracing changed stats:\nuntraced:\n%s\ntraced:\n%s", a, b)
			}
			if sink.Len() == 0 {
				t.Fatal("traced run emitted no events")
			}
		})
	}
}

type configMut struct{ fwd, mcast bool }

// TestObsLaneSpansCoverRun pins the lane-state span invariant: every
// lane's cause breakdown partitions the full run — the per-lane span
// cycles sum exactly to the cycle count.
func TestObsLaneSpansCoverRun(t *testing.T) {
	st := mem.NewStorage()
	prog := skewedProgram(t, st)
	sink := obs.New(0)
	rep := buildAndRun(t, testConfig(4), prog, st, Options{Obs: sink})
	m := sink.Metrics()
	for lane := 0; lane < 4; lane++ {
		var sum int64
		for c := obs.Cause(0); c < obs.NumCauses; c++ {
			sum += m.LaneCause(lane, c)
		}
		if sum != rep.Cycles {
			t.Fatalf("lane %d spans cover %d cycles, run took %d", lane, sum, rep.Cycles)
		}
	}
	if got, want := countEvents(sink)[obs.KindDispatch], rep.Stats.Get("tasks_dispatched"); got != want {
		t.Fatalf("obs dispatch events = %d, stats say %d", got, want)
	}
}

// countEvents tallies a sink's buffered events by kind.
func countEvents(sink *obs.Sink) map[obs.Kind]int64 {
	n := map[obs.Kind]int64{}
	for _, ev := range sink.Events() {
		n[ev.Kind]++
	}
	return n
}

// TestObsMulticastMatchesTrafficCounters pins the multicast event
// stream against the E9 traffic counters: hits+misses = table joins,
// misses = groups opened, the hit events' lines-saved arguments sum to
// the machine's mcast_lines_saved counter, and every group line leaving
// a memory controller is one forward event.
func TestObsMulticastMatchesTrafficCounters(t *testing.T) {
	st := mem.NewStorage()
	prog := sharedReadProgram(st, 8, 1024, 64)
	cfg := testConfig(8)
	cfg.Task.EnableMulticast = true
	sink := obs.New(0)
	rep := buildAndRun(t, cfg, prog, st, Options{Obs: sink})
	n := countEvents(sink)
	hits, misses, fwds := n[obs.KindMcastHit], n[obs.KindMcastMiss], n[obs.KindMcastForward]
	if hits == 0 || fwds == 0 {
		t.Fatalf("multicast events: %d hits, %d forwards; want both observed", hits, fwds)
	}
	if got, want := hits+misses, rep.Stats.Get("mcast_joins"); got != want {
		t.Fatalf("hit+miss events = %d, mcast_joins = %d", got, want)
	}
	if got, want := misses, rep.Stats.Get("mcast_groups"); got != want {
		t.Fatalf("miss events = %d, mcast_groups = %d", got, want)
	}
	if got, want := fwds, rep.Stats.Get("dram_lines_read")-rep.Stats.Get("lane_dram_line_reads"); got != want {
		t.Fatalf("forward events = %d, group lines read from DRAM = %d", got, want)
	}
	var hitLines int64
	for _, ev := range sink.Events() {
		if ev.Kind == obs.KindMcastHit {
			hitLines += ev.B
		}
	}
	if want := rep.Stats.Get("mcast_lines_saved"); hitLines != want {
		t.Fatalf("hit events' lines saved = %d, mcast_lines_saved = %d", hitLines, want)
	}
}

// TestObsForwardSpansOverlap pins the pipelined inter-task dependence:
// under forwarding, the producer's and consumer's run spans on their
// distinct lanes must overlap in time (the consumer starts before the
// producer finishes — the pipelining the forward group exists for).
func TestObsForwardSpansOverlap(t *testing.T) {
	st := mem.NewStorage()
	prog := forwardProgram(st, 512)
	cfg := testConfig(2)
	cfg.Task.EnableForwarding = true
	sink := obs.New(0)
	rep := buildAndRun(t, cfg, prog, st, Options{Obs: sink})
	if rep.Stats.Get("fwd_pairs") != 1 {
		t.Fatalf("fwd_pairs = %d, want 1", rep.Stats.Get("fwd_pairs"))
	}
	// Collect each task type's busy interval: the union of its config,
	// run, and stall spans (everything from task start to completion).
	type interval struct {
		lane       int32
		start, end int64
		seen       bool
	}
	busy := map[string]*interval{}
	for _, ev := range sink.Events() {
		if ev.Kind != obs.KindLaneState || ev.Name == "" {
			continue
		}
		iv := busy[ev.Name]
		if iv == nil {
			iv = &interval{lane: ev.Comp, start: ev.Cycle, end: ev.Cycle + ev.Dur, seen: true}
			busy[ev.Name] = iv
			continue
		}
		if ev.Comp != iv.lane {
			t.Fatalf("type %s observed on lanes %d and %d, want one lane each",
				ev.Name, iv.lane, ev.Comp)
		}
		if ev.Cycle < iv.start {
			iv.start = ev.Cycle
		}
		if ev.Cycle+ev.Dur > iv.end {
			iv.end = ev.Cycle + ev.Dur
		}
	}
	prod, cons := busy["copy"], busy["addk"]
	if prod == nil || cons == nil {
		t.Fatalf("missing producer/consumer spans (saw %d types)", len(busy))
	}
	if prod.lane == cons.lane {
		t.Fatalf("forward pair shares lane %d, want distinct lanes", prod.lane)
	}
	if cons.start >= prod.end || prod.start >= cons.end {
		t.Fatalf("producer [%d,%d) and consumer [%d,%d) do not overlap — not pipelined",
			prod.start, prod.end, cons.start, cons.end)
	}
}

// TestObsDisablesCaching pins the run-cache composition: a run with a
// sink attached is an observable side channel and must never memoize.
func TestObsDisablesCaching(t *testing.T) {
	if (Options{Obs: obs.New(0)}).Cacheable() {
		t.Fatal("options with an obs sink must not be cacheable")
	}
	if !(Options{}).Cacheable() {
		t.Fatal("plain options must be cacheable")
	}
	n := Options{Obs: obs.New(0)}.Normalized()
	if n.Obs != nil {
		t.Fatal("Normalized must drop the sink")
	}
}
