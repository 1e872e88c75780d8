package core

import (
	"strings"
	"testing"

	"taskstream/internal/mem"
	"taskstream/internal/obs"
)

func TestTraceIntegration(t *testing.T) {
	st := mem.NewStorage()
	prog := skewedProgram(t, st)
	sink := obs.New(0)
	m, err := NewMachine(testConfig(4), prog, st, Options{Obs: sink})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Every task contributes exactly one dispatch, start and complete.
	counts := map[obs.Kind]int64{}
	for _, ev := range sink.Events() {
		counts[ev.Kind]++
	}
	tasks := rep.Stats.Get("tasks_run")
	for _, k := range []obs.Kind{obs.KindDispatch, obs.KindTaskStart, obs.KindTaskComplete} {
		if counts[k] != tasks {
			t.Fatalf("%s events = %d, want %d", k, counts[k], tasks)
		}
	}
	spans := sink.Spans()
	if len(spans) != int(tasks) {
		t.Fatalf("spans = %d, want %d", len(spans), tasks)
	}
	for _, sp := range spans {
		if sp.Started < sp.Dispatched || sp.Completed <= sp.Started {
			t.Fatalf("span out of order: %+v", sp)
		}
		if sp.Completed > rep.Cycles {
			t.Fatalf("span beyond run end: %+v", sp)
		}
		if sp.TypeName != "addk" {
			t.Fatalf("unexpected type %q", sp.TypeName)
		}
	}
	tl := sink.Timeline(4, 60)
	if !strings.Contains(tl, "A = addk") {
		t.Fatalf("timeline legend missing:\n%s", tl)
	}
}

func TestTraceOffByDefault(t *testing.T) {
	st := mem.NewStorage()
	prog := skewedProgram(t, st)
	m, err := NewMachine(testConfig(2), prog, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err) // nil sink must be harmless end to end
	}
}
