package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"taskstream/internal/config"
	"taskstream/internal/mem"
	"taskstream/internal/obs"
	"taskstream/internal/sim"
)

// runSnapshot executes a freshly generated program and captures
// everything externally observable: cycle count, every statistic in
// report order, per-lane busy vector, the full task-lifecycle event
// stream (dispatch, start, complete), and the output memory regions.
type runSnapshot struct {
	cycles    int64
	stats     string
	laneBusy  []int64
	lifecycle []obs.Event
	outs      [][]uint64
	skipped   int64 // fast-forwarded cycles; not compared
}

// runMode is the execution strategy snapshotRandom runs a machine
// under.
type runMode int

const (
	everyCycle runMode = iota // every component ticks every cycle
	sleeping                  // components sleep between events
	checked                   // sleeping, with the missed-wake check after every cycle
)

// snapshotRandom runs a freshly generated program under mode and
// captures its runSnapshot. A checked run first steps the machine to
// its end one cycle at a time, calling the engine's missed-wake check
// after every cycle; Run then only settles and reports.
func snapshotRandom(t *testing.T, seed uint64, cfg config.Config, opts Options, mode runMode) runSnapshot {
	t.Helper()
	prog, st, outs := randomProgram(seed)
	sink := obs.New(0)
	opts.Obs = sink
	m, err := NewMachine(cfg, prog, st, opts)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	// A sink makes every component tick every cycle; set the engine's
	// mode after it, so the lifecycle stream is observed under the
	// execution strategy being compared. Only the lifecycle kinds are
	// compared: per-cycle lane-state spans are what the sink normally
	// forces every-cycle execution for.
	m.engine.FastForward = mode != everyCycle
	if mode == checked {
		if err := stepChecked(m); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	rep, err := m.Run()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	snap := runSnapshot{
		cycles:   rep.Cycles,
		stats:    rep.Stats.String(),
		laneBusy: rep.LaneBusy,
		skipped:  m.engine.SkippedCycles,
	}
	for _, ev := range sink.Events() {
		switch ev.Kind {
		case obs.KindDispatch, obs.KindTaskStart, obs.KindTaskComplete:
			snap.lifecycle = append(snap.lifecycle, ev)
		}
	}
	for _, r := range outs {
		snap.outs = append(snap.outs, st.ReadElems(r.base, r.n))
	}
	return snap
}

// finished is Run's termination test for m: the done predicate holds
// and every component is idle.
func finished(m *Machine) bool {
	if !m.coord.AllDone() || !m.mesh.Idle() {
		return false
	}
	for _, l := range m.lanes {
		if !l.Idle() {
			return false
		}
	}
	for c, mc := range m.memctrls {
		if !mc.Idle() || !m.channels[c].Idle() {
			return false
		}
	}
	return true
}

// stepChecked steps m one cycle at a time until it finishes, and
// reports the first cycle after which the engine's missed-wake check
// fails: a component asleep past a cycle at which its forecast says it
// would act, because an input reached it without a Wake.
func stepChecked(m *Machine) error {
	for !finished(m) {
		if m.engine.Now() >= 1_000_000 {
			return fmt.Errorf("not finished after %d cycles", m.engine.Now())
		}
		m.engine.Step()
		if err := m.engine.CheckWakes(); err != nil {
			return fmt.Errorf("cycle %d: %w", m.engine.Now()-1, err)
		}
	}
	return nil
}

func diffSnapshots(t *testing.T, label string, ff, slow runSnapshot) {
	t.Helper()
	if ff.cycles != slow.cycles {
		t.Errorf("%s: cycles: ff=on %d, ff=off %d", label, ff.cycles, slow.cycles)
	}
	if ff.stats != slow.stats {
		t.Errorf("%s: stats diverge:\n--- ff=on ---\n%s--- ff=off ---\n%s", label, ff.stats, slow.stats)
	}
	if !reflect.DeepEqual(ff.laneBusy, slow.laneBusy) {
		t.Errorf("%s: lane busy: ff=on %v, ff=off %v", label, ff.laneBusy, slow.laneBusy)
	}
	if !reflect.DeepEqual(ff.lifecycle, slow.lifecycle) {
		t.Errorf("%s: lifecycle events diverge (%d vs %d events)", label, len(ff.lifecycle), len(slow.lifecycle))
	}
	if !reflect.DeepEqual(ff.outs, slow.outs) {
		t.Errorf("%s: output memory diverges", label)
	}
}

// wakeVariants are the programs' execution models and machine shapes
// the wake-driven engine is compared under. One DRAM channel, and 16
// lanes on 2 channels, are where components sleep most.
var wakeVariants = []struct {
	name string
	cfg  func() config.Config
	opts Options
}{
	{"delta", func() config.Config { return testConfig(4) }, Options{}},
	{"static", func() config.Config { return testConfig(4).StaticModel() }, Options{Policy: PolicyStatic}},
	{"noisy-hints", func() config.Config { return testConfig(4) }, Options{Hints: HintNoisy}},
	{"single-lane", func() config.Config { return testConfig(1) }, Options{}},
	{"1-channel", func() config.Config { return withChannels(testConfig(8), 1) }, Options{}},
	{"static-1-channel", func() config.Config { return withChannels(testConfig(8).StaticModel(), 1) },
		Options{Policy: PolicyStatic}},
	{"16-lanes-2-channels", func() config.Config { return withChannels(testConfig(16), 2) }, Options{}},
}

func withChannels(cfg config.Config, n int) config.Config {
	cfg.DRAM.Channels = n
	return cfg
}

// TestFastForwardByteIdentical is the tentpole invariant: for arbitrary
// programs under every execution model, letting components sleep
// between events must change nothing observable against ticking every
// component every cycle — cycle counts, all statistics, per-lane busy
// vectors, full lifecycle event streams, and results.
func TestFastForwardByteIdentical(t *testing.T) {
	var skipped int64
	for _, v := range wakeVariants {
		for seed := uint64(1); seed <= 8; seed++ {
			ff := snapshotRandom(t, seed, v.cfg(), v.opts, sleeping)
			slow := snapshotRandom(t, seed, v.cfg(), v.opts, everyCycle)
			diffSnapshots(t, fmt.Sprintf("%s seed %d", v.name, seed), ff, slow)
			skipped += ff.skipped
		}
	}
	if skipped == 0 {
		t.Fatal("fast-forwarding never engaged; the comparison proves nothing")
	}
}

// TestWakeEdgesComplete runs the missed-wake check after every cycle of
// random programs under every variant and the stress configuration, so
// a dropped wake fails even where the results happen to match; the
// checked runs must also match every-cycle ones.
func TestWakeEdgesComplete(t *testing.T) {
	run := func(label string, seed uint64, cfg config.Config, opts Options) {
		diffSnapshots(t, label, snapshotRandom(t, seed, cfg, opts, checked), snapshotRandom(t, seed, cfg, opts, everyCycle))
	}
	for _, v := range wakeVariants {
		for seed := uint64(1); seed <= 3; seed++ {
			run(fmt.Sprintf("%s seed %d", v.name, seed), seed, v.cfg(), v.opts)
		}
	}
	for seed := uint64(30); seed <= 33; seed++ {
		run(fmt.Sprintf("stress seed %d", seed), seed, stressConfig(), Options{})
	}
}

// TestCheckWakesCatchesDroppedEdge drops each class of input edge in
// turn, by wiring a zero Waker in its place, and requires the
// missed-wake check to fail.
func TestCheckWakesCatchesDroppedEdge(t *testing.T) {
	for _, tc := range []struct {
		name string
		drop func(*wakers)
	}{
		{"coordinator", func(w *wakers) { w.coord = sim.Waker{} }},
		{"lanes", func(w *wakers) { w.lanes = make([]sim.Waker, len(w.lanes)) }},
		{"mesh", func(w *wakers) { w.mesh = sim.Waker{} }},
		{"memctrls", func(w *wakers) { w.memctrls = make([]sim.Waker, len(w.memctrls)) }},
		{"drams", func(w *wakers) { w.drams = make([]sim.Waker, len(w.drams)) }},
	} {
		prog, st, _ := randomProgram(3)
		m, err := NewMachine(testConfig(4), prog, st, Options{})
		if err != nil {
			t.Fatal(err)
		}
		m.engine = sim.NewEngine()
		m.engine.FastForward = true
		w := m.register()
		tc.drop(&w)
		m.wire(w)
		err = stepChecked(m)
		if err == nil || !strings.Contains(err.Error(), "without a Wake") {
			t.Errorf("%s wakes dropped: check reported %v", tc.name, err)
		}
	}
}

// TestFastForwardByteIdenticalUnderStress repeats the invariant with
// tiny buffers everywhere: backpressure keeps components busy at every
// horizon, exercising the retry-every-cycle forecast paths.
func TestFastForwardByteIdenticalUnderStress(t *testing.T) {
	stress := stressConfig()
	for seed := uint64(30); seed <= 38; seed++ {
		ff := snapshotRandom(t, seed, stress, Options{}, sleeping)
		slow := snapshotRandom(t, seed, stress, Options{}, everyCycle)
		diffSnapshots(t, fmt.Sprintf("stress seed %d", seed), ff, slow)
	}
}

// stressConfig shrinks every buffer so backpressure keeps components
// retrying.
func stressConfig() config.Config {
	stress := testConfig(3)
	stress.NoC.VCDepth = 1
	stress.NoC.FlitBytes = 8
	stress.DRAM.QueueDepth = 1
	stress.DRAM.Channels = 2
	stress.Task.QueueDepth = 1
	stress.Task.DispatchPerCycle = 1
	return stress
}

// TestGoldenCyclesFastForwardOff pins the golden timing with skipping
// disabled; together with TestGoldenCycles (which runs the default,
// fast-forwarding path) it anchors both sides of the equality.
func TestGoldenCyclesFastForwardOff(t *testing.T) {
	st := mem.NewStorage()
	al := mem.NewAllocator()
	var tasks []Task
	for i := 0; i < 6; i++ {
		n := 64 * (i + 1)
		src := al.AllocElems(n)
		dst := al.AllocElems(n)
		v := make([]uint64, n)
		for j := range v {
			v[j] = uint64(j)
		}
		st.WriteElems(src, v)
		tasks = append(tasks, Task{
			Type: 0, Key: uint64(i), Scalars: []uint64{2},
			Ins:  []InArg{{Kind: ArgDRAMLinear, Base: src, N: n}},
			Outs: []OutArg{{Kind: OutDRAMLinear, Base: dst, N: n}},
		})
	}
	prog := &Program{Name: "golden", Types: []*TaskType{addKType()},
		NumPhases: 1, Tasks: tasks}
	m, err := NewMachine(testConfig(2), prog, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.engine.FastForward = false
	rep, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != 630 {
		t.Errorf("slow-path golden drifted: %d cycles, want 630", rep.Cycles)
	}
}
