package core

import (
	"fmt"
	"reflect"
	"testing"

	"taskstream/internal/config"
	"taskstream/internal/mem"
	"taskstream/internal/obs"
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

func snapshotRandom(t *testing.T, seed uint64, cfg config.Config, opts Options) runSnapshot {
	t.Helper()
	prog, st, outs := randomProgram(seed)
	sink := obs.New(0)
	opts.Obs = sink
	m, err := NewMachine(cfg, prog, st, opts)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	// A sink turns fast-forwarding and micro-skip off; turn them back
	// on as the options ask, so the lifecycle stream is observed under
	// the execution strategy being compared. Only the lifecycle kinds
	// are compared: per-cycle lane-state spans are what the sink
	// normally forces cycle-by-cycle execution for.
	m.engine.FastForward = !opts.DisableFastForward
	m.engine.SkipIdle = true
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

// TestFastForwardByteIdentical is the tentpole invariant: for arbitrary
// programs under every execution model, fast-forwarding must change
// nothing observable — cycle counts, all statistics, per-lane busy
// vectors, full lifecycle event streams, and results.
func TestFastForwardByteIdentical(t *testing.T) {
	variants := []struct {
		name string
		cfg  func() config.Config
		opts Options
	}{
		{"delta", func() config.Config { return testConfig(4) }, Options{}},
		{"static", func() config.Config { return testConfig(4).StaticModel() }, Options{Policy: PolicyStatic}},
		{"noisy-hints", func() config.Config { return testConfig(4) }, Options{Hints: HintNoisy}},
		{"single-lane", func() config.Config { return testConfig(1) }, Options{}},
	}
	var skipped int64
	for _, v := range variants {
		for seed := uint64(1); seed <= 8; seed++ {
			ffOpts, slowOpts := v.opts, v.opts
			slowOpts.DisableFastForward = true
			ff := snapshotRandom(t, seed, v.cfg(), ffOpts)
			slow := snapshotRandom(t, seed, v.cfg(), slowOpts)
			diffSnapshots(t, fmt.Sprintf("%s seed %d", v.name, seed), ff, slow)
			skipped += ff.skipped
		}
	}
	if skipped == 0 {
		t.Fatal("fast-forwarding never engaged; the comparison proves nothing")
	}
}

// TestFastForwardByteIdenticalUnderStress repeats the invariant with
// tiny buffers everywhere: backpressure keeps components busy at every
// horizon, exercising the retry-every-cycle forecast paths.
func TestFastForwardByteIdenticalUnderStress(t *testing.T) {
	stress := testConfig(3)
	stress.NoC.VCDepth = 1
	stress.NoC.FlitBytes = 8
	stress.DRAM.QueueDepth = 1
	stress.DRAM.Channels = 2
	stress.Task.QueueDepth = 1
	stress.Task.DispatchPerCycle = 1
	for seed := uint64(30); seed <= 38; seed++ {
		ff := snapshotRandom(t, seed, stress, Options{})
		slow := snapshotRandom(t, seed, stress, Options{DisableFastForward: true})
		diffSnapshots(t, fmt.Sprintf("stress seed %d", seed), ff, slow)
	}
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
	rep := buildAndRun(t, testConfig(2), prog, st, Options{DisableFastForward: true})
	if rep.Cycles != 630 {
		t.Errorf("slow-path golden drifted: %d cycles, want 630", rep.Cycles)
	}
}
