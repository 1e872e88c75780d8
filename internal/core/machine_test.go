package core

import (
	"strings"
	"testing"

	"taskstream/internal/config"
	"taskstream/internal/fabric"
	"taskstream/internal/mem"
	"taskstream/internal/stats"
)

// passDFG is the minimal 1-in-1-out graph used by test task types.
func passDFG(name string) *fabric.DFG {
	b := fabric.NewBuilder(name, 1, 1)
	n := b.Add(fabric.OpPass, fabric.InPort(0))
	b.Out(0, n)
	return b.MustBuild()
}

// copyType copies input port 0 to output port 0.
func copyType() *TaskType {
	return &TaskType{
		Name: "copy",
		DFG:  passDFG("copy"),
		Kernel: func(t *Task, in [][]uint64, st *mem.Storage) Result {
			out := append([]uint64(nil), in[0]...)
			return Result{Out: [][]uint64{out}}
		},
	}
}

// addKType adds Scalars[0] to every element.
func addKType() *TaskType {
	return &TaskType{
		Name: "addk",
		DFG:  passDFG("addk"),
		Kernel: func(t *Task, in [][]uint64, st *mem.Storage) Result {
			out := make([]uint64, len(in[0]))
			for i, v := range in[0] {
				out[i] = v + t.Scalars[0]
			}
			return Result{Out: [][]uint64{out}}
		},
	}
}

func testConfig(lanes int) config.Config {
	c := config.Default8()
	c.Lanes = lanes
	return c
}

// buildAndRun constructs a machine and runs it to completion.
func buildAndRun(t *testing.T, cfg config.Config, prog *Program, st *mem.Storage, opts Options) Report {
	t.Helper()
	m, err := NewMachine(cfg, prog, st, opts)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	rep, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func TestSingleCopyTask(t *testing.T) {
	st := mem.NewStorage()
	al := mem.NewAllocator()
	src := al.AllocElems(64)
	dst := al.AllocElems(64)
	vals := make([]uint64, 64)
	for i := range vals {
		vals[i] = uint64(i * 3)
	}
	st.WriteElems(src, vals)
	prog := &Program{
		Name:      "copy1",
		Types:     []*TaskType{copyType()},
		NumPhases: 1,
		Tasks: []Task{{
			Type: 0,
			Ins:  []InArg{{Kind: ArgDRAMLinear, Base: src, N: 64}},
			Outs: []OutArg{{Kind: OutDRAMLinear, Base: dst, N: 64}},
		}},
	}
	rep := buildAndRun(t, testConfig(2), prog, st, Options{})
	got := st.ReadElems(dst, 64)
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, got[i], vals[i])
		}
	}
	if rep.Cycles <= 0 {
		t.Fatal("no cycles elapsed")
	}
	if rep.Stats.Get("tasks_run") != 1 {
		t.Fatalf("tasks_run = %d", rep.Stats.Get("tasks_run"))
	}
	// A 64-element copy reads 8 lines and writes 8 lines.
	if rep.Stats.Get("dram_lines_read") != 8 || rep.Stats.Get("dram_lines_written") != 8 {
		t.Fatalf("dram lines = %d read / %d written, want 8/8",
			rep.Stats.Get("dram_lines_read"), rep.Stats.Get("dram_lines_written"))
	}
}

func TestDeterministicCycles(t *testing.T) {
	run := func() int64 {
		st := mem.NewStorage()
		al := mem.NewAllocator()
		var tasks []Task
		for i := 0; i < 10; i++ {
			src := al.AllocElems(100)
			dst := al.AllocElems(100)
			v := make([]uint64, 100)
			for j := range v {
				v[j] = uint64(i*1000 + j)
			}
			st.WriteElems(src, v)
			tasks = append(tasks, Task{
				Type: 0, Key: uint64(i),
				Ins:  []InArg{{Kind: ArgDRAMLinear, Base: src, N: 100}},
				Outs: []OutArg{{Kind: OutDRAMLinear, Base: dst, N: 100}},
			})
		}
		prog := &Program{Name: "det", Types: []*TaskType{copyType()}, NumPhases: 1, Tasks: tasks}
		return buildAndRun(t, testConfig(4), prog, st, Options{}).Cycles
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic: %d vs %d cycles", a, b)
	}
}

// skewedProgram builds tasks with strongly skewed sizes: one huge task
// and many small ones, the canonical load-balancing scenario.
func skewedProgram(t *testing.T, st *mem.Storage) *Program {
	t.Helper()
	al := mem.NewAllocator()
	sizes := []int{2000}
	for i := 0; i < 15; i++ {
		sizes = append(sizes, 100)
	}
	var tasks []Task
	for i, n := range sizes {
		src := al.AllocElems(n)
		dst := al.AllocElems(n)
		v := make([]uint64, n)
		for j := range v {
			v[j] = uint64(j)
		}
		st.WriteElems(src, v)
		tasks = append(tasks, Task{
			Type: 0, Key: uint64(i), Scalars: []uint64{1},
			Ins:  []InArg{{Kind: ArgDRAMLinear, Base: src, N: n}},
			Outs: []OutArg{{Kind: OutDRAMLinear, Base: dst, N: n}},
		})
	}
	return &Program{Name: "skew", Types: []*TaskType{addKType()}, NumPhases: 1, Tasks: tasks}
}

func TestWorkAwareBeatsStatic(t *testing.T) {
	stA, stB := mem.NewStorage(), mem.NewStorage()
	progA := skewedProgram(t, stA)
	progB := skewedProgram(t, stB)
	cfg := testConfig(4)
	dyn := buildAndRun(t, cfg, progA, stA, Options{Policy: PolicyDynamic})
	stat := buildAndRun(t, cfg.StaticModel(), progB, stB, Options{Policy: PolicyStatic})
	if dyn.Cycles >= stat.Cycles {
		t.Fatalf("work-aware (%d) should beat static (%d) on skewed tasks", dyn.Cycles, stat.Cycles)
	}
	if stats.Imbalance(dyn.LaneBusy) >= stats.Imbalance(stat.LaneBusy) {
		t.Fatalf("imbalance: dynamic %.2f should be < static %.2f",
			stats.Imbalance(dyn.LaneBusy), stats.Imbalance(stat.LaneBusy))
	}
}

func TestStaticAndDynamicSameResults(t *testing.T) {
	stA, stB := mem.NewStorage(), mem.NewStorage()
	progA := skewedProgram(t, stA)
	progB := skewedProgram(t, stB)
	cfg := testConfig(4)
	buildAndRun(t, cfg, progA, stA, Options{Policy: PolicyDynamic})
	buildAndRun(t, cfg.StaticModel(), progB, stB, Options{Policy: PolicyStatic})
	// Output regions must match bit for bit (reuse the allocators'
	// deterministic layout: outputs follow inputs pairwise).
	al := mem.NewAllocator()
	sizes := []int{2000}
	for i := 0; i < 15; i++ {
		sizes = append(sizes, 100)
	}
	for _, n := range sizes {
		al.AllocElems(n) // src
		dst := al.AllocElems(n)
		a := stA.ReadElems(dst, n)
		b := stB.ReadElems(dst, n)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("model divergence at %#x+%d: %d vs %d", dst, i, a[i], b[i])
			}
		}
	}
}

// forwardProgram: phase-0 producer transforms src and forwards to the
// phase-1 consumer, which adds 7 and writes dst.
func forwardProgram(st *mem.Storage, n int) *Program {
	al := mem.NewAllocator()
	src := al.AllocElems(n)
	mid := al.AllocElems(n)
	dst := al.AllocElems(n)
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(i * 2)
	}
	st.WriteElems(src, v)
	const tag = 99
	return &Program{
		Name:      "fwd",
		Types:     []*TaskType{copyType(), addKType()},
		NumPhases: 2,
		Tasks: []Task{
			{
				Type: 0, Phase: 0, Key: 1,
				Ins:  []InArg{{Kind: ArgDRAMLinear, Base: src, N: n}},
				Outs: []OutArg{{Kind: OutForward, Base: mid, N: n, Tag: tag}},
			},
			{
				Type: 1, Phase: 1, Key: 2, Scalars: []uint64{7},
				Ins:  []InArg{{Kind: ArgForwardIn, Base: mid, N: n, Tag: tag}},
				Outs: []OutArg{{Kind: OutDRAMLinear, Base: dst, N: n}},
			},
		},
	}
}

func TestForwardingCorrectAndFaster(t *testing.T) {
	const n = 512
	run := func(enable bool) (Report, []uint64) {
		st := mem.NewStorage()
		prog := forwardProgram(st, n)
		cfg := testConfig(2)
		cfg.Task.EnableForwarding = enable
		rep := buildAndRun(t, cfg, prog, st, Options{})
		// dst is the third allocation.
		al := mem.NewAllocator()
		al.AllocElems(n)
		al.AllocElems(n)
		dst := al.AllocElems(n)
		return rep, st.ReadElems(dst, n)
	}
	on, gotOn := run(true)
	off, gotOff := run(false)
	for i := 0; i < n; i++ {
		want := uint64(i*2 + 7)
		if gotOn[i] != want || gotOff[i] != want {
			t.Fatalf("dst[%d] = %d/%d, want %d", i, gotOn[i], gotOff[i], want)
		}
	}
	if on.Stats.Get("fwd_pairs") != 1 {
		t.Fatalf("fwd_pairs = %d, want 1", on.Stats.Get("fwd_pairs"))
	}
	if off.Stats.Get("fwd_pairs") != 0 {
		t.Fatalf("fwd_pairs (disabled) = %d, want 0", off.Stats.Get("fwd_pairs"))
	}
	if on.Cycles >= off.Cycles {
		t.Fatalf("forwarding (%d cycles) should beat memory round-trip (%d)", on.Cycles, off.Cycles)
	}
	// Forwarding must also cut DRAM traffic: the mid buffer is neither
	// written (timed) nor read back.
	if on.Stats.Get("dram_bytes") >= off.Stats.Get("dram_bytes") {
		t.Fatalf("forwarding should reduce DRAM bytes: %d vs %d",
			on.Stats.Get("dram_bytes"), off.Stats.Get("dram_bytes"))
	}
}

// sharedReadProgram: k tasks each read the same shared table plus a
// private stripe and write a private result.
func sharedReadProgram(st *mem.Storage, k, shared, private int) *Program {
	al := mem.NewAllocator()
	tbl := al.AllocElems(shared)
	tv := make([]uint64, shared)
	for i := range tv {
		tv[i] = uint64(i + 1)
	}
	st.WriteElems(tbl, tv)
	tt := &TaskType{
		Name: "dot",
		DFG:  passDFG("dot"),
		Kernel: func(t *Task, in [][]uint64, st *mem.Storage) Result {
			var sum uint64
			for _, v := range in[0] {
				sum += v
			}
			for _, v := range in[1] {
				sum += v
			}
			return Result{Out: [][]uint64{nil, nil, {sum}}}
		},
	}
	var tasks []Task
	for i := 0; i < k; i++ {
		priv := al.AllocElems(private)
		pv := make([]uint64, private)
		for j := range pv {
			pv[j] = uint64(i*j + 1)
		}
		st.WriteElems(priv, pv)
		res := al.AllocElems(1)
		tasks = append(tasks, Task{
			Type: 0, Key: uint64(i),
			Ins: []InArg{
				{Kind: ArgDRAMLinear, Base: tbl, N: shared, Shared: true},
				{Kind: ArgDRAMLinear, Base: priv, N: private},
			},
			Outs: []OutArg{{}, {}, {Kind: OutDRAMLinear, Base: res, N: 1}},
		})
	}
	return &Program{Name: "shared", Types: []*TaskType{tt}, NumPhases: 1, Tasks: tasks}
}

func TestMulticastReducesDRAMTraffic(t *testing.T) {
	const k, shared, private = 8, 1024, 64
	run := func(enable bool) Report {
		st := mem.NewStorage()
		prog := sharedReadProgram(st, k, shared, private)
		cfg := testConfig(8)
		cfg.Task.EnableMulticast = enable
		return buildAndRun(t, cfg, prog, st, Options{})
	}
	on := run(true)
	off := run(false)
	if on.Stats.Get("mcast_groups") == 0 {
		t.Fatal("no multicast groups formed")
	}
	if on.Stats.Get("dram_lines_read") >= off.Stats.Get("dram_lines_read") {
		t.Fatalf("multicast should cut DRAM reads: %d vs %d",
			on.Stats.Get("dram_lines_read"), off.Stats.Get("dram_lines_read"))
	}
	if on.Cycles >= off.Cycles {
		t.Fatalf("multicast (%d cycles) should beat unicast (%d)", on.Cycles, off.Cycles)
	}
}

func TestMulticastSameResults(t *testing.T) {
	const k, shared, private = 4, 256, 32
	results := func(enable bool) []uint64 {
		st := mem.NewStorage()
		prog := sharedReadProgram(st, k, shared, private)
		cfg := testConfig(4)
		cfg.Task.EnableMulticast = enable
		buildAndRun(t, cfg, prog, st, Options{})
		al := mem.NewAllocator()
		al.AllocElems(shared)
		var out []uint64
		for i := 0; i < k; i++ {
			al.AllocElems(private)
			res := al.AllocElems(1)
			out = append(out, st.Read8(res))
		}
		return out
	}
	a, b := results(true), results(false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

// spawnProgram: a parent task (phase 0) spawns one child per 16-element
// block of its input; children add 5 to their block into dst, in phase
// childPhase.
func spawnProgram(st *mem.Storage, blocks, childPhase int) *Program {
	al := mem.NewAllocator()
	n := blocks * 16
	src := al.AllocElems(n)
	dst := al.AllocElems(n)
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(i + 10)
	}
	st.WriteElems(v0(src), v)
	parent := &TaskType{
		Name: "parent",
		DFG:  passDFG("parent"),
		Kernel: func(t *Task, in [][]uint64, st *mem.Storage) Result {
			var spawns []Spawn
			for b := 0; b < len(in[0])/16; b++ {
				spawns = append(spawns, Spawn{
					AtFiring: b,
					Task: Task{
						Type: 1, Phase: childPhase, Key: uint64(b),
						Scalars: []uint64{5},
						Ins:     []InArg{{Kind: ArgDRAMLinear, Base: src + mem.Addr(b*16*8), N: 16}},
						Outs:    []OutArg{{Kind: OutDRAMLinear, Base: dst + mem.Addr(b*16*8), N: 16}},
					},
				})
			}
			return Result{Out: [][]uint64{in[0]}, Spawns: spawns}
		},
	}
	mid := al.AllocElems(n)
	_ = mid
	tasks := []Task{{
		Type: 0, Phase: 0,
		Ins:  []InArg{{Kind: ArgDRAMLinear, Base: src, N: n}},
		Outs: []OutArg{{Kind: OutDiscard, N: n}},
	}}
	return &Program{Name: "spawn", Types: []*TaskType{parent, addKType()}, NumPhases: 2, Tasks: tasks}
}

func v0(a mem.Addr) mem.Addr { return a }

func TestSpawnedTasksRun(t *testing.T) {
	const blocks = 6
	st := mem.NewStorage()
	prog := spawnProgram(st, blocks, 1)
	rep := buildAndRun(t, testConfig(4), prog, st, Options{})
	if rep.Stats.Get("tasks_spawned") != blocks {
		t.Fatalf("tasks_spawned = %d, want %d", rep.Stats.Get("tasks_spawned"), blocks)
	}
	if rep.Stats.Get("tasks_run") != blocks+1 {
		t.Fatalf("tasks_run = %d, want %d", rep.Stats.Get("tasks_run"), blocks+1)
	}
	al := mem.NewAllocator()
	n := blocks * 16
	al.AllocElems(n)
	dst := al.AllocElems(n)
	got := st.ReadElems(dst, n)
	for i := range got {
		if got[i] != uint64(i+10+5) {
			t.Fatalf("dst[%d] = %d, want %d", i, got[i], i+15)
		}
	}
}

func TestSpawnStaticModeBarriers(t *testing.T) {
	// Spawns also work under the static model: children are collected
	// and partitioned at the phase barrier.
	const blocks = 6
	st := mem.NewStorage()
	prog := spawnProgram(st, blocks, 1)
	rep := buildAndRun(t, testConfig(4).StaticModel(), prog, st, Options{Policy: PolicyStatic})
	if rep.Stats.Get("tasks_run") != blocks+1 {
		t.Fatalf("tasks_run = %d, want %d", rep.Stats.Get("tasks_run"), blocks+1)
	}
}

// TestSpawnIntoCurrentPhase runs children that the kernel spawns into
// its own phase, under both policies. The static policy used to
// partition only the tasks pending at the phase's first dispatch and
// never dispatched later arrivals, so the run hit its cycle limit with
// every component idle.
func TestSpawnIntoCurrentPhase(t *testing.T) {
	const blocks = 6
	for _, tc := range []struct {
		policy Policy
		cfg    config.Config
	}{
		{PolicyDynamic, testConfig(4)},
		{PolicyStatic, testConfig(4).StaticModel()},
	} {
		st := mem.NewStorage()
		prog := spawnProgram(st, blocks, 0)
		rep := buildAndRun(t, tc.cfg, prog, st, Options{Policy: tc.policy, MaxCycles: 200_000})
		if got := rep.Stats.Get("tasks_run"); got != blocks+1 {
			t.Fatalf("%s: tasks_run = %d, want %d", tc.policy, got, blocks+1)
		}
		al := mem.NewAllocator()
		n := blocks * 16
		al.AllocElems(n)
		dst := al.AllocElems(n)
		for i, v := range st.ReadElems(dst, n) {
			if v != uint64(i+10+5) {
				t.Fatalf("%s: dst[%d] = %d, want %d", tc.policy, i, v, i+15)
			}
		}
	}
}

// TestCycleLimitErrorNamesBacklog pins the diagnosis of a run whose
// tasks stay pending while every component idles: the error says the
// done predicate is unmet and how many tasks wait in which phase.
func TestCycleLimitErrorNamesBacklog(t *testing.T) {
	st := mem.NewStorage()
	m, err := NewMachine(testConfig(4), spawnProgram(st, 6, 1), st, Options{MaxCycles: 1000})
	if err != nil {
		t.Fatal(err)
	}
	m.cfg.Task.DispatchPerCycle = 0 // the coordinator never dispatches
	_, err = m.Run()
	if err == nil {
		t.Fatal("want a cycle-limit error")
	}
	for _, want := range []string{"cycle limit 1000", "done predicate is unmet", "phase 0: 1 pending, 0 active"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not say %q", err, want)
		}
	}
}

func TestHintModes(t *testing.T) {
	for _, h := range []HintMode{HintExact, HintNone, HintNoisy} {
		st := mem.NewStorage()
		prog := skewedProgram(t, st)
		rep := buildAndRun(t, testConfig(4), prog, st, Options{Hints: h})
		if rep.Stats.Get("tasks_run") != 16 {
			t.Fatalf("hint mode %d: tasks_run = %d", h, rep.Stats.Get("tasks_run"))
		}
	}
}

func TestGatherTask(t *testing.T) {
	st := mem.NewStorage()
	al := mem.NewAllocator()
	const n = 128
	table := al.AllocElems(1024)
	for i := 0; i < 1024; i++ {
		st.Write8(table+mem.Addr(i*8), uint64(i*i))
	}
	idx := al.AllocElems(n)
	for i := 0; i < n; i++ {
		st.Write8(idx+mem.Addr(i*8), uint64((i*37)%1024))
	}
	dst := al.AllocElems(n)
	prog := &Program{
		Name:      "gather",
		Types:     []*TaskType{copyType()},
		NumPhases: 1,
		Tasks: []Task{{
			Type: 0,
			Ins:  []InArg{{Kind: ArgDRAMGather, Base: table, IdxBase: idx, N: n}},
			Outs: []OutArg{{Kind: OutDRAMLinear, Base: dst, N: n}},
		}},
	}
	buildAndRun(t, testConfig(2), prog, st, Options{})
	for i := 0; i < n; i++ {
		want := uint64((i * 37) % 1024)
		want = want * want
		if got := st.Read8(dst + mem.Addr(i*8)); got != want {
			t.Fatalf("dst[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	st := mem.NewStorage()
	bad := []*Program{
		{Name: "no-types", NumPhases: 1},
		{Name: "no-phase", Types: []*TaskType{copyType()}},
		{Name: "bad-task", Types: []*TaskType{copyType()}, NumPhases: 1,
			Tasks: []Task{{Type: 5}}},
		{Name: "bad-shared", Types: []*TaskType{copyType()}, NumPhases: 1,
			Tasks: []Task{{Type: 0, Ins: []InArg{{Kind: ArgDRAMGather, Base: 64, IdxBase: 64, N: 1, Shared: true}}}}},
	}
	for _, p := range bad {
		if _, err := NewMachine(testConfig(2), p, st, Options{}); err == nil {
			t.Errorf("program %q: want error", p.Name)
		}
	}
}

func TestScalingReducesCycles(t *testing.T) {
	mk := func() (*mem.Storage, *Program) {
		st := mem.NewStorage()
		al := mem.NewAllocator()
		var tasks []Task
		for i := 0; i < 32; i++ {
			src := al.AllocElems(200)
			dst := al.AllocElems(200)
			v := make([]uint64, 200)
			for j := range v {
				v[j] = uint64(j)
			}
			st.WriteElems(src, v)
			tasks = append(tasks, Task{
				Type: 0, Key: uint64(i), Scalars: []uint64{1},
				Ins:  []InArg{{Kind: ArgDRAMLinear, Base: src, N: 200}},
				Outs: []OutArg{{Kind: OutDRAMLinear, Base: dst, N: 200}},
			})
		}
		return st, &Program{Name: "scale", Types: []*TaskType{addKType()}, NumPhases: 1, Tasks: tasks}
	}
	st1, p1 := mk()
	st4, p4 := mk()
	one := buildAndRun(t, testConfig(1), p1, st1, Options{})
	four := buildAndRun(t, testConfig(4), p4, st4, Options{})
	if four.Cycles >= one.Cycles {
		t.Fatalf("4 lanes (%d cycles) should beat 1 lane (%d)", four.Cycles, one.Cycles)
	}
}
