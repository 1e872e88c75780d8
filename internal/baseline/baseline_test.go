package baseline

import (
	"strings"
	"testing"

	"taskstream/internal/config"
	"taskstream/internal/core"
	"taskstream/internal/fabric"
	"taskstream/internal/mem"
)

// smallProgram builds a skewed batch of add-constant tasks.
func smallProgram(st *mem.Storage) *core.Program {
	b := fabric.NewBuilder("addk", 1, 1)
	n := b.Add(fabric.OpPass, fabric.InPort(0))
	b.Out(0, n)
	tt := &core.TaskType{
		Name: "addk",
		DFG:  b.MustBuild(),
		Kernel: func(t *core.Task, in [][]uint64, st *mem.Storage) core.Result {
			out := make([]uint64, len(in[0]))
			for i, v := range in[0] {
				out[i] = v + 3
			}
			return core.Result{Out: [][]uint64{out}}
		},
	}
	al := mem.NewAllocator()
	sizes := []int{1200, 80, 80, 80, 80, 80, 80, 80}
	var tasks []core.Task
	for i, sz := range sizes {
		src := al.AllocElems(sz)
		dst := al.AllocElems(sz)
		v := make([]uint64, sz)
		for j := range v {
			v[j] = uint64(j)
		}
		st.WriteElems(src, v)
		tasks = append(tasks, core.Task{
			Type: 0, Key: uint64(i),
			Ins:  []core.InArg{{Kind: core.ArgDRAMLinear, Base: src, N: sz}},
			Outs: []core.OutArg{{Kind: core.OutDRAMLinear, Base: dst, N: sz}},
		})
	}
	return &core.Program{Name: "small", Types: []*core.TaskType{tt}, NumPhases: 1, Tasks: tasks}
}

func TestVariantNames(t *testing.T) {
	want := []string{"static", "dyn-rr", "+lb", "+lb+mc", "delta"}
	for v := Static; v < NumVariants; v++ {
		if v.String() != want[v] {
			t.Fatalf("variant %d name %q, want %q", v, v.String(), want[v])
		}
	}
}

// TestParseVariant keeps the -variant parser every CLI shares in sync
// with the enum: every variant resolves by its display name, and any
// other name (case included) is an error listing the valid set.
func TestParseVariant(t *testing.T) {
	for v := Static; v < NumVariants; v++ {
		got, err := ParseVariant(v.String())
		if err != nil || got != v {
			t.Fatalf("ParseVariant(%q) = %v, %v; want %v", v.String(), got, err, v)
		}
	}
	for _, name := range []string{"", "unknown", "Delta"} {
		_, err := ParseVariant(name)
		if err == nil {
			t.Fatalf("ParseVariant(%q) accepted an unknown name", name)
		}
		if !strings.Contains(err.Error(), "valid: static, dyn-rr, +lb, +lb+mc, delta") {
			t.Fatalf("ParseVariant(%q) error %q does not list the valid set", name, err)
		}
	}
}

func TestConfigureFlags(t *testing.T) {
	base := config.Default8()
	type flags struct{ lb, mc, fwd bool }
	want := map[Variant]flags{
		Static:    {false, false, false},
		DynamicRR: {false, false, false},
		LB:        {true, false, false},
		LBMC:      {true, true, false},
		Delta:     {true, true, true},
	}
	for v, f := range want {
		cfg, opts := v.Configure(base)
		if cfg.Task.EnableWorkAwareLB != f.lb || cfg.Task.EnableMulticast != f.mc ||
			cfg.Task.EnableForwarding != f.fwd {
			t.Errorf("%v: flags = %v/%v/%v, want %+v", v,
				cfg.Task.EnableWorkAwareLB, cfg.Task.EnableMulticast, cfg.Task.EnableForwarding, f)
		}
		wantPolicy := core.PolicyDynamic
		if v == Static {
			wantPolicy = core.PolicyStatic
		}
		if opts.Policy != wantPolicy {
			t.Errorf("%v: policy = %v, want %v", v, opts.Policy, wantPolicy)
		}
	}
}

func TestAllVariantsRunAndAgree(t *testing.T) {
	var cycles [NumVariants]int64
	var sums [NumVariants]uint64
	for v := Static; v < NumVariants; v++ {
		st := mem.NewStorage()
		prog := smallProgram(st)
		rep, err := Run(v, config.Default8().WithLanes(4), prog, st)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		cycles[v] = rep.Cycles
		// Checksum all outputs.
		al := mem.NewAllocator()
		sizes := []int{1200, 80, 80, 80, 80, 80, 80, 80}
		var sum uint64
		for _, sz := range sizes {
			al.AllocElems(sz)
			dst := al.AllocElems(sz)
			for _, x := range st.ReadElems(dst, sz) {
				sum = sum*31 + x
			}
		}
		sums[v] = sum
	}
	for v := Static + 1; v < NumVariants; v++ {
		if sums[v] != sums[Static] {
			t.Fatalf("variant %v produced different results", v)
		}
	}
	// The mechanisms must not hurt on this skewed single-phase batch:
	// Delta ≤ Static.
	if cycles[Delta] > cycles[Static] {
		t.Fatalf("delta (%d) slower than static (%d)", cycles[Delta], cycles[Static])
	}
	// LB must beat static on a skewed batch.
	if cycles[LB] >= cycles[Static] {
		t.Fatalf("+lb (%d) should beat static (%d)", cycles[LB], cycles[Static])
	}
}
