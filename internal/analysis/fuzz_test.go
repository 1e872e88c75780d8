package analysis_test

import (
	"encoding/binary"
	"testing"

	"taskstream/internal/analysis"
	"taskstream/internal/analysis/infer"
	"taskstream/internal/core"
	"taskstream/internal/fabric"
	"taskstream/internal/mem"
	"taskstream/internal/workload"
)

// FuzzAnalyze drives the whole analyzer — and the delta-infer
// synthesizer behind it — with arbitrary mutated programs: out-of-range
// types and phases, nil-DFG types, negative and huge stream lengths,
// degenerate affine shapes, colliding forward tags. Both must never
// panic; they report diagnostics (or refuse) instead. The corpus is
// seeded from the real suite programs, the structural companion to
// FuzzDecodeTask's per-descriptor fuzzing.

// fuzzTypes is the fixed type library fuzz programs index into. The
// last entry has no DFG, the malformed-type case the analyzer reports.
var fuzzTypes = []*core.TaskType{
	{Name: "fz-mac", DFG: fuzzDFG("fz-mac", 2)},
	{Name: "fz-deep", DFG: fuzzDFG("fz-deep", 6)},
	{Name: "fz-thin", DFG: fuzzDFG("fz-thin", 1)},
	{Name: "fz-nodfg"},
}

func fuzzDFG(name string, n int) *fabric.DFG {
	b := fabric.NewBuilder(name, 2, 1)
	cur := b.Add(fabric.OpAdd, fabric.InPort(0), fabric.InPort(1))
	for i := 1; i < n; i++ {
		cur = b.Add(fabric.OpAdd, cur, fabric.InPort(0))
	}
	b.Out(0, cur)
	return b.MustBuild()
}

// cursor reads the fuzz payload, yielding zeroes once exhausted so
// every prefix decodes to some program.
type cursor struct {
	data []byte
	pos  int
}

func (c *cursor) b() byte {
	if c.pos >= len(c.data) {
		return 0
	}
	v := c.data[c.pos]
	c.pos++
	return v
}

func (c *cursor) u16() uint16 { return binary.LittleEndian.Uint16([]byte{c.b(), c.b()}) }
func (c *cursor) u32() uint32 {
	return binary.LittleEndian.Uint32([]byte{c.b(), c.b(), c.b(), c.b()})
}
func (c *cursor) addr() mem.Addr {
	return mem.Addr(uint64(c.b()) | uint64(c.b())<<8 | uint64(c.b())<<16)
}

const (
	fuzzMaxTasks  = 64
	fuzzMaxPorts  = 6 // beyond the 4-port fabric, exercising overflow
	fuzzMaxPhases = 16
)

// decodeProgram turns an arbitrary byte string into a Program. The
// format is the encodeProgram inverse; modulo reductions keep sizes
// bounded but leave every analyzer-visible field unconstrained.
func decodeProgram(data []byte) *core.Program {
	c := &cursor{data: data}
	nTypes := int(c.b())%len(fuzzTypes) + 1
	nPhases := int(c.b())%fuzzMaxPhases + 1
	nTasks := int(c.b()) % (fuzzMaxTasks + 1)
	p := &core.Program{Name: "fuzz", Types: fuzzTypes[:nTypes], NumPhases: nPhases}
	for i := 0; i < nTasks; i++ {
		t := core.Task{
			Type:     int(int8(c.b())), // may be negative or out of range
			Phase:    int(int8(c.b())),
			Key:      uint64(c.u16()),
			WorkHint: int64(int32(c.u32())),
		}
		nIns := int(c.b()) % (fuzzMaxPorts + 1)
		nOuts := int(c.b()) % (fuzzMaxPorts + 1)
		for j := 0; j < nIns; j++ {
			in := core.InArg{
				Kind:    core.ArgKind(c.b() % 10), // includes invalid kinds
				Base:    c.addr(),
				N:       int(int32(c.u32())),
				Rows:    int(int16(c.u16())),
				RowLen:  int(int16(c.u16())),
				Pitch:   int(int16(c.u16())),
				IdxBase: c.addr(),
				Value:   uint64(c.b()),
				Tag:     uint64(c.u32()),
			}
			in.Shared = c.b()&1 != 0
			t.Ins = append(t.Ins, in)
		}
		for j := 0; j < nOuts; j++ {
			t.Outs = append(t.Outs, core.OutArg{
				Kind: core.OutKind(c.b() % 7), // includes invalid kinds
				Base: c.addr(),
				N:    int(int32(c.u32())),
				Tag:  uint64(c.u32()),
			})
		}
		p.Tasks = append(p.Tasks, t)
	}
	return p
}

// encodeProgram is the decodeProgram inverse (modulo the size caps),
// used to seed the corpus with the real suite programs' structure.
func encodeProgram(p *core.Program) []byte {
	var buf []byte
	b8 := func(v byte) { buf = append(buf, v) }
	b16 := func(v uint16) { buf = binary.LittleEndian.AppendUint16(buf, v) }
	b32 := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	a24 := func(a mem.Addr) { b8(byte(a)); b8(byte(a >> 8)); b8(byte(a >> 16)) }
	nTypes := len(p.Types)
	if nTypes > len(fuzzTypes) {
		nTypes = len(fuzzTypes)
	}
	b8(byte(nTypes - 1))
	b8(byte(p.NumPhases - 1))
	nTasks := len(p.Tasks)
	if nTasks > fuzzMaxTasks {
		nTasks = fuzzMaxTasks
	}
	b8(byte(nTasks))
	for i := 0; i < nTasks; i++ {
		t := &p.Tasks[i]
		b8(byte(int8(t.Type)))
		b8(byte(int8(t.Phase)))
		b16(uint16(t.Key))
		b32(uint32(t.WorkHint))
		nIns, nOuts := len(t.Ins), len(t.Outs)
		if nIns > fuzzMaxPorts {
			nIns = fuzzMaxPorts
		}
		if nOuts > fuzzMaxPorts {
			nOuts = fuzzMaxPorts
		}
		b8(byte(nIns))
		b8(byte(nOuts))
		for _, in := range t.Ins[:nIns] {
			b8(byte(in.Kind))
			a24(in.Base)
			b32(uint32(in.N))
			b16(uint16(in.Rows))
			b16(uint16(in.RowLen))
			b16(uint16(in.Pitch))
			a24(in.IdxBase)
			b8(byte(in.Value))
			b32(uint32(in.Tag))
			if in.Shared {
				b8(1)
			} else {
				b8(0)
			}
		}
		for _, o := range t.Outs[:nOuts] {
			b8(byte(o.Kind))
			a24(o.Base)
			b32(uint32(o.N))
			b32(uint32(o.Tag))
		}
	}
	return buf
}

func FuzzAnalyze(f *testing.F) {
	for _, nb := range workload.Suite() {
		f.Add(encodeProgram(nb.Build().Prog), int8(4), int8(10))
	}
	f.Add([]byte{}, int8(0), int8(0))
	f.Add([]byte{0xff, 0xff, 0xff}, int8(-1), int8(-1))
	f.Fuzz(func(t *testing.T, data []byte, ports, skew int8) {
		p := decodeProgram(data)
		opts := analysis.Options{NumPorts: int(ports), HintSkew: int64(skew)}
		rep := analysis.AnalyzeOpts(p, opts)
		_ = rep.String() // rendering must not panic either
		// The synthesizer must also hold up: it either refuses (vet
		// errors in, or synthesis cannot reach a clean program) or
		// returns a program that re-vets with zero errors.
		iopts := infer.Options{NumPorts: int(ports), CoarsenThreshold: int64(skew)}
		q, _, err := infer.Infer(p, iopts)
		if err == nil {
			if rep2 := analysis.AnalyzeOpts(q, analysis.Options{NumPorts: int(ports)}); rep2.Errors() > 0 {
				t.Fatalf("Infer accepted a program whose annotated form has %d vet errors:\n%s",
					rep2.Errors(), rep2)
			}
		}
	})
}
