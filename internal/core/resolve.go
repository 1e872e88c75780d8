package core

import (
	"fmt"

	"taskstream/internal/fabric"
	"taskstream/internal/mem"
	"taskstream/internal/stream"
)

// resolved is a dispatched task: the kernel has been evaluated (the
// functional half) and every port has a stream setup (the timing half).
type resolved struct {
	task    Task
	typeID  int
	mapping fabric.Mapping
	firings int
	inSet   []stream.ReadSetup
	outSet  []stream.WriteSetup
	inN     []int
	outN    []int
	spawns  []Spawn
	hint    int64
	lane    int
	// startGate, when non-nil, is opened when this task starts on its
	// lane; paired producers ship forwarded elements only after that.
	startGate *bool
}

// resolveOpts carry the coordinator's forwarding decisions into
// resolution.
type resolveOpts struct {
	// fwdOutTag selects which OutForward tag actually forwards over
	// the NoC this dispatch (0: all fall back to memory).
	fwdOutTag uint64
	// fwdInTags lists the ArgForwardIn tags delivered by co-dispatched
	// producers (others read the memory fallback).
	fwdInTags map[uint64]bool
	// gate is the shared consumer-started gate for this forward group.
	gate *bool
}

// resolveInputs produces the kernel's input value streams and remembers
// gather index values for the timing setup.
func (m *Machine) resolveInputs(t *Task) (vals [][]uint64, idxs [][]uint64, err error) {
	vals = make([][]uint64, len(t.Ins))
	idxs = make([][]uint64, len(t.Ins))
	for p, in := range t.Ins {
		switch in.Kind {
		case ArgNone, ArgConst:
			// Kernels read constants from the arg itself.
		case ArgDRAMLinear, ArgSpadLinear:
			vals[p] = m.storage.ReadElems(in.Base, in.N)
		case ArgDRAMAffine:
			vs := make([]uint64, 0, in.N)
			for r := 0; r < in.Rows; r++ {
				base := in.Base + mem.Addr(r*in.Pitch*mem.ElemBytes)
				vs = append(vs, m.storage.ReadElems(base, in.RowLen)...)
			}
			vals[p] = vs
		case ArgDRAMGather, ArgSpadGather:
			ix := m.storage.ReadElems(in.IdxBase, in.N)
			idxs[p] = ix
			vs := make([]uint64, in.N)
			for i, v := range ix {
				vs[i] = m.storage.Read8(in.Base + mem.Addr(v*mem.ElemBytes))
			}
			vals[p] = vs
		case ArgForwardIn:
			data, ok := m.tagData[in.Tag]
			if !ok {
				return nil, nil, fmt.Errorf("core: tag %d consumed before production", in.Tag)
			}
			vals[p] = data
		default:
			return nil, nil, fmt.Errorf("core: unknown ArgKind %d", in.Kind)
		}
	}
	return vals, idxs, nil
}

// resolve evaluates the task's kernel and builds its stream setups.
// The forwarding destination of OutForward ports is patched later by
// the coordinator once the consumer's lane is known.
func (m *Machine) resolve(t Task, lane int, opts resolveOpts) (*resolved, error) {
	tt := m.prog.Types[t.Type]
	inVals, idxVals, err := m.resolveInputs(&t)
	if err != nil {
		return nil, err
	}
	res := tt.Kernel(&t, inVals, m.storage)

	r := &resolved{
		task:    t,
		typeID:  t.Type,
		mapping: m.mappings[t.Type],
		inSet:   make([]stream.ReadSetup, m.cfg.Fabric.NumPorts),
		outSet:  make([]stream.WriteSetup, m.cfg.Fabric.NumPorts),
		inN:     make([]int, m.cfg.Fabric.NumPorts),
		outN:    make([]int, m.cfg.Fabric.NumPorts),
		spawns:  res.Spawns,
		lane:    lane,
	}
	r.hint = m.effectiveHint(&t)

	if len(t.Ins) > m.cfg.Fabric.NumPorts || len(t.Outs) > m.cfg.Fabric.NumPorts {
		return nil, fmt.Errorf("core: task type %s uses more ports than the fabric has", tt.Name)
	}

	for p, in := range t.Ins {
		switch in.Kind {
		case ArgNone:
		case ArgConst:
			r.inSet[p] = stream.ReadSetup{Kind: stream.SrcConst, N: 1}
			r.inN[p] = 1
		case ArgDRAMLinear, ArgDRAMAffine:
			var addrs []mem.Addr
			if in.Kind == ArgDRAMLinear {
				addrs = stream.LinearAddrs(in.Base, in.N)
			} else {
				addrs = stream.Affine2DAddrs(in.Base, in.Rows, in.RowLen, in.Pitch)
			}
			setup := stream.ReadSetup{Kind: stream.SrcDRAM, N: in.N, Addrs: addrs}
			if in.Shared && m.cfg.Task.EnableMulticast && in.Kind == ArgDRAMLinear {
				// Join or open a multicast group for this range.
				g := m.mcast.join(in.Base, in.N, m.lanes[lane].node, m.now)
				setup = stream.ReadSetup{
					Kind:     stream.SrcMulticast,
					N:        in.N,
					Group:    g.id,
					Lines:    g.lines,
					HeadSkip: g.headSkip,
				}
				m.set.Add("mcast_joins", 1)
			}
			r.inSet[p] = setup
			r.inN[p] = in.N
		case ArgDRAMGather:
			r.inSet[p] = stream.ReadSetup{
				Kind:     stream.SrcDRAM,
				N:        in.N,
				Addrs:    stream.GatherAddrs(in.Base, idxVals[p]),
				IdxAddrs: stream.LinearAddrs(in.IdxBase, in.N),
			}
			r.inN[p] = in.N
		case ArgSpadLinear:
			r.inSet[p] = stream.ReadSetup{Kind: stream.SrcSpad, N: in.N,
				Addrs: stream.LinearAddrs(in.Base, in.N)}
			r.inN[p] = in.N
		case ArgSpadGather:
			r.inSet[p] = stream.ReadSetup{Kind: stream.SrcSpad, N: in.N,
				Addrs: stream.GatherAddrs(in.Base, idxVals[p])}
			r.inN[p] = in.N
		case ArgForwardIn:
			n := len(inVals[p])
			if opts.fwdInTags[in.Tag] {
				r.inSet[p] = stream.ReadSetup{Kind: stream.SrcForward, N: n}
				r.startGate = opts.gate
			} else {
				// Memory-mediated dependence: read the fallback region
				// the producer wrote.
				r.inSet[p] = stream.ReadSetup{Kind: stream.SrcDRAM, N: n,
					Addrs: stream.LinearAddrs(in.Base, n)}
			}
			r.inN[p] = n
		}
	}

	for p, o := range t.Outs {
		var outVals []uint64
		if p < len(res.Out) {
			outVals = res.Out[p]
		}
		n := len(outVals)
		if o.N >= 0 && o.Kind != OutNone && n != o.N {
			return nil, fmt.Errorf("core: task type %s out port %d produced %d elements, declared %d",
				tt.Name, p, n, o.N)
		}
		switch o.Kind {
		case OutNone:
		case OutDiscard:
			r.outSet[p] = stream.WriteSetup{Kind: stream.DstDiscard, N: n}
			r.outN[p] = n
		case OutDRAMLinear:
			m.storage.WriteElems(o.Base, outVals)
			r.outSet[p] = stream.WriteSetup{Kind: stream.DstDRAM, N: n,
				Addrs: stream.LinearAddrs(o.Base, n)}
			r.outN[p] = n
		case OutSpadLinear:
			m.storage.WriteElems(o.Base, outVals)
			r.outSet[p] = stream.WriteSetup{Kind: stream.DstSpad, N: n,
				Addrs: stream.LinearAddrs(o.Base, n)}
			r.outN[p] = n
		case OutForward:
			// Values are retained for the consumer's resolution and
			// also written to the memory fallback so that both
			// execution models compute identical state.
			m.tagData[o.Tag] = outVals
			m.storage.WriteElems(o.Base, outVals)
			if o.Tag == opts.fwdOutTag && opts.fwdOutTag != 0 {
				// ConsumerLane/Port are patched by the coordinator.
				r.outSet[p] = stream.WriteSetup{Kind: stream.DstForward, N: n,
					ConsumerLane: -1, ConsumerPort: -1, Gate: opts.gate}
			} else {
				r.outSet[p] = stream.WriteSetup{Kind: stream.DstDRAM, N: n,
					Addrs: stream.LinearAddrs(o.Base, n)}
			}
			r.outN[p] = n
		}
	}

	// Firing count: the longest port stream at PortWidth elements per
	// firing. Constants dwell and do not gate.
	pw := m.cfg.Fabric.PortWidth
	f := 1
	for p := range r.inSet {
		if r.inSet[p].Kind == stream.SrcConst || r.inSet[p].Kind == stream.SrcNone {
			continue
		}
		if k := (r.inN[p] + pw - 1) / pw; k > f {
			f = k
		}
	}
	for p := range r.outSet {
		if r.outSet[p].Kind == stream.DstNone {
			continue
		}
		if k := (r.outN[p] + pw - 1) / pw; k > f {
			f = k
		}
	}
	r.firings = f
	// Clamp spawn stamps into the firing range so every spawn is
	// emitted before the task completes.
	for i := range r.spawns {
		if r.spawns[i].AtFiring >= f {
			r.spawns[i].AtFiring = f - 1
		}
		if r.spawns[i].AtFiring < 0 {
			r.spawns[i].AtFiring = 0
		}
	}
	return r, nil
}

// portDelta returns how many elements of an N-element stream belong to
// firing f out of F (proportional progress: cumulative floor((f+1)N/F)).
func portDelta(n, f, total int) int {
	if total <= 0 {
		return 0
	}
	return (f+1)*n/total - f*n/total
}
