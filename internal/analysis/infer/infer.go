// Package infer runs the delta-vet analysis in reverse: instead of
// checking the annotations of a TaskStream program it synthesizes
// them. Given a plain task program — no work hints, no forward tags,
// no shared-read marks — the pass rebuilds the inter-task structure
// the annotations would declare, from exactly the static facts the
// verifier reasons over (per-port stream lengths, DFG op counts, and
// the per-phase memory-region footprint):
//
//   - Work hints: a task's streamed element count is a hard lower
//     bound on its work (the fabric cycles every element through a
//     port), and its DFG op count scales that per element, so the
//     synthesized hint is max(maxN, ceil(maxN·|DFG|/PortWidth)).
//
//   - Forward tags: a region written by exactly one task in phase p
//     and read — with the identical (base, length) — by exactly one
//     task in phase p+1 is a point-to-point producer→consumer stream;
//     the pair is tagged with a fresh tag and the matching memory
//     fallback. Because OutForward always writes its fallback region,
//     later readers of the region are unaffected.
//
//   - Shared-read marks: an identical linear DRAM range read by two
//     or more tasks of one phase is a multicast group; every endpoint
//     is marked Shared.
//
// Forwarding additionally moves the consumer's dispatch into the
// producer's phase window, so a pair is only tagged when the
// consumer's remaining statically-known regions cannot race with
// producer-phase traffic (see forwardSafe). Inference is additive
// (existing annotations are kept, never overwritten), deterministic
// (fresh tags are assigned in phase-then-region order, so equal inputs
// produce byte-equal outputs and stable runplan cache keys), and gated
// by the verifier on both sides: a program that fails delta-vet is
// refused, and the annotated result must itself vet clean.
package infer

import (
	"fmt"
	"sort"
	"strings"

	"taskstream/internal/analysis"
	"taskstream/internal/core"
	"taskstream/internal/mem"
)

// Options tunes the synthesizer.
type Options struct {
	// NumPorts is the fabric's physical port count, passed to the
	// gating verifier. 0 disables the port bound (program-only
	// analysis).
	NumPorts int
	// PortWidth is the fabric's vector port width, the per-cycle
	// element throughput the work-hint model divides DFG ops by.
	// 0 means the default of 4.
	PortWidth int
}

const defaultPortWidth = 4

// Infer synthesizes annotations for p and returns the annotated
// program (a deep copy; p is never mutated) plus the patch describing
// every change. It fails if p itself has delta-vet errors, or — the
// synthesizer's own gate — if the annotated result does.
func Infer(p *core.Program, opts Options) (*core.Program, *Patch, error) {
	if opts.PortWidth <= 0 {
		opts.PortWidth = defaultPortWidth
	}
	vetOpts := analysis.Options{NumPorts: opts.NumPorts}
	if rep := analysis.AnalyzeOpts(p, vetOpts); rep.Errors() > 0 {
		return nil, nil, fmt.Errorf("infer: %q fails delta-vet with %d error(s); refusing to annotate:\n%s",
			p.Name, rep.Errors(), firstErrors(rep, 3))
	}
	q := p.WithTasks(core.CloneTasks(p.Tasks))
	patch := &Patch{Program: p.Name}
	inferForwards(q, patch)
	inferShared(q, patch)
	inferHints(q, opts.PortWidth, patch)
	if rep := analysis.AnalyzeOpts(q, vetOpts); rep.Errors() > 0 {
		return nil, nil, fmt.Errorf("infer: synthesized annotations for %q fail delta-vet with %d error(s):\n%s",
			p.Name, rep.Errors(), firstErrors(rep, 3))
	}
	return q, patch, nil
}

// firstErrors renders up to n error diagnostics for error messages.
func firstErrors(rep *analysis.Report, n int) string {
	var b strings.Builder
	for _, d := range rep.Diags {
		if d.Sev != analysis.Error {
			continue
		}
		fmt.Fprintf(&b, "  %s\n", d.String())
		if n--; n == 0 {
			break
		}
	}
	return strings.TrimRight(b.String(), "\n")
}

// regKey identifies a linear region the way the multicast manager and
// the forwarding fallback contract do: exact (base, element count).
type regKey struct {
	base mem.Addr
	n    int
}

type endpoint struct{ task, port int }

// fspan is one statically-known [lo, hi) byte range of a phase's
// memory footprint.
type fspan struct{ lo, hi mem.Addr }

func (s fspan) overlaps(t fspan) bool { return s.lo < t.hi && t.lo < s.hi }

func mkspan(base mem.Addr, n int) fspan {
	return fspan{lo: base, hi: base + mem.Addr(n*mem.ElemBytes)}
}

// candidate is one forward pair under consideration.
type candidate struct {
	key  regKey
	prod endpoint
	cons endpoint
}

// inferForwards tags every safe point-to-point cross-phase stream.
func inferForwards(p *core.Program, patch *Patch) {
	if p.NumPhases < 2 {
		return
	}
	// Index exact linear DRAM writes and reads by phase and region,
	// and collect each phase's full static footprint for safety checks.
	writes := make([]map[regKey][]endpoint, p.NumPhases)
	reads := make([]map[regKey][]endpoint, p.NumPhases)
	writeFP := make([][]fspan, p.NumPhases)
	readFP := make([][]fspan, p.NumPhases)
	hasFwdOut := make([]bool, len(p.Tasks))
	for ti := range p.Tasks {
		t := &p.Tasks[ti]
		ph := t.Phase
		if ph < 0 || ph >= p.NumPhases {
			continue
		}
		for pi, o := range t.Outs {
			if o.Kind == core.OutForward {
				hasFwdOut[ti] = true
			}
			if o.N <= 0 {
				continue
			}
			switch o.Kind {
			case core.OutDRAMLinear:
				if o.Base != 0 {
					k := regKey{o.Base, o.N}
					if writes[ph] == nil {
						writes[ph] = make(map[regKey][]endpoint)
					}
					writes[ph][k] = append(writes[ph][k], endpoint{ti, pi})
				}
				writeFP[ph] = append(writeFP[ph], mkspan(o.Base, o.N))
			case core.OutSpadLinear, core.OutForward:
				writeFP[ph] = append(writeFP[ph], mkspan(o.Base, o.N))
			}
		}
		for pi, in := range t.Ins {
			if in.N <= 0 {
				continue
			}
			switch in.Kind {
			case core.ArgDRAMLinear:
				k := regKey{in.Base, in.N}
				if reads[ph] == nil {
					reads[ph] = make(map[regKey][]endpoint)
				}
				reads[ph][k] = append(reads[ph][k], endpoint{ti, pi})
				readFP[ph] = append(readFP[ph], mkspan(in.Base, in.N))
			case core.ArgSpadLinear, core.ArgForwardIn:
				readFP[ph] = append(readFP[ph], mkspan(in.Base, in.N))
			case core.ArgDRAMGather, core.ArgSpadGather:
				readFP[ph] = append(readFP[ph], mkspan(in.IdxBase, in.N))
			}
		}
	}

	nextTag := core.MaxTag(p.Tasks) + 1
	for ph := 0; ph+1 < p.NumPhases; ph++ {
		cands := collectCandidates(p, writes[ph], reads[ph+1], hasFwdOut)
		cands = pruneUnsafe(p, cands, writeFP[ph], readFP[ph])
		for _, c := range cands {
			po := &p.Tasks[c.prod.task].Outs[c.prod.port]
			ci := &p.Tasks[c.cons.task].Ins[c.cons.port]
			po.Kind, po.Tag = core.OutForward, nextTag
			ci.Kind, ci.Tag, ci.Shared = core.ArgForwardIn, nextTag, false
			hasFwdOut[c.prod.task] = true
			patch.Forwards = append(patch.Forwards, ForwardChange{
				Tag:      nextTag,
				Producer: c.prod.task, ProdPort: c.prod.port,
				Consumer: c.cons.task, ConsPort: c.cons.port,
				Base: uint64(c.key.base), N: c.key.n,
			})
			nextTag++
		}
	}
}

// collectCandidates pairs each region written by exactly one phase-p
// task with its single exact-match reader in phase p+1. A producer can
// drive at most one forward stream (the resolver selects one OutForward
// tag per dispatch), so only its first region in sorted order is kept.
func collectCandidates(p *core.Program, writes, reads map[regKey][]endpoint, hasFwdOut []bool) []candidate {
	keys := make([]regKey, 0, len(writes))
	for k := range writes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i].base < keys[j].base ||
			(keys[i].base == keys[j].base && keys[i].n < keys[j].n)
	})
	taken := make(map[int]bool)
	var out []candidate
	for _, k := range keys {
		ws, rs := writes[k], reads[k]
		if len(ws) != 1 || len(rs) != 1 {
			continue
		}
		w, r := ws[0], rs[0]
		if hasFwdOut[w.task] || taken[w.task] {
			continue
		}
		// A consumer that already mixes pre-existing forward-ins with
		// new ones would need a dispatch group the pass cannot reason
		// about; leave it alone.
		if p.Tasks[r.task].ConsumesTag() != 0 {
			continue
		}
		taken[w.task] = true
		out = append(out, candidate{key: k, prod: w, cons: r})
	}
	return out
}

// pruneUnsafe drops candidates whose consumer cannot be co-dispatched
// into the producer's phase window. Forwarding moves the consumer's
// eager resolution from phase p+1 into phase p, so every OTHER
// statically-known region the consumer touches must be disjoint from
// phase p's footprint: its remaining reads must not hit phase-p
// writes (they would observe dispatch-order-dependent data), and its
// writes must not hit phase-p reads or writes (phase-p tasks would).
// Ports being converted together are exempt — their ordering is the
// tag dependence itself, the case of a consumer fed by two forwarded
// streams. Rejecting one candidate turns its port back into a plain
// phase-p-written read for sibling candidates of the same consumer,
// so the filter iterates to a fixed point.
func pruneUnsafe(p *core.Program, cands []candidate, phWrites, phReads []fspan) []candidate {
	for {
		converted := make(map[endpoint]bool, len(cands))
		for _, c := range cands {
			converted[c.cons] = true
		}
		keep := cands[:0:len(cands)]
		changed := false
		for _, c := range cands {
			if consumerSafe(p, c.cons.task, converted, phWrites, phReads) {
				keep = append(keep, c)
			} else {
				changed = true
			}
		}
		cands = keep
		if !changed {
			return cands
		}
	}
}

// consumerSafe checks one consumer task against the producer phase's
// footprint (see pruneUnsafe).
func consumerSafe(p *core.Program, task int, converted map[endpoint]bool, phWrites, phReads []fspan) bool {
	t := &p.Tasks[task]
	for pi, in := range t.Ins {
		if converted[endpoint{task, pi}] {
			continue
		}
		var rd fspan
		switch in.Kind {
		case core.ArgNone, core.ArgConst:
			continue
		case core.ArgDRAMLinear, core.ArgSpadLinear, core.ArgForwardIn:
			if in.N <= 0 {
				continue
			}
			rd = mkspan(in.Base, in.N)
		case core.ArgDRAMAffine:
			if in.N <= 0 {
				continue
			}
			rd = affineHull(in)
		default:
			// Gathers read data at run-time addresses the pass cannot
			// bound; refuse to move the task.
			return false
		}
		for _, w := range phWrites {
			if rd.overlaps(w) {
				return false
			}
		}
	}
	for _, o := range t.Outs {
		switch o.Kind {
		case core.OutNone, core.OutDiscard:
			continue
		}
		if o.N < 0 {
			return false // kernel-determined extent: unknown write set
		}
		if o.N == 0 {
			continue
		}
		wr := mkspan(o.Base, o.N)
		for _, w := range phWrites {
			if wr.overlaps(w) {
				return false
			}
		}
		for _, r := range phReads {
			if wr.overlaps(r) {
				return false
			}
		}
	}
	return true
}

// affineHull covers an affine shape with one conservative span.
func affineHull(in core.InArg) fspan {
	lastOff := int64(in.Rows-1) * int64(in.Pitch)
	lo, hi := int64(0), int64(0)
	if lastOff < 0 {
		lo = lastOff
	} else {
		hi = lastOff
	}
	hi += int64(in.RowLen)
	return fspan{lo: in.Base + mem.Addr(lo*mem.ElemBytes), hi: in.Base + mem.Addr(hi*mem.ElemBytes)}
}

// inferShared marks every identical linear DRAM range read by two or
// more distinct tasks of one phase — the exact-match condition under
// which the multicast manager coalesces.
func inferShared(p *core.Program, patch *Patch) {
	if p.NumPhases <= 0 {
		return
	}
	groups := make([]map[regKey][]endpoint, p.NumPhases)
	for ti := range p.Tasks {
		t := &p.Tasks[ti]
		ph := t.Phase
		if ph < 0 || ph >= p.NumPhases {
			continue
		}
		for pi, in := range t.Ins {
			if in.Kind != core.ArgDRAMLinear || in.N <= 0 {
				continue
			}
			if groups[ph] == nil {
				groups[ph] = make(map[regKey][]endpoint)
			}
			k := regKey{in.Base, in.N}
			groups[ph][k] = append(groups[ph][k], endpoint{ti, pi})
		}
	}
	for ph := 0; ph < p.NumPhases; ph++ {
		keys := make([]regKey, 0, len(groups[ph]))
		for k := range groups[ph] {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			return keys[i].base < keys[j].base ||
				(keys[i].base == keys[j].base && keys[i].n < keys[j].n)
		})
		for _, k := range keys {
			eps := groups[ph][k]
			distinct := make(map[int]bool, len(eps))
			for _, ep := range eps {
				distinct[ep.task] = true
			}
			if len(distinct) < 2 {
				continue
			}
			for _, ep := range eps {
				in := &p.Tasks[ep.task].Ins[ep.port]
				if in.Shared {
					continue
				}
				in.Shared = true
				patch.Shared = append(patch.Shared, SharedChange{
					Task: ep.task, Port: ep.port, Base: uint64(k.base), N: k.n,
				})
			}
		}
	}
}

// inferHints fills every unset work hint from the static work model:
// the longest port stream maxN bounds work from below, and the task
// type's DFG performs |nodes| ops per element at PortWidth elements
// per cycle, so the estimate is max(maxN, ceil(maxN·|nodes|/width)).
// The result is always at or above the verifier's hint floor.
func inferHints(p *core.Program, portWidth int, patch *Patch) {
	for ti := range p.Tasks {
		t := &p.Tasks[ti]
		if t.WorkHint > 0 {
			continue
		}
		maxN := 0
		for _, in := range t.Ins {
			if in.Kind != core.ArgNone && in.Kind != core.ArgConst && in.N > maxN {
				maxN = in.N
			}
		}
		for _, o := range t.Outs {
			if o.Kind != core.OutNone && o.N > maxN {
				maxN = o.N
			}
		}
		if maxN <= 0 {
			continue
		}
		nodes := 1
		if t.Type >= 0 && t.Type < len(p.Types) && p.Types[t.Type].DFG != nil {
			if n := len(p.Types[t.Type].DFG.Nodes); n > 0 {
				nodes = n
			}
		}
		est := (int64(maxN)*int64(nodes) + int64(portWidth) - 1) / int64(portWidth)
		if est < int64(maxN) {
			est = int64(maxN) // ops model can't go below the port floor
		}
		t.WorkHint = est
		patch.Hints = append(patch.Hints, HintChange{Task: ti, Key: t.Key, Hint: est})
	}
}
