package infer

import (
	"fmt"

	"taskstream/internal/core"
)

// PR is a precision/recall counter for one annotation kind.
type PR struct {
	TP int `json:"tp"`
	FP int `json:"fp"`
	FN int `json:"fn"`
}

// Precision is TP/(TP+FP); 1.0 when nothing was predicted.
func (c PR) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1.0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP/(TP+FN); 1.0 when there was nothing to find.
func (c PR) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1.0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

func (c *PR) add(o PR) { c.TP += o.TP; c.FP += o.FP; c.FN += o.FN }

// Accuracy scores inferred annotations against a hand-annotated
// reference program.
type Accuracy struct {
	// Forwards scores producer→consumer pairs by endpoint (task, port)
	// identity; tag values are scheduling-neutral and ignored.
	Forwards PR `json:"forwards"`
	// Shared scores marked (task, port) endpoints.
	Shared PR `json:"shared"`
	// HintsExact counts tasks whose inferred WorkHint equals the hand
	// hint; HintsTotal is the task count.
	HintsExact int `json:"hints_exact"`
	HintsTotal int `json:"hints_total"`
}

// Exact reports whether every annotation was recovered exactly — the
// condition under which the simulated schedule is identical to the
// hand-annotated run.
func (a Accuracy) Exact() bool {
	return a.Forwards.FP == 0 && a.Forwards.FN == 0 &&
		a.Shared.FP == 0 && a.Shared.FN == 0 &&
		a.HintsExact == a.HintsTotal
}

// Add accumulates o into a.
func (a *Accuracy) Add(o Accuracy) {
	a.Forwards.add(o.Forwards)
	a.Shared.add(o.Shared)
	a.HintsExact += o.HintsExact
	a.HintsTotal += o.HintsTotal
}

// fwdPair identifies one forward stream by its endpoints.
type fwdPair struct {
	prodTask, prodPort int
	consTask, consPort int
}

// forwardPairs extracts the producer→consumer pairs a program's tags
// declare. Tag values don't matter — only which ports are wired.
func forwardPairs(p *core.Program) map[fwdPair]bool {
	prods := make(map[uint64]endpoint)
	for ti := range p.Tasks {
		for pi, o := range p.Tasks[ti].Outs {
			if o.Kind == core.OutForward && o.Tag != 0 {
				if _, dup := prods[o.Tag]; !dup {
					prods[o.Tag] = endpoint{ti, pi}
				}
			}
		}
	}
	pairs := make(map[fwdPair]bool)
	for ti := range p.Tasks {
		for pi, in := range p.Tasks[ti].Ins {
			if in.Kind != core.ArgForwardIn || in.Tag == 0 {
				continue
			}
			pr, ok := prods[in.Tag]
			if !ok {
				continue
			}
			pairs[fwdPair{pr.task, pr.port, ti, pi}] = true
		}
	}
	return pairs
}

// sharedEndpoints extracts the (task, port) set carrying Shared marks.
func sharedEndpoints(p *core.Program) map[endpoint]bool {
	eps := make(map[endpoint]bool)
	for ti := range p.Tasks {
		for pi, in := range p.Tasks[ti].Ins {
			if in.Shared {
				eps[endpoint{ti, pi}] = true
			}
		}
	}
	return eps
}

// Compare scores inferred against the hand-annotated reference. The
// two programs must describe the same task list.
func Compare(hand, inferred *core.Program) (Accuracy, error) {
	var a Accuracy
	if len(hand.Tasks) != len(inferred.Tasks) {
		return a, fmt.Errorf("infer: compare %q: task counts differ (%d hand vs %d inferred)",
			hand.Name, len(hand.Tasks), len(inferred.Tasks))
	}
	handFwd, infFwd := forwardPairs(hand), forwardPairs(inferred)
	for pr := range infFwd {
		if handFwd[pr] {
			a.Forwards.TP++
		} else {
			a.Forwards.FP++
		}
	}
	for pr := range handFwd {
		if !infFwd[pr] {
			a.Forwards.FN++
		}
	}
	handSh, infSh := sharedEndpoints(hand), sharedEndpoints(inferred)
	for ep := range infSh {
		if handSh[ep] {
			a.Shared.TP++
		} else {
			a.Shared.FP++
		}
	}
	for ep := range handSh {
		if !infSh[ep] {
			a.Shared.FN++
		}
	}
	a.HintsTotal = len(hand.Tasks)
	for ti := range hand.Tasks {
		if hand.Tasks[ti].WorkHint == inferred.Tasks[ti].WorkHint {
			a.HintsExact++
		}
	}
	return a, nil
}
