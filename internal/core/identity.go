package core

import "fmt"

// This file gives runs an identity and results a copy-out path, the
// two properties the memoizing run-plan layer (internal/runplan)
// needs from core: equal-keyed runs are interchangeable, and cached
// reports can be handed to many callers without aliasing.

// Cacheable reports whether a run under these options is a pure
// function of (config, program, options). A live trace recorder or
// observability sink is an observable side channel — two runs that
// share one are not interchangeable — so traced runs must never be
// memoized.
func (o Options) Cacheable() bool { return o.Trace == nil && o.Obs == nil }

// Normalized returns options reduced to the fields that determine the
// run's observable result: the trace recorder and observability sink
// are dropped (neither alters simulation behavior), and non-positive
// MaxCycles collapses to zero, since every value <= 0 means "engine
// default".
func (o Options) Normalized() Options {
	o.Trace = nil
	o.Obs = nil
	if o.MaxCycles <= 0 {
		o.MaxCycles = 0
	}
	return o
}

// CacheKey returns a stable canonical encoding of the normalized
// options, field by field in a fixed order — the options half of a run
// spec's content address. DisableFastForward participates even though
// fast-forward is byte-identical by contract (DESIGN.md §11): keying
// on it keeps the cache trivially sound if that contract ever breaks,
// at the cost of never deduping across the two modes (no experiment
// mixes them).
func (o Options) CacheKey() string {
	n := o.Normalized()
	return fmt.Sprintf("Policy=%d;Hints=%d;MaxCycles=%d;Vet=%t;DisableFastForward=%t;",
		n.Policy, n.Hints, n.MaxCycles, n.Vet, n.DisableFastForward)
}

// Clone returns a deep copy of the report: mutating the copy's
// LaneBusy slice or Stats set never touches the original. Memoized
// runs hand out clones so no caller can corrupt the cached result.
func (r Report) Clone() Report {
	return Report{
		Cycles:   r.Cycles,
		LaneBusy: append([]int64(nil), r.LaneBusy...),
		Stats:    r.Stats.Clone(),
	}
}
