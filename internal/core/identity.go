package core

import (
	"fmt"
	"strings"
)

// This file gives runs an identity and results a copy-out path, the
// two properties the memoizing run-plan layer (internal/runplan)
// needs from core: equal-keyed runs are interchangeable, and cached
// reports can be handed to many callers without aliasing.

// Validate reports the first option value no machine runs under: an
// unknown policy or hint mode.
func (o Options) Validate() error {
	if o.Policy >= NumPolicies {
		return fmt.Errorf("core: unknown policy %d (valid: %s)",
			uint8(o.Policy), strings.Join(PolicyNames(), ", "))
	}
	if o.Hints > HintNoisy {
		return fmt.Errorf("core: unknown hint mode %d (valid: 0 exact, 1 none, 2 noisy)", uint8(o.Hints))
	}
	return nil
}

// Cacheable reports whether a run under these options is a pure
// function of (config, program, options). A live observability sink is
// an observable side channel — two runs that share one are not
// interchangeable — so observed runs must never be memoized.
func (o Options) Cacheable() bool { return o.Obs == nil }

// Normalized returns options reduced to the fields that determine the
// run's observable result: the observability sink is dropped (it never
// alters simulation behavior), and non-positive MaxCycles collapses to
// zero, since every value <= 0 means "engine default".
func (o Options) Normalized() Options {
	o.Obs = nil
	if o.MaxCycles <= 0 {
		o.MaxCycles = 0
	}
	return o
}

// CacheKey returns a stable canonical encoding of the normalized
// options, field by field in a fixed order — the options half of a run
// spec's content address. The policy is keyed by name, so renumbering
// the enum never aliases a stored result.
func (o Options) CacheKey() string {
	n := o.Normalized()
	return fmt.Sprintf("Policy=%s;Hints=%d;MaxCycles=%d;Vet=%t;",
		n.Policy, n.Hints, n.MaxCycles, n.Vet)
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
