package runplan

import (
	"fmt"

	"taskstream/internal/config"
	"taskstream/internal/core"
	"taskstream/internal/sim"
	"taskstream/internal/workload"
)

// WireSpec is a Spec crossing a process boundary: the workload
// reduced to its canonical name (rebuilt on the far side via
// workload.Resolve — the spec-identity contract says the name
// determines the builder), the full machine config, and the
// normalized options. Observability sinks cannot cross the wire; a
// spec carrying one is not cacheable and must be executed locally
// instead of serialized.
type WireSpec struct {
	Workload string        `json:"workload"`
	Config   config.Config `json:"config"`
	Opts     WireOptions   `json:"opts"`
}

// WireOptions is the serializable subset of core.Options — exactly
// the fields Options.CacheKey encodes, so a wire round-trip preserves
// the spec's content address. The policy crosses the wire by its
// canonical name rather than its enum value, so the protocol stays
// readable and unknown policies fail with a client-attributable error;
// an empty name means dynamic.
type WireOptions struct {
	Policy    string `json:"policy,omitempty"`
	Hints     uint8  `json:"hints"`
	MaxCycles int64  `json:"max_cycles,omitempty"`
	Vet       bool   `json:"vet,omitempty"`
}

// Wire converts the spec to its serialized form. Uncacheable specs
// (live obs sink) are rejected: the side channel cannot cross a
// process boundary, so sending one would silently change its meaning.
func (s Spec) Wire() (WireSpec, error) {
	if !s.Cacheable() {
		return WireSpec{}, fmt.Errorf("runplan: spec %s is not cacheable (attached obs side channel) and cannot cross the wire", s.Workload.Name)
	}
	n := s.Opts.Normalized()
	return WireSpec{
		Workload: s.Workload.Name,
		Config:   s.Config,
		Opts: WireOptions{
			Policy:    n.Policy.String(),
			Hints:     uint8(n.Hints),
			MaxCycles: int64(n.MaxCycles),
			Vet:       n.Vet,
		},
	}, nil
}

// Spec rebuilds the runnable spec: the workload name resolves to its
// builder, the policy name parses, and the config and options are
// validated before anything executes, so a malformed wire spec fails
// fast with a client-attributable error. An empty policy name means
// PolicyDynamic.
func (w WireSpec) Spec() (Spec, error) {
	nb, err := workload.Resolve(w.Workload)
	if err != nil {
		return Spec{}, err
	}
	policy := core.PolicyDynamic
	if w.Opts.Policy != "" {
		if policy, err = core.ParsePolicy(w.Opts.Policy); err != nil {
			return Spec{}, err
		}
	}
	if err := w.Config.Validate(); err != nil {
		return Spec{}, err
	}
	opts := core.Options{
		Policy:    policy,
		Hints:     core.HintMode(w.Opts.Hints),
		MaxCycles: sim.Cycle(w.Opts.MaxCycles),
		Vet:       w.Opts.Vet,
	}
	if err := opts.Validate(); err != nil {
		return Spec{}, err
	}
	return Spec{Workload: nb, Config: w.Config, Opts: opts}, nil
}
