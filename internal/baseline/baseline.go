// Package baseline defines the execution-model variants Delta is
// compared against, most importantly the paper's comparator: an
// equivalent static-parallel design — the same lanes, fabric, stream
// engines, NoC, and DRAM, driven by compile-time work partitioning with
// phase barriers, memory-mediated dependences, and unicast fetches.
//
// The intermediate variants stage the three TaskStream mechanisms one
// at a time for the ablation experiment.
package baseline

import (
	"fmt"
	"strings"

	"taskstream/internal/config"
	"taskstream/internal/core"
	"taskstream/internal/mem"

	// Register the delta-vet verifier so every Configure'd run gets
	// pre-flight checking via core.Options.Vet.
	_ "taskstream/internal/analysis"
)

// Variant names one execution model in the Static→Delta spectrum.
type Variant int

const (
	// Static is the paper's comparator: compile-time block
	// partitioning, barriers, memory-mediated dependences, unicast.
	Static Variant = iota
	// DynamicRR adds run-time dispatch (round-robin, work-oblivious)
	// but none of the TaskStream mechanisms.
	DynamicRR
	// LB adds work-aware load balancing.
	LB
	// LBMC adds multicast read sharing on top of LB.
	LBMC
	// Delta is the full TaskStream model: LB + multicast + pipelined
	// dependence forwarding.
	Delta
	// NumVariants counts the variants.
	NumVariants
)

// String returns the variant's display name.
func (v Variant) String() string {
	switch v {
	case Static:
		return "static"
	case DynamicRR:
		return "dyn-rr"
	case LB:
		return "+lb"
	case LBMC:
		return "+lb+mc"
	case Delta:
		return "delta"
	default:
		return "unknown"
	}
}

// ParseVariant resolves a variant display name, the inverse of
// String. An unknown name is an error listing the valid set.
func ParseVariant(name string) (Variant, error) {
	var names []string
	for v := Static; v < NumVariants; v++ {
		if v.String() == name {
			return v, nil
		}
		names = append(names, v.String())
	}
	return 0, fmt.Errorf("baseline: unknown variant %q (valid: %s)", name, strings.Join(names, ", "))
}

// Configure returns the machine configuration and options realizing the
// variant on top of the given datapath description. Every variant vets
// the program statically before wiring the machine (Options.Vet). The
// run-time-dispatch variants use PolicyDynamic and the Static variant
// PolicyStatic; callers that want another policy set Options.Policy
// on the result.
func (v Variant) Configure(cfg config.Config) (config.Config, core.Options) {
	switch v {
	case Static:
		return cfg.StaticModel(), core.Options{Policy: core.PolicyStatic, Vet: true}
	case DynamicRR:
		c := cfg.StaticModel()
		return c, core.Options{Policy: core.PolicyDynamic, Vet: true}
	case LB:
		c := cfg.StaticModel()
		c.Task.EnableWorkAwareLB = true
		return c, core.Options{Policy: core.PolicyDynamic, Vet: true}
	case LBMC:
		c := cfg.StaticModel()
		c.Task.EnableWorkAwareLB = true
		c.Task.EnableMulticast = true
		return c, core.Options{Policy: core.PolicyDynamic, Vet: true}
	default:
		c := cfg
		c.Task.EnableWorkAwareLB = true
		c.Task.EnableMulticast = true
		c.Task.EnableForwarding = true
		return c, core.Options{Policy: core.PolicyDynamic, Vet: true}
	}
}

// Run executes prog under the variant and returns the report. The
// storage carries the workload's pre-initialized data and receives its
// results.
func Run(v Variant, cfg config.Config, prog *core.Program, st *mem.Storage) (core.Report, error) {
	mcfg, opts := v.Configure(cfg)
	return RunCfg(mcfg, opts, prog, st)
}

// RunCfg executes prog under an explicit configuration and options —
// the escape hatch sensitivity sweeps use to vary machine parameters
// beyond the named variants.
func RunCfg(cfg config.Config, opts core.Options, prog *core.Program, st *mem.Storage) (core.Report, error) {
	m, err := core.NewMachine(cfg, prog, st, opts)
	if err != nil {
		return core.Report{}, err
	}
	return m.Run()
}
