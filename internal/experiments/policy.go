package experiments

import (
	"fmt"

	"taskstream/internal/baseline"
	"taskstream/internal/config"
	"taskstream/internal/core"
	"taskstream/internal/runplan"
	"taskstream/internal/stats"
	"taskstream/internal/workload"
)

// E16SkewAlphas is the spmv power-law-exponent sweep of E16's second
// table, in centi-units of the "spmv-a<N>" name grammar (alpha = N/100;
// smaller = heavier row-length tail). 150 is the suite default.
var E16SkewAlphas = []int{110, 130, 150, 200}

// e16Policies returns every dispatch policy in enum order — the
// columns of both E16 tables.
func e16Policies() []core.Policy {
	out := make([]core.Policy, 0, int(core.NumPolicies))
	for p := core.Policy(0); p < core.NumPolicies; p++ {
		out = append(out, p)
	}
	return out
}

// e16Specs declares one spec per (workload, policy) with the full delta
// mechanism set, each policy set explicitly in Options. The dynamic
// column's specs are identical to the suite pairs' delta specs, so
// they dedup through the run cache.
func e16Specs(nbs []workload.NamedBuilder, cfg config.Config) []runplan.Spec {
	mcfg, opts := baseline.Delta.Configure(cfg)
	policies := e16Policies()
	specs := make([]runplan.Spec, 0, len(nbs)*len(policies))
	for _, nb := range nbs {
		for _, p := range policies {
			o := opts
			o.Policy = p
			specs = append(specs, runplan.Spec{Workload: nb, Config: mcfg, Opts: o})
		}
	}
	return specs
}

// E16Policies is the dispatch-policy ablation the scheduler interface
// (DESIGN.md §17) exists to ask: every policy across the full suite on
// the identical delta machine, plus a skew sensitivity sweep. All three
// policies see the same mechanisms (work-aware LB flag, multicast,
// forwarding); only the dispatch decisions differ, so the cycle deltas
// isolate scheduling.
func E16Policies() (Result, error) {
	cfg := config.Default8()
	suite := workload.Suite()
	policies := e16Policies()
	np := len(policies)

	reps, err := runSpecs(e16Specs(suite, cfg))
	if err != nil {
		return Result{}, err
	}

	cyc := newTable("E16: dispatch-policy ablation (delta mechanisms, cycles)",
		"workload", "dynamic", "static", "pipeline")
	spd := newTable("E16: speedup over dynamic (work-aware least-loaded)",
		"workload", "static", "pipeline")
	metrics := map[string]float64{}
	spups := make([][]float64, np) // per policy, per workload
	bestNew := 0.0
	for i, nb := range suite {
		base := reps[i*np+int(core.PolicyDynamic)]
		cycRow := []string{nb.Name}
		spdRow := []string{nb.Name}
		for j, p := range policies {
			r := reps[i*np+j]
			cycRow = append(cycRow, stats.I(r.Cycles))
			sp := stats.Speedup(base.Cycles, r.Cycles)
			spups[j] = append(spups[j], sp)
			metrics[fmt.Sprintf("%s_%s", p, nb.Name)] = sp
			if p != core.PolicyDynamic {
				spdRow = append(spdRow, stats.Fx(sp))
			}
			if p == core.PolicyPipeline && sp > bestNew {
				bestNew = sp
			}
		}
		cyc.row(cycRow...)
		spd.row(spdRow...)
	}
	gRow := []string{"geomean"}
	for j, p := range policies {
		if p == core.PolicyDynamic {
			continue
		}
		g, err := geomean(fmt.Sprintf("E16 %s speedup", p), spups[j])
		if err != nil {
			return Result{}, err
		}
		gRow = append(gRow, stats.Fx(g))
		metrics["geomean_"+p.String()] = g
	}
	spd.row(gRow...)
	metrics["best_new_policy_speedup"] = bestNew

	skew, err := e16SkewTable(cfg, metrics)
	if err != nil {
		return Result{}, err
	}
	ts, err := buildAll(cyc, spd, skew)
	if err != nil {
		return Result{}, err
	}
	return Result{ID: "E16", Title: "Dispatch-policy ablation",
		Tables: ts, Metrics: metrics}, nil
}

// e16SkewTable builds the skew sensitivity sweep: spmv with the
// power-law exponent swept through the "spmv-a<N>" grammar, every
// policy per point. Heavier tails (smaller alpha) reward schedulers
// that react to observed load; the table shows where each policy's
// assumptions pay.
func e16SkewTable(cfg config.Config, metrics map[string]float64) (*table, error) {
	policies := e16Policies()
	np := len(policies)
	nbs := make([]workload.NamedBuilder, 0, len(E16SkewAlphas))
	for _, centi := range E16SkewAlphas {
		nb, err := workload.Resolve(fmt.Sprintf("spmv-a%d", centi))
		if err != nil {
			return nil, err
		}
		nbs = append(nbs, nb)
	}
	reps, err := runSpecs(e16Specs(nbs, cfg))
	if err != nil {
		return nil, err
	}
	tb := newTable("E16: skew sensitivity — spmv alpha sweep (cycles)",
		"alpha", "dynamic", "static", "pipeline")
	for i, centi := range E16SkewAlphas {
		row := []string{fmt.Sprintf("%.2f", float64(centi)/100)}
		base := reps[i*np+int(core.PolicyDynamic)]
		for j, p := range policies {
			r := reps[i*np+j]
			row = append(row, stats.I(r.Cycles))
			metrics[fmt.Sprintf("%s_a%d", p, centi)] = stats.Speedup(base.Cycles, r.Cycles)
		}
		tb.row(row...)
	}
	return tb, nil
}
