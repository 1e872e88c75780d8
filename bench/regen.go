package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"taskstream/internal/analysis"
	"taskstream/internal/baseline"
	"taskstream/internal/config"
	"taskstream/internal/core"
	"taskstream/internal/experiments"
	"taskstream/internal/runplan"
	"taskstream/internal/workload"
)

// regenIDs are the experiments suite-regen regenerates. E16 and E17
// are left out: both are slated to change or go.
var regenIDs = []string{"E3", "E4", "E8"}

// regenWorkers is the harness's simulation budget, one per CPU of the
// reference host.
const regenWorkers = 2

// resolution is one spec the harness resolved through the shared
// runner.
type resolution struct {
	key    string
	src    runplan.Source
	lat    time.Duration
	cycles int64
}

// runSuiteRegen regenerates experiment tables the way delta-bench
// does, with runplan.Shared reset before each repetition. Its inputs
// are the fixed suite, so the seed is recorded but changes nothing.
func runSuiteRegen(c *runCtx) (*result, error) {
	r := newResult("suite-regen", c)
	ids := regenIDs
	if c.smoke {
		ids = ids[:1]
	}
	var exps []experiments.Named
	for _, id := range ids {
		for _, e := range experiments.Registry() {
			if e.ID == id {
				exps = append(exps, e)
			}
		}
	}
	if len(exps) != len(ids) {
		return nil, fmt.Errorf("experiments %v not all in the registry", ids)
	}

	// Set-up loads the oracle and generates and vets the suite inputs.
	orc, setup, err := setupSeconds(setupReps, func() (*oracle, error) {
		orc, err := loadOracle(c.root)
		if err != nil {
			return nil, err
		}
		for _, nb := range workload.Suite() {
			if err := analysis.Vet(nb.Build().Prog, config.Default8().Fabric.NumPorts); err != nil {
				return nil, fmt.Errorf("%s: %w", nb.Name, err)
			}
		}
		return orc, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup)

	// The suite's static/delta pairs at the default config, to report
	// the simulated outcome from whatever the experiments resolve.
	pairs := map[string]runRep{}
	for _, nb := range workload.Suite() {
		for _, v := range pair {
			s := runplan.ForVariant(nb, v, config.Default8())
			pairs[s.Key()] = runRep{name: nb.Name, delta: v == baseline.Delta, channels: s.Config.DRAM.Channels}
		}
	}
	got := map[string]runRep{}
	var (
		mu  sync.Mutex
		res []resolution
	)
	experiments.SetWorkers(regenWorkers)
	experiments.SetResolver(func(s runplan.Spec) (core.Report, error) {
		t0 := time.Now()
		rep, src, err := runplan.Shared.RunInfo(s)
		d := time.Since(t0)
		mu.Lock()
		defer mu.Unlock()
		if err == nil {
			res = append(res, resolution{s.Key(), src, d, rep.Cycles})
			if p, ok := pairs[s.Key()]; ok {
				p.rep = rep
				got[s.Key()] = p
			}
		} else {
			r.Attempted++
			r.opFailed(err)
		}
		return rep, err
	})
	defer func() {
		experiments.SetResolver(nil)
		experiments.SetWorkers(1)
	}()

	l := newLayers()
	expSeconds := map[string][]float64{}
	var counters runplan.Counters
	pt, err := runPasses(c, l, func(traced bool) (int, error) {
		runplan.Shared.Reset()
		mu.Lock()
		first := len(res)
		mu.Unlock()
		var parent int64
		if traced {
			parent = l.tr.id()
		}
		start := time.Now()
		for _, e := range exps {
			t0 := time.Now()
			out, err := e.Fn()
			t1 := time.Now()
			expSeconds[e.ID] = append(expSeconds[e.ID], t1.Sub(t0).Seconds())
			if traced {
				l.tr.record(l.tr.id(), parent, "experiments."+e.ID, t0, t1)
			}
			switch {
			case err != nil:
				r.broken(fmt.Errorf("%s: %w", e.ID, err))
			case !orc.hasBlock(out.Render()):
				r.broken(fmt.Errorf("%s: rendered tables are not a verbatim block of bench_results.txt", e.ID))
			}
		}
		if traced {
			l.tr.record(parent, 0, "rep", start, time.Now())
		}
		counters = runplan.Shared.Counters()
		mu.Lock()
		defer mu.Unlock()
		return len(res) - first, nil
	})
	if err != nil {
		return nil, err
	}

	var (
		ops               opStats
		missCycles        int64
		missSeconds, wall float64
		reps              []runRep
	)
	for _, q := range res {
		// A miss's class is its spec; answers from the cache form one
		// class per tier, since a microsecond lookup looks the same
		// whatever spec it answers.
		class := q.src.String()
		if q.src == runplan.SourceExecuted {
			class += " " + q.key
		}
		ops.add(class, q.lat)
		if q.src == runplan.SourceExecuted {
			missCycles += q.cycles
			missSeconds += q.lat.Seconds()
		}
	}
	r.Attempted += len(res)
	for _, d := range pt.all {
		wall += d
	}
	pt.emitRate(r)
	// In key order, not map order: the simulated metrics sum floats, and
	// must read bit for bit the same in every run.
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		reps = append(reps, got[k])
	}
	ops.emit(r)
	if missSeconds > 0 {
		r.set("sim_cycles_per_s", float64(missCycles)/missSeconds)
	}
	emitOutcome(r, reps)
	r.notef("%d repetitions of %v at %d workers; per repetition %s", len(pt.all), ids, regenWorkers, counters)

	if c.trace {
		emitRunplan(r, counters.Misses, counters.Hits, counters.Dedups, counters.DiskHits)
		for _, e := range exps {
			r.set("experiments."+e.ID+"_s", median(expSeconds[e.ID]))
		}
		r.set("parallel.busy_frac", missSeconds/(wall*regenWorkers))
		emitSimCounts(r, reps)
		l.emit(r)
		pt.emitOverhead(r)
	}
	return r, nil
}
