package main

import (
	"fmt"
	"time"

	"taskstream/internal/analysis"
	"taskstream/internal/baseline"
	"taskstream/internal/config"
	"taskstream/internal/core"
	"taskstream/internal/obs"
	"taskstream/internal/workload"
)

// suiteBuilder returns the constructor of one suite workload built
// from its default parameters with seed added to their Seed, so seed 0
// reproduces the suite's own inputs.
func suiteBuilder(name string, seed uint64) (func() *workload.Workload, error) {
	switch name {
	case "spmv":
		p := workload.DefaultSpMV()
		p.Seed += seed
		return func() *workload.Workload { return workload.SpMV(p) }, nil
	case "bfs":
		p := workload.DefaultBFS()
		p.Seed += seed
		return func() *workload.Workload { return workload.BFS(p) }, nil
	case "join":
		p := workload.DefaultJoin()
		p.Seed += seed
		return func() *workload.Workload { return workload.Join(p) }, nil
	case "tri":
		p := workload.DefaultTri()
		p.Seed += seed
		return func() *workload.Workload { return workload.Tri(p) }, nil
	case "sort":
		p := workload.DefaultSort()
		p.Seed += seed
		return func() *workload.Workload { return workload.MergeSort(p) }, nil
	case "kmeans":
		p := workload.DefaultKMeans()
		p.Seed += seed
		return func() *workload.Workload { return workload.KMeans(p) }, nil
	case "gemm":
		p := workload.DefaultGEMM()
		p.Seed += seed
		return func() *workload.Workload { return workload.GEMM(p) }, nil
	case "stencil":
		p := workload.DefaultStencil()
		p.Seed += seed
		return func() *workload.Workload { return workload.Stencil(p) }, nil
	case "hist":
		p := workload.DefaultHist()
		p.Seed += seed
		return func() *workload.Workload { return workload.Hist(p) }, nil
	}
	return nil, fmt.Errorf("unknown suite workload %q", name)
}

// simSpec is one simulation a sim workload times.
type simSpec struct {
	name    string
	variant baseline.Variant
	build   func() *workload.Workload
	cfg     config.Config
	opts    core.Options
}

func (s simSpec) String() string { return s.name + "/" + s.variant.String() }

// simSpecs crosses suite workloads with variants on the default
// 8-lane machine. Vetting is its own timed step, so the machine is
// wired with Vet off.
func simSpecs(names []string, variants []baseline.Variant, seed uint64) ([]simSpec, error) {
	var specs []simSpec
	for _, n := range names {
		build, err := suiteBuilder(n, seed)
		if err != nil {
			return nil, err
		}
		for _, v := range variants {
			cfg, opts := v.Configure(config.Default8())
			opts.Vet = false
			specs = append(specs, simSpec{n, v, build, cfg, opts})
		}
	}
	return specs, nil
}

// The steps of one simulation op, in order. The obs steps run only
// when the op carries an observability sink.
const (
	phBuild = iota
	phVet
	phWire
	phRun
	phVerify
	phFold
	phExport
	numPhases
)

var phaseMetric = [numPhases]string{
	"workload.build_ms", "analysis.vet_ms", "core.wire_ms", "core.run_ms",
	"workload.verify_ms", "obs.fold_ms", "obs.export_ms",
}

// obsLimit is the event buffer delta-sim gives a traced run.
const obsLimit = 250000

// simOp is what one op measured.
type simOp struct {
	rep   core.Report
	phase [numPhases]time.Duration
	total time.Duration
	// With an observability sink:
	events, dropped, exportBytes int64
	causes                       [obs.NumCauses]int64
	laneCycles                   int64
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return len(b), nil
}

// runSimOp builds the workload, vets it, wires the machine, runs it and
// verifies the results; with withObs it also attaches a sink, folds its
// metrics and exports its Chrome trace. With a tracer each step is a
// span under one op span.
func runSimOp(s simSpec, withObs bool, tr *tracer) (simOp, error) {
	var (
		op     simOp
		parent int64
		w      *workload.Workload
		m      *core.Machine
		sink   *obs.Sink
	)
	if tr != nil {
		parent = tr.id()
	}
	opts := s.opts
	if withObs {
		sink = obs.New(obsLimit)
		opts.Obs = sink
	}
	steps := [numPhases]func() error{
		phBuild: func() error { w = s.build(); return nil },
		phVet:   func() error { return analysis.Vet(w.Prog, s.cfg.Fabric.NumPorts) },
		phWire: func() (err error) {
			m, err = core.NewMachine(s.cfg, w.Prog, w.Storage, opts)
			return err
		},
		phRun:    func() (err error) { op.rep, err = m.Run(); return err },
		phVerify: func() error { return w.Verify() },
		phFold: func() error {
			met := sink.Metrics()
			met.Stats()
			for c := obs.Cause(0); c < obs.NumCauses; c++ {
				op.causes[c] = met.CauseTotal(c)
			}
			return nil
		},
		phExport: func() error {
			var cw countingWriter
			err := obs.WriteChromeTrace(&cw, sink)
			op.exportBytes = cw.n
			return err
		},
	}
	last := phVerify
	if withObs {
		last = phExport
	}
	start := time.Now()
	for ph := 0; ph <= last; ph++ {
		t0 := time.Now()
		err := steps[ph]()
		t1 := time.Now()
		op.phase[ph] = t1.Sub(t0)
		if tr != nil {
			tr.record(tr.id(), parent, phaseMetric[ph], t0, t1)
		}
		if err != nil {
			return op, fmt.Errorf("%s: %s: %w", s, phaseMetric[ph], err)
		}
	}
	end := time.Now()
	op.total = end.Sub(start)
	if tr != nil {
		tr.record(parent, 0, "op "+s.String(), start, end)
	}
	if sink != nil {
		op.events, op.dropped = int64(sink.Len()), sink.Dropped()
		op.laneCycles = int64(sink.Lanes) * op.rep.Cycles
	}
	return op, nil
}

// simWorkload is one of the simulation workloads: the ops it times,
// whether they carry an observability sink, and extra untimed runs
// that only complete its static/delta pairs.
type simWorkload struct {
	name  string
	timed []simSpec
	obs   bool
	extra []simSpec
}

var (
	nocHeavy  = []string{"spmv", "sort", "kmeans", "join", "stencil", "hist"}
	taskHeavy = []string{"bfs", "tri", "gemm"}
	obsSet    = []string{"spmv", "sort", "bfs", "gemm"}
	pair      = []baseline.Variant{baseline.Static, baseline.Delta}
	deltaOnly = []baseline.Variant{baseline.Delta}
	smokeSet  = []string{"hist", "gemm"}
)

// runSimNoC: NoC and DRAM do most of the host work, the coordinator
// little.
func runSimNoC(c *runCtx) (*result, error) {
	return runSimSet(c, "sim-noc", nocHeavy, false)
}

// runSimTask: coordinator dispatch, allocation and lane work dominate;
// the NoC does little. The contrast case for any NoC change.
func runSimTask(c *runCtx) (*result, error) {
	return runSimSet(c, "sim-task", taskHeavy, false)
}

// runObsStalls: delta runs with an observability sink, its metric fold
// and its trace export — the one path through internal/obs.
func runObsStalls(c *runCtx) (*result, error) {
	return runSimSet(c, "obs-stalls", obsSet, true)
}

func runSimSet(c *runCtx, name string, names []string, withObs bool) (*result, error) {
	if c.smoke {
		names = smokeSet
	}
	sw := simWorkload{name: name, obs: withObs}
	var err error
	if withObs {
		if sw.timed, err = simSpecs(names, deltaOnly, c.seed); err == nil {
			sw.extra, err = simSpecs(names, []baseline.Variant{baseline.Static}, c.seed)
		}
	} else {
		sw.timed, err = simSpecs(names, pair, c.seed)
	}
	if err != nil {
		return nil, err
	}
	return sw.run(c)
}

func (sw simWorkload) run(c *runCtx) (*result, error) {
	r := newResult(sw.name, c)
	orc, err := loadOracle(c.root)
	if err != nil {
		return nil, err
	}

	// Set-up generates and vets every input.
	_, setup, err := setupSeconds(setupReps, func() (struct{}, error) {
		for _, s := range sw.timed {
			if err := analysis.Vet(s.build().Prog, s.cfg.Fabric.NumPorts); err != nil {
				return struct{}{}, fmt.Errorf("%s: %w", s, err)
			}
		}
		return struct{}{}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup)

	// An untimed warm-up runs every spec once without a sink: the
	// reference cycles each timed op must reproduce, checked at seed 0
	// against bench_results.txt.
	refs := map[string]runRep{}
	var reps []runRep
	for _, s := range append(append([]simSpec(nil), sw.timed...), sw.extra...) {
		r.Attempted++
		op, err := runSimOp(s, false, nil)
		if err == nil && c.seed == 0 {
			err = orc.checkE3(s.name, s.variant == baseline.Delta, op.rep.Cycles)
		}
		if err != nil {
			r.opFailed(err)
			continue
		}
		rr := runRep{s.name, s.variant == baseline.Delta, op.rep, s.cfg.DRAM.Channels}
		refs[s.String()] = rr
		reps = append(reps, rr)
	}

	l := newLayers()
	var (
		ops       opStats
		passCPS   []float64
		tracedOps []simOp
	)
	pt, err := runPasses(c, l, func(traced bool) (int, error) {
		var tr *tracer
		if traced {
			tr = l.tr
		}
		var cycles int64
		done := 0
		t0 := time.Now()
		for _, s := range sw.timed {
			r.Attempted++
			op, err := runSimOp(s, sw.obs, tr)
			if want, ok := refs[s.String()]; err == nil && (!ok || op.rep.Cycles != want.rep.Cycles) {
				err = fmt.Errorf("%s: %d cycles, the untraced reference run took %d", s, op.rep.Cycles, want.rep.Cycles)
			}
			if err != nil {
				r.opFailed(err)
				continue
			}
			done++
			cycles += op.rep.Cycles
			ops.add(s.String(), op.total)
			if traced {
				tracedOps = append(tracedOps, op)
			}
		}
		passCPS = append(passCPS, float64(cycles)/time.Since(t0).Seconds())
		return done, nil
	})
	if err != nil {
		return nil, err
	}

	r.set("sim_cycles_per_s", median(passCPS))
	pt.emitRate(r)
	ops.emit(r)
	r.notef("%d timed passes, %d ops", len(pt.all), ops.n())
	emitOutcome(r, reps)

	if c.trace {
		emitSimOps(r, tracedOps)
		emitSimCounts(r, reps)
		l.emit(r)
		pt.emitOverhead(r)
	}
	return r, nil
}

// emitSimOps reports the per-step means of the traced ops.
func emitSimOps(r *result, ops []simOp) {
	if len(ops) == 0 {
		return
	}
	n := float64(len(ops))
	var (
		phase                         [numPhases]time.Duration
		cycles, events, dropped, expB int64
		laneCycles                    int64
		causes                        [obs.NumCauses]int64
	)
	for _, op := range ops {
		for i, d := range op.phase {
			phase[i] += d
		}
		cycles += op.rep.Cycles
		events += op.events
		dropped += op.dropped
		expB += op.exportBytes
		laneCycles += op.laneCycles
		for i, v := range op.causes {
			causes[i] += v
		}
	}
	for i, d := range phase {
		r.set(phaseMetric[i], ms(d)/n)
	}
	r.set("core.run_ns_per_cycle", float64(phase[phRun].Nanoseconds())/float64(cycles))
	r.set("obs.events_per_op", float64(events)/n)
	r.set("obs.dropped_per_op", float64(dropped)/n)
	r.set("obs.export_mb", float64(expB)/1e6/n)
	if laneCycles > 0 {
		for c := obs.Cause(0); c < obs.NumCauses; c++ {
			r.set("sim.obs."+c.String()+"_frac", float64(causes[c])/float64(laneCycles))
		}
	}
}

// runRep is one simulation's report, labelled for pairing.
type runRep struct {
	name     string
	delta    bool
	rep      core.Report
	channels int
}

// emitOutcome reports the simulated result: the geomean static/delta
// speedup over the workloads run both ways, and the geomean delta
// cycles.
func emitOutcome(r *result, reps []runRep) {
	static := map[string]int64{}
	for _, rr := range reps {
		if !rr.delta {
			static[rr.name] = rr.rep.Cycles
		}
	}
	var speedups, deltas []float64
	for _, rr := range reps {
		if !rr.delta {
			continue
		}
		deltas = append(deltas, float64(rr.rep.Cycles))
		if s, ok := static[rr.name]; ok {
			speedups = append(speedups, float64(s)/float64(rr.rep.Cycles))
		}
	}
	r.set("speedup_geomean", geomean(speedups))
	r.set("delta_cycles_geomean", geomean(deltas))
}

// simCounters maps machine counters to their per-layer metric names.
var simCounters = [][2]string{
	{"tasks_dispatched", "sim.coord.tasks_dispatched"},
	{"fwd_pairs", "sim.coord.fwd_pairs"},
	{"fire_cycles", "sim.lane.fire_cycles"},
	{"config_stalls", "sim.lane.config_stalls"},
	{"stall_in_dram", "sim.stream.stall_in_dram"},
	{"stall_in_spad", "sim.stream.stall_in_spad"},
	{"stall_in_fwd", "sim.stream.stall_in_fwd"},
	{"stall_in_mcast", "sim.stream.stall_in_mcast"},
	{"stall_out", "sim.stream.stall_out"},
	{"mcast_lines_saved", "sim.mcast.lines_saved"},
	{"noc_msgs", "sim.noc.msgs"},
	{"noc_flit_cycles", "sim.noc.flit_cycles"},
	{"noc_replicas", "sim.noc.replicas"},
	{"dram_lines_read", "sim.dram.lines_read"},
	{"dram_lines_written", "sim.dram.lines_written"},
	{"spad_accesses", "sim.mem.spad_accesses"},
}

// emitSimCounts reports the simulated counters, summed over the delta
// runs, plus the static/delta DRAM read ratio over the pairs. They are
// deterministic: a host-only change must leave every one identical.
func emitSimCounts(r *result, reps []runRep) {
	var (
		sums                          = map[string]int64{}
		cycles, static, busy, chanCyc int64
		imbalance                     []float64
		staticRead                    = map[string]int64{}
		deltaRead                     = map[string]int64{}
	)
	for _, rr := range reps {
		st := rr.rep.Stats
		if !rr.delta {
			static += rr.rep.Cycles
			staticRead[rr.name] = st.Get("dram_lines_read")
			continue
		}
		deltaRead[rr.name] = st.Get("dram_lines_read")
		cycles += rr.rep.Cycles
		for _, c := range simCounters {
			sums[c[1]] += st.Get(c[0])
		}
		busy += st.Get("dram_busy_cycles")
		chanCyc += rr.rep.Cycles * int64(rr.channels)
		imbalance = append(imbalance, laneImbalance(rr.rep.LaneBusy))
	}
	for _, c := range simCounters {
		r.set(c[1], float64(sums[c[1]]))
	}
	r.set("sim.cycles.delta", float64(cycles))
	r.set("sim.cycles.static", float64(static))
	if chanCyc > 0 {
		r.set("sim.dram.busy_frac", float64(busy)/float64(chanCyc))
	}
	if len(imbalance) > 0 {
		var s float64
		for _, x := range imbalance {
			s += x
		}
		r.set("sim.lane.imbalance", s/float64(len(imbalance)))
	}
	var sr, dr int64
	for n, v := range staticRead {
		if d, ok := deltaRead[n]; ok {
			sr += v
			dr += d
		}
	}
	if dr > 0 {
		r.set("sim.dram.read_static_over_delta", float64(sr)/float64(dr))
	}
}

// laneImbalance is max/mean lane busy cycles (1 is perfect balance).
func laneImbalance(busy []int64) float64 {
	var sum, top int64
	for _, b := range busy {
		sum += b
		top = max(top, b)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) * float64(len(busy)) / float64(sum)
}
