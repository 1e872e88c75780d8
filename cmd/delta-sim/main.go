// delta-sim runs one suite workload on one execution-model variant,
// prints the run's statistics and, on request, views of the same run:
// the task types and their encoded descriptors, where every lane's
// cycles went, a per-lane occupancy timeline and a Perfetto trace.
//
// Usage:
//
//	delta-sim -workload spmv -variant delta -lanes 8 [-hints exact]
//	delta-sim -workload join -tasks 3     # task types, fabric mappings, TSK1 descriptors
//	delta-sim -workload join -stalls      # per-lane stall attribution and obs counters
//	delta-sim -workload join -timeline    # per-lane occupancy timeline
//	delta-sim -workload spmv -trace-out spmv.json   # Perfetto trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"taskstream/internal/baseline"
	"taskstream/internal/config"
	"taskstream/internal/core"
	"taskstream/internal/fabric"
	"taskstream/internal/isa"
	"taskstream/internal/obs"
	"taskstream/internal/sim"
	"taskstream/internal/stats"
	"taskstream/internal/workload"
)

// options holds the parsed flag values; validate rejects bad ones
// before any simulation starts.
type options struct {
	workload   string
	variant    string
	lanes      int
	hints      string
	policy     string
	vet        bool
	verbose    bool
	tasks      int
	stalls     bool
	timeline   bool
	traceOut   string
	traceLimit int
	hostprof   bool
}

// validatePolicy checks the -policy name separately from the
// structural flags: a bad policy name is a usage error and exits 2.
func (o options) validatePolicy() error {
	if o.policy == "" {
		return nil
	}
	_, err := core.ParsePolicy(o.policy)
	return err
}

// validate checks every flag value up front, returning a usage-style
// error naming the offending flag so main can exit 1 cleanly instead
// of failing partway into a run.
func (o options) validate() error {
	if workload.ByName(o.workload) == nil {
		return fmt.Errorf("unknown workload %q (-workload must be one of: %s)",
			o.workload, strings.Join(workload.SuiteNames(), ", "))
	}
	if _, err := baseline.ParseVariant(o.variant); err != nil {
		return err
	}
	if o.lanes < 1 {
		return fmt.Errorf("-lanes must be >= 1 (got %d)", o.lanes)
	}
	if _, err := hintModeByName(o.hints); err != nil {
		return err
	}
	if o.tasks < 0 {
		return fmt.Errorf("-tasks must be >= 0 (got %d)", o.tasks)
	}
	if o.traceLimit < 0 {
		return fmt.Errorf("-trace-limit must be >= 0 (got %d)", o.traceLimit)
	}
	return nil
}

// hintModeByName resolves a -hints value.
func hintModeByName(name string) (core.HintMode, error) {
	switch name {
	case "exact":
		return core.HintExact, nil
	case "noisy":
		return core.HintNoisy, nil
	case "none":
		return core.HintNone, nil
	}
	return 0, fmt.Errorf("unknown hint mode %q (-hints must be one of: exact, noisy, none)", name)
}

// usageError is a flag value run rejected before simulating; main
// prints the usage and exits with code.
type usageError struct {
	error
	code int
}

func main() {
	o := options{}
	flag.StringVar(&o.workload, "workload", "spmv", "suite workload: spmv|bfs|join|tri|sort|kmeans|gemm|stencil|hist")
	flag.StringVar(&o.variant, "variant", "delta", "execution model: static|dyn-rr|+lb|+lb+mc|delta")
	flag.IntVar(&o.lanes, "lanes", 8, "compute lane count")
	flag.StringVar(&o.hints, "hints", "exact", "work-hint fidelity: exact|noisy|none")
	flag.StringVar(&o.policy, "policy", "",
		"dispatch policy override: "+strings.Join(core.PolicyNames(), "|")+"; empty keeps the variant's policy")
	flag.BoolVar(&o.vet, "vet", true, "statically verify the program before running (delta-vet)")
	flag.BoolVar(&o.verbose, "v", false, "print every counter and the per-lane busy cycles")
	flag.IntVar(&o.tasks, "tasks", 0,
		"print the task types with their fabric mappings and the first N task descriptors (TSK1 wire format)")
	flag.BoolVar(&o.stalls, "stalls", false,
		"print where every lane's cycles went (stall attribution) and the observability counters")
	flag.BoolVar(&o.timeline, "timeline", false, "print a per-lane occupancy timeline")
	flag.StringVar(&o.traceOut, "trace-out", "",
		"write a Chrome trace-event / Perfetto JSON trace of the run to this path")
	flag.IntVar(&o.traceLimit, "trace-limit", 250000,
		"max buffered trace events (0 = unbounded; metrics keep counting past the limit)")
	flag.BoolVar(&o.hostprof, "hostprof", false,
		"report the engine run meter: executed vs fast-forwarded cycles, component ticks and wall time to stderr (results unchanged)")
	flag.Parse()

	err := run(o, os.Stdout, os.Stderr)
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "delta-sim: %v\n", err)
	var ue usageError
	if errors.As(err, &ue) {
		flag.Usage()
		os.Exit(ue.code)
	}
	os.Exit(1)
}

// run simulates the workload o names once, then prints the summary and
// each view o asks for to stdout. The trace file's note and the host
// profile go to stderr, so stdout is the same with and without them.
func run(o options, stdout, stderr io.Writer) error {
	if err := o.validatePolicy(); err != nil {
		return usageError{err, 2}
	}
	if err := o.validate(); err != nil {
		return usageError{err, 1}
	}
	v, _ := baseline.ParseVariant(o.variant)
	hm, _ := hintModeByName(o.hints)

	w := workload.ByName(o.workload).Build()
	cfg, opts := v.Configure(config.Default8().WithLanes(o.lanes))
	opts.Hints = hm
	opts.Vet = o.vet
	if o.policy != "" {
		// Explicit -policy overrides the variant's policy, including
		// the static comparator's pin.
		opts.Policy, _ = core.ParsePolicy(o.policy)
	}
	var sink *obs.Sink
	switch {
	case o.traceOut != "":
		sink = obs.New(o.traceLimit)
	case o.stalls || o.timeline:
		// Metrics and task spans fold before the buffer limit, so
		// without a trace to export one buffered event is enough.
		sink = obs.New(1)
	}
	opts.Obs = sink
	rep, err := baseline.RunCfg(cfg, opts, w.Prog, w.Storage)
	if err != nil {
		return fmt.Errorf("run: %v", err)
	}
	if err := w.Verify(); err != nil {
		return fmt.Errorf("verification: %v", err)
	}
	if o.traceOut != "" {
		if err := writeTrace(o.traceOut, sink); err != nil {
			return fmt.Errorf("-trace-out: %v", err)
		}
		fmt.Fprintf(stderr,
			"delta-sim: wrote %d trace events (%d dropped) to %s — load at https://ui.perfetto.dev or chrome://tracing\n",
			sink.Len(), sink.Dropped(), o.traceOut)
	}
	if o.hostprof {
		snap := sim.HostProfSnapshot()
		fmt.Fprint(stderr, snap.Report())
	}

	fmt.Fprintf(stdout, "workload=%s variant=%s lanes=%d\n", o.workload, o.variant, o.lanes)
	fmt.Fprintf(stdout, "cycles            %d\n", rep.Cycles)
	fmt.Fprintf(stdout, "tasks run         %d (%d spawned)\n",
		rep.Stats.Get("tasks_run"), rep.Stats.Get("tasks_spawned"))
	fmt.Fprintf(stdout, "lane imbalance    %.2f (max/mean busy)\n", stats.Imbalance(rep.LaneBusy))
	fmt.Fprintf(stdout, "DRAM traffic      %s\n", stats.Bytes(rep.Stats.Get("dram_bytes")))
	fmt.Fprintf(stdout, "NoC flit-cycles   %d\n", rep.Stats.Get("noc_flit_cycles"))
	fmt.Fprintf(stdout, "forwarded pairs   %d (%d elems)\n",
		rep.Stats.Get("fwd_pairs"), rep.Stats.Get("fwd_elems"))
	fmt.Fprintf(stdout, "multicast groups  %d (%d joins, %d lines saved)\n",
		rep.Stats.Get("mcast_groups"), rep.Stats.Get("mcast_joins"),
		rep.Stats.Get("mcast_lines_saved"))
	fmt.Fprintf(stdout, "results verified  ok\n")

	if o.verbose {
		fmt.Fprint(stdout, "\nall counters:\n", rep.Stats.String())
		fmt.Fprintf(stdout, "\nbusy cycles per lane:\n")
		for i, b := range rep.LaneBusy {
			frac := float64(b) / float64(rep.Cycles)
			bar := int(frac * 40)
			fmt.Fprintf(stdout, "lane %2d busy %8d  |%s%s| %s\n", i, b,
				strings.Repeat("#", bar), strings.Repeat(".", 40-bar), stats.Pct(frac))
		}
	}
	if o.tasks > 0 {
		if err := printTasks(stdout, o, w.Prog, cfg.Fabric); err != nil {
			return err
		}
	}
	if o.stalls {
		m := sink.Metrics()
		fmt.Fprintf(stdout, "\n== %s stall attribution (%s, %d lanes, %d cycles) ==\n",
			o.workload, o.variant, o.lanes, rep.Cycles)
		fmt.Fprint(stdout, m.StallSummary(o.lanes, rep.Cycles))
		fmt.Fprint(stdout, "\nobservability counters:\n", m.Stats().String())
	}
	if o.timeline {
		fmt.Fprint(stdout, "\n", sink.Timeline(o.lanes, 100))
	}
	return nil
}

// printTasks prints every task type with its fabric mapping, then the
// first o.tasks task descriptors in the TSK1 wire format, each
// round-tripped through the decoder.
func printTasks(out io.Writer, o options, prog *core.Program, fc config.Fabric) error {
	fmt.Fprintf(out, "\n== %s: task types ==\n", o.workload)
	for i, tt := range prog.Types {
		mp, err := fabric.Map(tt.DFG, fc.Rows, fc.Cols)
		if err != nil {
			return fmt.Errorf("mapping %s: %v", tt.Name, err)
		}
		fmt.Fprintf(out, "type %d %-14s: %2d DFG nodes → %2d cells, II=%d, latency=%d\n",
			i, tt.Name, len(tt.DFG.Nodes), mp.Cells, mp.II, mp.Latency)
	}
	fmt.Fprintf(out, "\n== sample task descriptors (TSK1 wire format) ==\n")
	for i := 0; i < o.tasks && i < len(prog.Tasks); i++ {
		t := prog.Tasks[i]
		buf, err := isa.EncodeTask(&t)
		if err != nil {
			return fmt.Errorf("encode: %v", err)
		}
		rt, err := isa.DecodeTask(buf)
		if err != nil {
			return fmt.Errorf("decode: %v", err)
		}
		fmt.Fprintf(out, "task %d: type=%d phase=%d hint=%d ins=%d outs=%d → %d bytes (round-trip ok=%v)\n",
			i, t.Type, t.Phase, t.DefaultWorkHint(), len(t.Ins), len(t.Outs), len(buf),
			rt.Key == t.Key)
	}
	return nil
}

// writeTrace exports sink's events as a Chrome trace-event / Perfetto
// JSON file at path.
func writeTrace(path string, sink *obs.Sink) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, sink); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
