// delta-sim runs one suite workload on one execution-model variant and
// prints the run's statistics.
//
// Usage:
//
//	delta-sim -workload spmv -variant delta -lanes 8 [-hints exact]
//	delta-sim -workload spmv -trace-out spmv.json   # Perfetto trace
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"taskstream/internal/baseline"
	"taskstream/internal/config"
	"taskstream/internal/core"
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
			o.workload, strings.Join(suiteNames(), ", "))
	}
	if _, err := variantByName(o.variant); err != nil {
		return err
	}
	if o.lanes < 1 {
		return fmt.Errorf("-lanes must be >= 1 (got %d)", o.lanes)
	}
	if _, err := hintModeByName(o.hints); err != nil {
		return err
	}
	if o.traceLimit < 0 {
		return fmt.Errorf("-trace-limit must be >= 0 (got %d)", o.traceLimit)
	}
	return nil
}

// variantByName resolves a variant display name.
func variantByName(name string) (baseline.Variant, error) {
	var names []string
	for v := baseline.Static; v < baseline.NumVariants; v++ {
		if v.String() == name {
			return v, nil
		}
		names = append(names, v.String())
	}
	return 0, fmt.Errorf("unknown variant %q (-variant must be one of: %s)",
		name, strings.Join(names, ", "))
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

func suiteNames() []string {
	var names []string
	for _, nb := range workload.Suite() {
		names = append(names, nb.Name)
	}
	return names
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
	flag.BoolVar(&o.verbose, "v", false, "print every counter")
	flag.StringVar(&o.traceOut, "trace-out", "",
		"write a Chrome trace-event / Perfetto JSON trace of the run to this path")
	flag.IntVar(&o.traceLimit, "trace-limit", 250000,
		"max buffered trace events (0 = unbounded; metrics keep counting past the limit)")
	flag.BoolVar(&o.hostprof, "hostprof", false,
		"report the engine run meter: executed vs fast-forwarded cycles and wall time to stderr (results unchanged)")
	flag.Parse()

	if err := o.validatePolicy(); err != nil {
		fmt.Fprintf(os.Stderr, "delta-sim: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "delta-sim: %v\n", err)
		flag.Usage()
		os.Exit(1)
	}

	nb := workload.ByName(o.workload)
	v, _ := variantByName(o.variant)
	hm, _ := hintModeByName(o.hints)

	w := nb.Build()
	cfg, opts := v.Configure(config.Default8().WithLanes(o.lanes))
	opts.Hints = hm
	opts.Vet = o.vet
	if o.policy != "" {
		// Explicit -policy overrides the variant's policy, including
		// the static comparator's pin.
		opts.Policy, _ = core.ParsePolicy(o.policy)
	}
	var sink *obs.Sink
	if o.traceOut != "" {
		sink = obs.New(o.traceLimit)
		opts.Obs = sink
	}
	rep, err := baseline.RunCfg(cfg, opts, w.Prog, w.Storage)
	if err != nil {
		fatalf("run: %v", err)
	}
	if err := w.Verify(); err != nil {
		fatalf("verification: %v", err)
	}
	if sink != nil {
		// Trace output and its note go to the file and stderr so stdout
		// stays byte-identical with and without -trace-out.
		f, err := os.Create(o.traceOut)
		if err != nil {
			fatalf("-trace-out: %v", err)
		}
		if err := obs.WriteChromeTrace(f, sink); err != nil {
			f.Close()
			fatalf("-trace-out: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("-trace-out: %v", err)
		}
		fmt.Fprintf(os.Stderr,
			"delta-sim: wrote %d trace events (%d dropped) to %s — load at https://ui.perfetto.dev or chrome://tracing\n",
			sink.Len(), sink.Dropped(), o.traceOut)
	}
	if o.hostprof {
		// Host profile goes to stderr so stdout stays byte-identical
		// with and without -hostprof (the feedback-free contract).
		snap := sim.HostProfSnapshot()
		fmt.Fprint(os.Stderr, snap.Report())
	}

	fmt.Printf("workload=%s variant=%s lanes=%d\n", o.workload, o.variant, o.lanes)
	fmt.Printf("cycles            %d\n", rep.Cycles)
	fmt.Printf("tasks run         %d (%d spawned)\n",
		rep.Stats.Get("tasks_run"), rep.Stats.Get("tasks_spawned"))
	fmt.Printf("lane imbalance    %.2f (max/mean busy)\n", stats.Imbalance(rep.LaneBusy))
	fmt.Printf("DRAM traffic      %s\n", stats.Bytes(rep.Stats.Get("dram_bytes")))
	fmt.Printf("NoC flit-cycles   %d\n", rep.Stats.Get("noc_flit_cycles"))
	fmt.Printf("forwarded pairs   %d (%d elems)\n",
		rep.Stats.Get("fwd_pairs"), rep.Stats.Get("fwd_elems"))
	fmt.Printf("multicast groups  %d (%d joins, %d lines saved)\n",
		rep.Stats.Get("mcast_groups"), rep.Stats.Get("mcast_joins"),
		rep.Stats.Get("mcast_lines_saved"))
	fmt.Printf("results verified  ok\n")
	if o.verbose {
		fmt.Println("\nall counters:")
		fmt.Print(rep.Stats.String())
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "delta-sim: "+format+"\n", args...)
	os.Exit(1)
}
