// delta-inspect dumps machine-level detail for one workload: the task
// types with their fabric mappings, the binary task-descriptor encoding
// of sample tasks, and the per-lane execution profile of a run.
//
// Usage:
//
//	delta-inspect -workload join [-variant delta] [-lanes 8] [-tasks 3]
//	delta-inspect stalls -workload join [-variant delta] [-lanes 8] [-trace-out j.json]
//
// The stalls subcommand runs one observed simulation and prints the
// per-lane stall-attribution table plus the observability counters;
// -trace-out additionally writes the Chrome trace-event / Perfetto
// JSON trace.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"taskstream/internal/baseline"
	"taskstream/internal/config"
	"taskstream/internal/core"
	"taskstream/internal/fabric"
	"taskstream/internal/isa"
	"taskstream/internal/obs"
	"taskstream/internal/stats"
	"taskstream/internal/workload"
)

// options holds the parsed flag values; validate rejects bad ones
// before any simulation or printing starts.
type options struct {
	workload string
	variant  string
	lanes    int
	tasks    int
	policy   string
	timeline bool
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

// validate checks every other flag value up front, returning a
// usage-style error naming the offending flag so main can exit 1
// cleanly instead of panicking or printing partial garbage mid-dump.
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
	if o.tasks < 0 {
		return fmt.Errorf("-tasks must be >= 0 (got %d)", o.tasks)
	}
	return nil
}

// applyPolicy overrides opts.Policy when -policy was given;
// validatePolicy has already vetted the name.
func (o options) applyPolicy(opts *core.Options) {
	if o.policy != "" {
		opts.Policy, _ = core.ParsePolicy(o.policy)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "stalls" {
		runStalls(os.Args[2:])
		return
	}
	o := options{}
	flag.StringVar(&o.workload, "workload", "spmv", "suite workload name")
	flag.StringVar(&o.variant, "variant", "delta", "execution model variant")
	flag.IntVar(&o.lanes, "lanes", 8, "lane count")
	flag.IntVar(&o.tasks, "tasks", 3, "sample task descriptors to dump")
	flag.StringVar(&o.policy, "policy", "",
		"dispatch policy override: "+strings.Join(core.PolicyNames(), "|")+"; empty keeps the variant's policy")
	flag.BoolVar(&o.timeline, "timeline", false, "render a per-lane occupancy timeline")
	flag.Parse()

	if err := o.validatePolicy(); err != nil {
		fmt.Fprintf(os.Stderr, "delta-inspect: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "delta-inspect: %v\n", err)
		flag.Usage()
		os.Exit(1)
	}

	nb := workload.ByName(o.workload)
	w := nb.Build()
	cfg := config.Default8().WithLanes(o.lanes)

	fmt.Printf("== %s: task types ==\n", o.workload)
	for i, tt := range w.Prog.Types {
		mp, err := fabric.Map(tt.DFG, cfg.Fabric.Rows, cfg.Fabric.Cols)
		if err != nil {
			fatalf("mapping %s: %v", tt.Name, err)
		}
		fmt.Printf("type %d %-14s: %2d DFG nodes → %2d cells, II=%d, latency=%d\n",
			i, tt.Name, len(tt.DFG.Nodes), mp.Cells, mp.II, mp.Latency)
	}

	fmt.Printf("\n== sample task descriptors (TSK1 wire format) ==\n")
	for i := 0; i < o.tasks && i < len(w.Prog.Tasks); i++ {
		t := w.Prog.Tasks[i]
		buf, err := isa.EncodeTask(&t)
		if err != nil {
			fatalf("encode: %v", err)
		}
		rt, err := isa.DecodeTask(buf)
		if err != nil {
			fatalf("decode: %v", err)
		}
		fmt.Printf("task %d: type=%d phase=%d hint=%d ins=%d outs=%d → %d bytes (round-trip ok=%v)\n",
			i, t.Type, t.Phase, t.DefaultWorkHint(), len(t.Ins), len(t.Outs), len(buf),
			rt.Key == t.Key)
	}

	v, _ := baseline.ParseVariant(o.variant)
	mcfg, opts := v.Configure(cfg)
	o.applyPolicy(&opts)
	var sink *obs.Sink
	if o.timeline {
		// The timeline folds from the sink's task spans, which survive
		// the buffer limit, so the raw event buffer can stay tiny.
		sink = obs.New(1)
		opts.Obs = sink
	}
	rep, err := baseline.RunCfg(mcfg, opts, w.Prog, w.Storage)
	if err != nil {
		fatalf("run: %v", err)
	}
	if err := w.Verify(); err != nil {
		fatalf("verification: %v", err)
	}

	fmt.Printf("\n== run profile (%s, %d lanes) ==\n", o.variant, o.lanes)
	fmt.Printf("cycles %d, imbalance %.2f\n", rep.Cycles, stats.Imbalance(rep.LaneBusy))
	for i, b := range rep.LaneBusy {
		frac := float64(b) / float64(rep.Cycles)
		bar := int(frac * 40)
		fmt.Printf("lane %2d busy %8d  |%s%s| %s\n", i, b,
			repeatRune('#', bar), repeatRune('.', 40-bar), stats.Pct(frac))
	}
	fmt.Printf("\nstall attribution: dram=%d spad=%d fwd=%d mcast=%d out=%d\n",
		rep.Stats.Get("stall_in_dram"), rep.Stats.Get("stall_in_spad"),
		rep.Stats.Get("stall_in_fwd"), rep.Stats.Get("stall_in_mcast"),
		rep.Stats.Get("stall_out"))

	if sink != nil {
		fmt.Println()
		fmt.Print(sink.Timeline(o.lanes, 100))
	}
}

// runStalls implements the stalls subcommand: run one workload with an
// observability sink attached and print where every lane's cycles went.
func runStalls(args []string) {
	fs := flag.NewFlagSet("delta-inspect stalls", flag.ExitOnError)
	o := options{tasks: 0}
	var traceOut string
	var traceLimit int
	fs.StringVar(&o.workload, "workload", "spmv", "suite workload name")
	fs.StringVar(&o.variant, "variant", "delta", "execution model variant")
	fs.IntVar(&o.lanes, "lanes", 8, "lane count")
	fs.StringVar(&o.policy, "policy", "",
		"dispatch policy override: "+strings.Join(core.PolicyNames(), "|")+"; empty keeps the variant's policy")
	fs.StringVar(&traceOut, "trace-out", "",
		"also write a Chrome trace-event / Perfetto JSON trace to this path")
	fs.IntVar(&traceLimit, "trace-limit", 250000,
		"max buffered trace events (0 = unbounded)")
	fs.Parse(args)

	if err := o.validatePolicy(); err != nil {
		fmt.Fprintf(os.Stderr, "delta-inspect stalls: %v\n", err)
		fs.Usage()
		os.Exit(2)
	}
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "delta-inspect stalls: %v\n", err)
		fs.Usage()
		os.Exit(1)
	}
	if traceLimit < 0 {
		fatalf("stalls: -trace-limit must be >= 0 (got %d)", traceLimit)
	}

	nb := workload.ByName(o.workload)
	w := nb.Build()
	v, _ := baseline.ParseVariant(o.variant)
	cfg, opts := v.Configure(config.Default8().WithLanes(o.lanes))
	o.applyPolicy(&opts)
	sink := obs.New(traceLimit)
	opts.Obs = sink
	rep, err := baseline.RunCfg(cfg, opts, w.Prog, w.Storage)
	if err != nil {
		fatalf("stalls: run: %v", err)
	}
	if err := w.Verify(); err != nil {
		fatalf("stalls: verification: %v", err)
	}

	fmt.Printf("== %s stall attribution (%s, %d lanes, %d cycles) ==\n",
		o.workload, o.variant, o.lanes, rep.Cycles)
	m := sink.Metrics()
	fmt.Print(m.StallSummary(o.lanes, rep.Cycles))
	fmt.Println()
	fmt.Printf("events: %d buffered, %d dropped\n", sink.Len(), sink.Dropped())
	fmt.Println("observability counters:")
	fmt.Print(m.Stats().String())
	if d := sink.Dropped(); d > 0 {
		// Metrics keep folding past the buffer limit, so the attribution
		// above is complete — only an exported trace would be truncated.
		fmt.Fprintf(os.Stderr,
			"delta-inspect: warning: %d events dropped at the %d-event buffer limit; "+
				"attribution is complete, but a -trace-out export would be truncated "+
				"(raise -trace-limit or pass -trace-limit 0)\n", d, traceLimit)
	}

	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fatalf("stalls: -trace-out: %v", err)
		}
		if err := obs.WriteChromeTrace(f, sink); err != nil {
			f.Close()
			fatalf("stalls: -trace-out: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("stalls: -trace-out: %v", err)
		}
		fmt.Fprintf(os.Stderr,
			"delta-inspect: wrote %d trace events (%d dropped) to %s — load at https://ui.perfetto.dev or chrome://tracing\n",
			sink.Len(), sink.Dropped(), traceOut)
	}
}

func repeatRune(r rune, n int) string {
	if n < 0 {
		n = 0
	}
	out := make([]rune, n)
	for i := range out {
		out[i] = r
	}
	return string(out)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "delta-inspect: "+format+"\n", args...)
	os.Exit(1)
}
