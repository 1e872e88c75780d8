// delta-bench regenerates every table and figure of the evaluation
// (experiments E1–E14 in DESIGN.md) and prints them as aligned text
// tables. Select a subset with -only; fan independent simulations out
// across CPUs with -j; write machine-readable per-experiment metrics
// with -json. Tables always appear on stdout in experiment order and
// are byte-identical at any -j and with the run cache on or off
// (timing and cache-counter lines go to stderr), so
// `delta-bench > bench_results.txt` is reproducible however the run
// was parallelized or memoized. Duplicate simulations across
// experiments resolve through the shared run-plan cache
// (internal/runplan, DESIGN.md §12).
//
// Usage:
//
//	delta-bench            # everything, one simulation per CPU
//	delta-bench -j 1       # strictly serial, today's single-core behavior
//	delta-bench -only E3,E4
//	delta-bench -json bench.json                 # also dump {id,title,metrics}
//	delta-bench -only E6 -cpuprofile cpu.pprof   # profile the hot loop
//	delta-bench -server http://localhost:8177    # resolve runs via delta-serve
//
// With -server, every simulation resolves through a delta-serve
// daemon instead of executing in-process: a warm daemon answers the
// whole suite from its content-addressed store at memory speed, and
// stdout stays byte-identical to a local run (the client-side cache
// tally goes to stderr).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"taskstream/internal/experiments"
	"taskstream/internal/parallel"
	"taskstream/internal/runplan"
	"taskstream/internal/sim"
	"taskstream/internal/store"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E3,E10)")
	jsonPath := flag.String("json", "", "write per-experiment {id, title, metrics} JSON to this file")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations (1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	server := flag.String("server", "", "resolve simulations through the delta-serve daemon at this URL")
	hostprof := flag.Bool("hostprof", false,
		"report the engine run meter: runs, executed vs fast-forwarded cycles, component ticks and wall time to stderr, cycle and tick counts as a -json ffstats entry (stdout unchanged)")
	flag.Parse()
	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "delta-bench: -j must be >= 1 (got %d)\n", *jobs)
		os.Exit(1)
	}
	experiments.SetWorkers(*jobs)

	var client *store.Client
	if *server != "" {
		client = store.NewClient(*server)
		if err := client.WaitReady(10 * time.Second); err != nil {
			fmt.Fprintf(os.Stderr, "delta-bench: -server: %v\n", err)
			os.Exit(1)
		}
		experiments.SetResolver(client.Resolve)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "delta-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "delta-bench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "delta-bench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // get up-to-date allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "delta-bench: -memprofile: %v\n", err)
			}
		}()
	}

	sel, unknown := selectExperiments(*only)
	if len(unknown) > 0 {
		for _, id := range unknown {
			fmt.Fprintf(os.Stderr, "delta-bench: unknown experiment id %q\n", id)
		}
		os.Exit(1)
	}

	// Experiments run concurrently when -j allows; the worker budget
	// inside the experiments package bounds simulations in flight.
	// Results print in experiment order regardless.
	expWorkers := 1
	if *jobs > 1 {
		expWorkers = len(sel)
	}
	start := time.Now()
	results, err := parallel.Map(expWorkers, sel, func(_ int, e experiments.Named) (experiments.Result, error) {
		t0 := time.Now()
		r, err := e.Fn()
		if err != nil {
			return experiments.Result{}, fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.ID, time.Since(t0).Round(time.Millisecond))
		return r, nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "delta-bench: %v\n", err)
		os.Exit(1)
	}
	for _, r := range results {
		fmt.Print(r.Render())
	}
	if *jsonPath != "" {
		out := results
		if *hostprof {
			out = append(out, ffstats(sim.HostProfSnapshot()))
		}
		if err := writeJSON(*jsonPath, out); err != nil {
			fmt.Fprintf(os.Stderr, "delta-bench: -json: %v\n", err)
			os.Exit(1)
		}
	}
	if client != nil {
		fmt.Fprintf(os.Stderr, "[server %s: %s]\n", *server, client.CountsLine())
	} else {
		fmt.Fprintf(os.Stderr, "[run cache: %s]\n", runplan.Shared.Counters())
	}
	if *hostprof {
		// Stderr only: the suite's stdout stays byte-identical with and
		// without profiling (the feedback-free contract, DESIGN.md §18).
		snap := sim.HostProfSnapshot()
		fmt.Fprint(os.Stderr, snap.Report())
	}
	fmt.Fprintf(os.Stderr, "[all done in %v, -j %d]\n", time.Since(start).Round(time.Millisecond), *jobs)
}

// jsonResult is one experiment in the -json dump. Metrics marshal with
// sorted keys (encoding/json's map behavior), so the file is
// deterministic and diffable across runs — the BENCH_*.json perf
// trajectory future PRs compare against.
type jsonResult struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Metrics map[string]float64 `json:"metrics"`
}

// ffstats is the -hostprof entry of the -json dump: the run meter's
// cycle and tick counts, without wall time, so the file stays
// deterministic.
func ffstats(p sim.HostProf) experiments.Result {
	return experiments.Result{
		ID: "ffstats", Title: "fast-forward cycle accounting",
		Metrics: map[string]float64{
			"ff_runs":            float64(p.Runs),
			"ff_executed_cycles": float64(p.ExecutedCycles),
			"ff_skipped_cycles":  float64(p.SkippedCycles),
			"ff_ticks":           float64(p.Ticks),
		},
	}
}

// writeJSON dumps every result's headline metrics to path.
func writeJSON(path string, results []experiments.Result) error {
	out := make([]jsonResult, len(results))
	for i, r := range results {
		out[i] = jsonResult{ID: r.ID, Title: r.Title, Metrics: r.Metrics}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selectExperiments resolves the -only flag (comma-separated ids,
// case-insensitive, empty = everything) against the registry. The
// returned selection preserves E-number order; ids that match no
// experiment come back in unknown, sorted.
func selectExperiments(only string) (sel []experiments.Named, unknown []string) {
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToUpper(id)] = true
		}
	}
	all := len(want) == 0
	for _, e := range experiments.Registry() {
		if all || want[e.ID] {
			sel = append(sel, e)
			delete(want, e.ID)
		}
	}
	for id := range want {
		unknown = append(unknown, id)
	}
	sort.Strings(unknown)
	return sel, unknown
}
