// Command bench is the repository benchmark: five workloads that
// measure the simulator's host time and simulated cycles end to end,
// and with -layers (-trace 1) per layer. BENCHMARK.json at the
// repository root names the workloads and every metric, with its unit,
// direction and regression bound; this program emits exactly those
// names.
//
//	bash bench/run.sh -workload sim-noc -seed 0
//	bash bench/run.sh -workload all -seed 0 -json out.json
//	bash bench/run.sh -workload sim-task -seed 1 -layers
//	bash bench/run.sh -compare a.json b.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// -workload, -seed, -seconds and -trace make up the standard benchmark
// command line (--workload W --seed N --seconds S --trace 0|1), so both
// -seconds and -trace stay. The measuring window is fixed by
// run_seconds in BENCHMARK.json; -seconds only confirms it and is
// refused with any other value, so two sets of runs never differ in
// length. -layers is -trace 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// benchFile is BENCHMARK.json: the workload list and the metric schema.
type benchFile struct {
	RunSeconds int         `json:"run_seconds"`
	Workloads  []namedWhy  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type namedWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchFile(root string) (*benchFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// runCtx is what every workload is run with.
type runCtx struct {
	root    string
	seed    uint64
	seconds float64 // measuring window
	trace   bool    // per-layer run: spans, runtime counters, CPU profile
	// minPasses is the fewest timed passes a run makes, however long
	// they take. smoke shrinks every workload to its smallest size.
	minPasses int
	smoke     bool
}

// result is one workload run: what was attempted, what failed, and
// every metric by name. Notes record sample counts and percentiles.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
	Errors    []string           `json:"errors,omitempty"`
	Host      hostInfo           `json:"host"`
	spans     []span
}

func newResult(name string, c *runCtx) *result {
	return &result{Workload: name, Seed: c.seed, Trace: c.trace, Seconds: c.seconds,
		Correct: true, Values: map[string]float64{}, Host: host()}
}

func (r *result) set(name string, v float64) { r.Values[name] = v }

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// maxErrors caps how many failure messages a result keeps.
const maxErrors = 20

// opFailed counts one failed operation.
func (r *result) opFailed(err error) {
	r.Failed++
	r.broken(err)
}

// broken records a failed correctness check; the run is not correct.
func (r *result) broken(err error) {
	r.Correct = false
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Platform   string `json:"platform"`
	Commit     string `json:"commit"`
}

// host describes the machine and build. The commit comes from the
// version-control stamp the go command embeds when it builds inside a
// git checkout; elsewhere it is "unknown".
func host() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

type workloadFunc func(c *runCtx) (*result, error)

// workloads maps each BENCHMARK.json workload to its implementation.
var workloads = map[string]workloadFunc{
	"sim-noc":     runSimNoC,
	"sim-task":    runSimTask,
	"obs-stalls":  runObsStalls,
	"serve-mixed": runServeMixed,
	"suite-regen": runSuiteRegen,
}

// ambientEnv lists the TASKSTREAM_* variables set in env. Each of them
// silently changes what the simulator does, so a run under any of
// them measures something else.
func ambientEnv(env []string) []string {
	var set []string
	for _, kv := range env {
		if strings.HasPrefix(kv, "TASKSTREAM_") {
			set = append(set, strings.SplitN(kv, "=", 2)[0])
		}
	}
	return set
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Uint64("seed", 0, "input seed; 0 reproduces the suite's default inputs")
	seconds := fs.Int("seconds", 0, "if given, must equal run_seconds in BENCHMARK.json, which fixes the measuring window")
	trace := fs.Int("trace", 0, "1 runs the per-layer measurement instead of the end-to-end one")
	layers := fs.Bool("layers", false, "same as -trace 1")
	jsonOut := fs.String("json", "", "append each run's full record as one JSON line to this file")
	spansOut := fs.String("spans", "", "with -layers, write the recorded spans to this JSON file at the end")
	root := fs.String("root", ".", "repository root")
	compare := fs.Bool("compare", false, "compare two -json files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if env := ambientEnv(os.Environ()); len(env) > 0 {
		fmt.Fprintf(stderr, "bench: refusing to run with %s set: it changes what is measured\n", strings.Join(env, ", "))
		return 2
	}
	bf, err := loadBenchFile(*root)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two files")
			return 2
		}
		return runCompare(bf, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	if *seconds != 0 && *seconds != bf.RunSeconds {
		fmt.Fprintf(stderr, "bench: -seconds %d: the measuring window is run_seconds = %d, fixed in BENCHMARK.json\n", *seconds, bf.RunSeconds)
		return 2
	}
	var names []string
	for _, w := range bf.Workloads {
		if *name == "all" || *name == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	c := &runCtx{root: *root, seed: *seed, seconds: float64(bf.RunSeconds), trace: *trace == 1 || *layers, minPasses: 2}
	spans := map[string][]span{}
	for _, n := range names {
		r, err := bf.runWorkload(n, c)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		spans[n] = r.spans
		if *jsonOut != "" {
			if err := appendJSONLine(*jsonOut, r); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		if err := bf.print(stdout, r); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if *spansOut != "" && c.trace {
		if err := writeSpans(*spansOut, spans); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return 0
}

// runWorkload runs one workload and holds the result to the schema.
func (bf *benchFile) runWorkload(name string, c *runCtx) (*result, error) {
	fn, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("workload %q has no implementation", name)
	}
	r, err := fn(c)
	if err != nil {
		return nil, err
	}
	return r, bf.check(r)
}

// defs returns the metric definitions a run of this kind reports.
func (bf *benchFile) defs(trace bool) []metricDef {
	if trace {
		return bf.PerLayer
	}
	return bf.EndToEnd
}

// check holds a result to the schema: every name it emits is declared,
// every end-to-end metric is present and positive (a zero would mean
// nothing was measured), and per-layer metrics a workload does not
// exercise read 0.
func (bf *benchFile) check(r *result) error {
	declared := map[string]bool{}
	for _, d := range bf.EndToEnd {
		declared[d.Name] = true
	}
	for _, d := range bf.PerLayer {
		declared[d.Name] = true
	}
	var unknown []string
	for n := range r.Values {
		if !declared[n] {
			unknown = append(unknown, n)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("metrics not in BENCHMARK.json: %s", strings.Join(unknown, ", "))
	}
	if r.Attempted < 1 {
		return errors.New("nothing was attempted")
	}
	if r.Trace {
		for _, d := range bf.PerLayer {
			if _, ok := r.Values[d.Name]; !ok {
				r.Values[d.Name] = 0
			}
		}
		return nil
	}
	for _, d := range bf.EndToEnd {
		if v, ok := r.Values[d.Name]; !ok || !(v > 0) {
			return fmt.Errorf("end-to-end metric %s missing or not positive (%v)", d.Name, v)
		}
	}
	return nil
}

// print writes the human-readable table, the notes, and last the
// one-line JSON summary.
func (bf *benchFile) print(w io.Writer, r *result) error {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %.0fs window; %d CPUs, GOMAXPROCS %d, %s, commit %s)\n",
		r.Workload, mode, r.Seed, r.Seconds, r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Commit)
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]mv{}
	for _, d := range bf.defs(r.Trace) {
		v := r.Values[d.Name]
		out[d.Name] = mv{v, d.Unit}
		fmt.Fprintf(w, "%-34s %16.6g %s\n", d.Name, v, d.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func appendJSONLine(path string, r *result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans writes every workload's spans, keyed by workload.
func writeSpans(path string, spans map[string][]span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
