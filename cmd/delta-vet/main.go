// delta-vet runs the whole-program static verifier over the workload
// suite (or one named workload) and reports every diagnostic. It is the
// pre-flight correctness gate for workload changes: exit status 1 means
// at least one diagnostic fired.
//
// With -infer the tool runs the analysis in reverse: each workload is
// stripped of its annotations (work hints, forward tags, shared-read
// marks), the delta-infer synthesizer re-derives them, and the tool
// prints the synthesized annotation patch plus per-kind
// precision/recall against the hand annotations. Exit status 1 then
// means inference failed somewhere, or an aggregate precision/recall
// fell below a -min-*-pr floor.
//
// Usage:
//
//	delta-vet                     # vet the whole suite
//	delta-vet -workload sort -v   # vet one workload, report when clean
//	delta-vet -ports 8 -hint-skew 4
//	delta-vet -json vet.json      # machine-readable diagnostics
//	delta-vet -infer              # strip → infer → vet + precision/recall
//	delta-vet -infer -min-fwd-pr 0.99 -min-shared-pr 0.99   # CI gate
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"taskstream/internal/analysis"
	"taskstream/internal/analysis/infer"
	"taskstream/internal/config"
	"taskstream/internal/workload"
)

// options holds the parsed flag values; validate rejects bad ones
// before any workload is built.
type options struct {
	workload    string
	verbose     bool
	jsonPath    string
	ports       int
	hintSkew    int64
	infer       bool
	minFwdPR    float64
	minSharedPR float64
	args        []string // positional arguments; delta-vet takes none
}

// validate checks every flag value up front, returning a usage-style
// error naming the offending flag. A floor must lie in [0, 1]; the
// negated form also rejects NaN, which would disable the gate.
func (o options) validate() error {
	switch {
	case o.ports < 0:
		return fmt.Errorf("-ports must be >= 0 (got %d)", o.ports)
	case o.hintSkew <= 0:
		return fmt.Errorf("-hint-skew must be > 0 (got %d)", o.hintSkew)
	case !(o.minFwdPR >= 0 && o.minFwdPR <= 1):
		return fmt.Errorf("-min-fwd-pr must be in [0, 1] (got %g)", o.minFwdPR)
	case !(o.minSharedPR >= 0 && o.minSharedPR <= 1):
		return fmt.Errorf("-min-shared-pr must be in [0, 1] (got %g)", o.minSharedPR)
	case (o.minFwdPR > 0 || o.minSharedPR > 0) && !o.infer:
		return errors.New("-min-fwd-pr/-min-shared-pr require -infer")
	case len(o.args) > 0:
		return fmt.Errorf("unexpected argument %q", o.args[0])
	}
	return nil
}

func main() {
	o := options{}
	flag.StringVar(&o.workload, "workload", "", "vet a single workload (default: whole suite)")
	flag.BoolVar(&o.verbose, "v", false, "print per-workload status even when clean (with -infer: the full patch)")
	flag.StringVar(&o.jsonPath, "json", "", "write machine-readable results to this file")
	flag.IntVar(&o.ports, "ports", config.Default8().Fabric.NumPorts,
		"fabric port count for the port-overflow check (0 disables)")
	flag.Int64Var(&o.hintSkew, "hint-skew", 10, "work-hint divergence factor for the hint-skew check")
	flag.BoolVar(&o.infer, "infer", false, "strip annotations, re-infer them, score against hand annotations")
	flag.Float64Var(&o.minFwdPR, "min-fwd-pr", 0, "with -infer: fail if aggregate forward precision or recall drops below this floor")
	flag.Float64Var(&o.minSharedPR, "min-shared-pr", 0, "with -infer: fail if aggregate shared precision or recall drops below this floor")
	flag.Parse()
	o.args = flag.Args()
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "delta-vet: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	builders := workload.Suite()
	if o.workload != "" {
		nb := workload.ByName(o.workload)
		if nb == nil {
			fmt.Fprintf(os.Stderr, "delta-vet: unknown workload %q\n", o.workload)
			os.Exit(2)
		}
		builders = []workload.NamedBuilder{*nb}
	}

	if o.infer {
		os.Exit(runInfer(builders, o.ports, o.minFwdPR, o.minSharedPR, o.verbose, o.jsonPath))
	}
	os.Exit(runVet(builders, analysis.Options{NumPorts: o.ports, HintSkew: o.hintSkew}, o.verbose, o.jsonPath))
}

// ---------------------------------------------------------------------
// Plain vet mode.

// jsonDiag mirrors analysis.Diagnostic for the -json dump.
type jsonDiag struct {
	Code     string `json:"code"`
	Severity string `json:"severity"`
	Task     int    `json:"task"`
	Key      uint64 `json:"key"`
	Type     string `json:"type,omitempty"`
	Phase    int    `json:"phase"`
	Port     int    `json:"port"`
	Message  string `json:"message"`
}

type jsonVetWorkload struct {
	Workload string     `json:"workload"`
	Tasks    int        `json:"tasks"`
	Types    int        `json:"types"`
	Errors   int        `json:"errors"`
	Warnings int        `json:"warnings"`
	Diags    []jsonDiag `json:"diags"`
}

type jsonVet struct {
	Mode      string            `json:"mode"`
	Workloads []jsonVetWorkload `json:"workloads"`
	Errors    int               `json:"errors"`
	Warnings  int               `json:"warnings"`
}

func runVet(builders []workload.NamedBuilder, opts analysis.Options, verbose bool, jsonPath string) int {
	dump := jsonVet{Mode: "vet"}
	total := 0
	for _, nb := range builders {
		w := nb.Build()
		rep := analysis.AnalyzeOpts(w.Prog, opts)
		total += len(rep.Diags)
		dump.Errors += rep.Errors()
		dump.Warnings += rep.Warnings()
		jw := jsonVetWorkload{
			Workload: nb.Name,
			Tasks:    len(w.Prog.Tasks), Types: len(w.Prog.Types),
			Errors: rep.Errors(), Warnings: rep.Warnings(),
			Diags: []jsonDiag{},
		}
		for _, d := range rep.Diags {
			jw.Diags = append(jw.Diags, jsonDiag{
				Code: string(d.Code), Severity: d.Sev.String(),
				Task: d.Task, Key: d.Key, Type: d.Type,
				Phase: d.Phase, Port: d.Port, Message: d.Msg,
			})
		}
		dump.Workloads = append(dump.Workloads, jw)
		if !rep.Empty() {
			fmt.Print(rep.String())
		} else if verbose {
			fmt.Printf("%-12s %4d tasks  %2d types  clean\n",
				nb.Name, len(w.Prog.Tasks), len(w.Prog.Types))
		}
	}
	writeJSON(jsonPath, dump)
	if total > 0 {
		fmt.Printf("delta-vet: %d diagnostic(s) (%d error(s), %d warning(s)) across %d workload(s)\n",
			total, dump.Errors, dump.Warnings, len(builders))
		return 1
	}
	fmt.Printf("delta-vet: all clean (%d workload(s))\n", len(builders))
	return 0
}

// ---------------------------------------------------------------------
// Infer mode: strip → synthesize → vet → score.

type jsonPR struct {
	TP        int     `json:"tp"`
	FP        int     `json:"fp"`
	FN        int     `json:"fn"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
}

func mkJSONPR(c infer.PR) jsonPR {
	return jsonPR{TP: c.TP, FP: c.FP, FN: c.FN, Precision: c.Precision(), Recall: c.Recall()}
}

type jsonAccuracy struct {
	Forwards   jsonPR `json:"forwards"`
	Shared     jsonPR `json:"shared"`
	HintsExact int    `json:"hints_exact"`
	HintsTotal int    `json:"hints_total"`
}

type jsonInferWorkload struct {
	Workload string        `json:"workload"`
	Patch    *infer.Patch  `json:"patch,omitempty"`
	Accuracy *jsonAccuracy `json:"accuracy,omitempty"`
	Error    string        `json:"error,omitempty"`
}

type jsonInfer struct {
	Mode      string              `json:"mode"`
	Workloads []jsonInferWorkload `json:"workloads"`
	Aggregate *jsonAccuracy       `json:"aggregate,omitempty"`
}

func runInfer(builders []workload.NamedBuilder, ports int, minFwdPR, minSharedPR float64, verbose bool, jsonPath string) int {
	iopts := infer.Options{
		NumPorts:  ports,
		PortWidth: config.Default8().Fabric.PortWidth,
	}
	dump := jsonInfer{Mode: "infer"}
	var agg infer.Accuracy
	failed, scored := 0, 0
	for _, nb := range builders {
		w := nb.Build()
		inferred, patch, err := infer.Infer(infer.Strip(w.Prog), iopts)
		jw := jsonInferWorkload{Workload: nb.Name}
		if err != nil {
			failed++
			jw.Error = err.Error()
			dump.Workloads = append(dump.Workloads, jw)
			fmt.Printf("%-12s FAILED: %v\n", nb.Name, err)
			continue
		}
		jw.Patch = patch
		acc, err := infer.Compare(w.Prog, inferred)
		if err != nil {
			failed++
			jw.Error = err.Error()
			dump.Workloads = append(dump.Workloads, jw)
			fmt.Printf("%-12s FAILED: %v\n", nb.Name, err)
			continue
		}
		agg.Add(acc)
		scored++
		ja := jsonAccuracy{
			Forwards: mkJSONPR(acc.Forwards), Shared: mkJSONPR(acc.Shared),
			HintsExact: acc.HintsExact, HintsTotal: acc.HintsTotal,
		}
		jw.Accuracy = &ja
		dump.Workloads = append(dump.Workloads, jw)
		fmt.Printf("%-12s %4d tasks  %s  [fwd P/R %.2f/%.2f  shared P/R %.2f/%.2f  hints %d/%d]\n",
			nb.Name, len(inferred.Tasks), patch.Counts(),
			acc.Forwards.Precision(), acc.Forwards.Recall(),
			acc.Shared.Precision(), acc.Shared.Recall(),
			acc.HintsExact, acc.HintsTotal)
		if verbose {
			fmt.Print(patch.String())
		}
	}
	exit := 0
	if failed > 0 {
		fmt.Printf("delta-vet -infer: %d of %d workload(s) failed to infer\n", failed, len(builders))
		exit = 1
	}
	if scored > 0 {
		ja := jsonAccuracy{
			Forwards: mkJSONPR(agg.Forwards), Shared: mkJSONPR(agg.Shared),
			HintsExact: agg.HintsExact, HintsTotal: agg.HintsTotal,
		}
		dump.Aggregate = &ja
		fmt.Printf("delta-vet -infer: aggregate forward P/R %.3f/%.3f, shared P/R %.3f/%.3f, hints %d/%d exact across %d workload(s)\n",
			ja.Forwards.Precision, ja.Forwards.Recall,
			ja.Shared.Precision, ja.Shared.Recall,
			ja.HintsExact, ja.HintsTotal, scored)
		if ja.Forwards.Precision < minFwdPR || ja.Forwards.Recall < minFwdPR {
			fmt.Printf("delta-vet -infer: forward precision/recall below the %.3f floor\n", minFwdPR)
			exit = 1
		}
		if ja.Shared.Precision < minSharedPR || ja.Shared.Recall < minSharedPR {
			fmt.Printf("delta-vet -infer: shared precision/recall below the %.3f floor\n", minSharedPR)
			exit = 1
		}
	}
	writeJSON(jsonPath, dump)
	return exit
}

// writeJSON dumps v to path (no-op when path is empty); sorted keys
// and stable struct order keep the file deterministic and diffable.
func writeJSON(path string, v any) {
	if path == "" {
		return
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "delta-vet: -json: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "delta-vet: -json: %v\n", err)
		os.Exit(1)
	}
}
