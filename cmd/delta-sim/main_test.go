package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"taskstream/internal/baseline"
	"taskstream/internal/core"
)

// flagCases are the up-front flag validation rows, checked in run's
// order (validatePolicy, then validate): a bad value must produce a
// usage-style error naming the flag, never a panic or a partial run.
var flagCases = []struct {
	name    string
	mutate  func(*options)
	wantErr string // substring of the error; empty = must pass
}{
	{"defaults pass", func(o *options) {}, ""},
	{"static passes", func(o *options) { o.variant = "static" }, ""},
	{"every suite variant passes", func(o *options) { o.variant = "+lb+mc" }, ""},
	{"one lane passes", func(o *options) { o.lanes = 1 }, ""},
	{"noisy hints pass", func(o *options) { o.hints = "noisy" }, ""},
	{"no hints pass", func(o *options) { o.hints = "none" }, ""},
	{"unknown workload", func(o *options) { o.workload = "nope" }, "unknown workload"},
	{"empty workload", func(o *options) { o.workload = "" }, "unknown workload"},
	{"unknown variant", func(o *options) { o.variant = "turbo" }, "unknown variant"},
	{"variant is case-sensitive", func(o *options) { o.variant = "Delta" }, "unknown variant"},
	{"zero lanes", func(o *options) { o.lanes = 0 }, "-lanes"},
	{"negative lanes", func(o *options) { o.lanes = -4 }, "-lanes"},
	{"unknown hint mode", func(o *options) { o.hints = "psychic" }, "unknown hint mode"},
	{"hints are case-sensitive", func(o *options) { o.hints = "Exact" }, "unknown hint mode"},
	{"zero tasks pass", func(o *options) { o.tasks = 0 }, ""},
	{"negative tasks", func(o *options) { o.tasks = -1 }, "-tasks"},
	{"negative trace limit", func(o *options) { o.traceLimit = -1 }, "-trace-limit"},
	{"every policy passes", func(o *options) { o.policy = "pipeline" }, ""},
	{"unknown policy", func(o *options) { o.policy = "fifo" }, "unknown policy"},
	{"policy is case-sensitive", func(o *options) { o.policy = "Dynamic" }, "unknown policy"},
}

// checkFlagCases runs every flagCases row against valid with the row's
// mutation applied.
func checkFlagCases(t *testing.T, valid options) {
	for _, c := range flagCases {
		t.Run(c.name, func(t *testing.T) {
			o := valid
			c.mutate(&o)
			err := o.validatePolicy()
			if err == nil {
				err = o.validate()
			}
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("validate(%+v) = %v, want nil", o, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate(%+v) = nil, want error containing %q", o, c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("validate(%+v) = %q, want substring %q", o, err, c.wantErr)
			}
		})
	}
}

// TestValidateFlags checks the flag rows with every view off.
func TestValidateFlags(t *testing.T) {
	checkFlagCases(t, options{workload: "spmv", variant: "delta", lanes: 8, hints: "exact"})
}

// TestValidateFlagsWithViews checks the same rows with every view on:
// a view flag must neither mask a bad value nor reject a good one.
func TestValidateFlagsWithViews(t *testing.T) {
	checkFlagCases(t, options{workload: "spmv", variant: "delta", lanes: 8, hints: "exact",
		verbose: true, tasks: 3, stalls: true, timeline: true, traceOut: "trace.json", traceLimit: 250000})
}

// TestVariantByNameCoversAllVariants keeps the -variant flag in sync
// with the baseline enum: every declared variant must pass validate by
// its display name and resolve to itself, and an unknown name must
// error.
func TestVariantByNameCoversAllVariants(t *testing.T) {
	valid := options{workload: "spmv", variant: "delta", lanes: 8, hints: "exact"}
	for v := baseline.Static; v < baseline.NumVariants; v++ {
		o := valid
		o.variant = v.String()
		if err := o.validate(); err != nil {
			t.Fatalf("validate with -variant %q: %v", o.variant, err)
		}
		if got, _ := baseline.ParseVariant(o.variant); got != v {
			t.Fatalf("-variant %q resolved to %v", o.variant, got)
		}
	}
	o := valid
	o.variant = "unknown"
	if err := o.validate(); err == nil || !strings.Contains(err.Error(), "unknown variant") {
		t.Fatalf("validate with -variant %q = %v, want an unknown-variant error", o.variant, err)
	}
}

// TestHintModeByName pins the -hints value set and its error message.
func TestHintModeByName(t *testing.T) {
	for _, name := range []string{"exact", "noisy", "none"} {
		if _, err := hintModeByName(name); err != nil {
			t.Fatalf("hintModeByName(%q): %v", name, err)
		}
	}
	if _, err := hintModeByName("fuzzy"); err == nil {
		t.Fatal("unknown hint mode must error")
	}
}

// TestValidatePolicy pins the -policy check: every canonical name and
// the empty default pass; typos are usage errors that validatePolicy
// (run exits 2) catches and validate (exit 1) does not.
func TestValidatePolicy(t *testing.T) {
	for _, name := range append(core.PolicyNames(), "") {
		if err := (options{policy: name}.validatePolicy()); err != nil {
			t.Errorf("validatePolicy(%q) = %v, want nil", name, err)
		}
	}
	err := options{policy: "fifo"}.validatePolicy()
	if err == nil {
		t.Fatal("validatePolicy accepted an unknown policy name")
	}
	if !strings.Contains(err.Error(), "fifo") {
		t.Fatalf("validatePolicy error %q does not name the bad policy", err)
	}
	o := options{workload: "spmv", variant: "delta", lanes: 8, hints: "exact", policy: "fifo"}
	if err := o.validate(); err != nil {
		t.Fatalf("validate rejected the policy too (%v): a bad policy must exit 2, not 1", err)
	}
}

// smallRun is a quick observed-run-sized configuration: hist at four
// lanes under delta, with the flag defaults.
func smallRun() options {
	return options{workload: "hist", variant: "delta", lanes: 4, hints: "exact", vet: true, traceLimit: 250000}
}

// runOut drives run with o and returns what it printed to stdout and
// stderr, failing the test on an error.
func runOut(t *testing.T, o options) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(o, &out, &errOut); err != nil {
		t.Fatalf("run(%+v): %v", o, err)
	}
	return out.String(), errOut.String()
}

// TestRunRejectsBadFlags pins run's usage errors: a bad -tasks value
// exits 1 and a bad -policy exits 2, both before anything prints.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*options)
		code   int
		want   string
	}{
		{"negative tasks", func(o *options) { o.tasks = -2 }, 1, "-tasks"},
		{"unknown policy", func(o *options) { o.policy = "fifo" }, 2, "fifo"},
	} {
		o := smallRun()
		c.mutate(&o)
		var out bytes.Buffer
		err := run(o, &out, &out)
		var ue usageError
		if !errors.As(err, &ue) || ue.code != c.code || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: run = %v, want a usage error with exit code %d naming %q", c.name, err, c.code, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("%s: run printed %q before rejecting the flags", c.name, out.String())
		}
	}
}

// summaryLines are the line prefixes of the run summary, in order.
var summaryLines = []string{"workload=", "cycles ", "tasks run ", "lane imbalance ", "DRAM traffic ",
	"NoC flit-cycles ", "forwarded pairs ", "multicast groups ", "results verified  ok"}

// TestRunSummaryOnly pins the default output: without view flags run
// prints the summary and nothing else, on stdout only.
func TestRunSummaryOnly(t *testing.T) {
	out, errOut := runOut(t, smallRun())
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != len(summaryLines) {
		t.Fatalf("default run printed %d lines, want the %d-line summary:\n%s", len(lines), len(summaryLines), out)
	}
	for i, p := range summaryLines {
		if !strings.HasPrefix(lines[i], p) {
			t.Errorf("summary line %d = %q, want prefix %q", i, lines[i], p)
		}
	}
	if errOut != "" {
		t.Errorf("default run wrote to stderr: %q", errOut)
	}
}

// TestRunViews turns every view on at once and checks that each prints
// from the one run: a single cycles line, the -tasks, -v, -stalls and
// -timeline blocks, and a stall table whose total row plus the idle
// cycles accounts for every lane's every cycle.
func TestRunViews(t *testing.T) {
	o := smallRun()
	o.tasks, o.verbose, o.stalls, o.timeline = 2, true, true, true
	out, _ := runOut(t, o)
	if !strings.HasPrefix(out, "workload=hist variant=delta lanes=4\n") {
		t.Fatalf("views did not follow the summary:\n%s", out)
	}
	var cycles int64 = -1
	var total, idle int64
	var runs, descriptors, busyBars, timelineRows int
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "cycles "):
			runs++
			cycles, _ = strconv.ParseInt(f[1], 10, 64)
		case strings.HasPrefix(line, "task ") && strings.Contains(line, "round-trip ok=true"):
			descriptors++
		case strings.HasPrefix(line, "lane ") && strings.Contains(line, " busy "):
			busyBars++
		case strings.HasPrefix(line, "lane ") && strings.Contains(line, "|"):
			timelineRows++
		case len(f) > 0 && f[0] == "total":
			for _, v := range f[1:] {
				n, _ := strconv.ParseInt(v, 10, 64)
				total += n
			}
		case strings.HasPrefix(line, "obs_lane_cycles_idle="):
			idle, _ = strconv.ParseInt(strings.TrimPrefix(line, "obs_lane_cycles_idle="), 10, 64)
		}
	}
	if runs != 1 {
		t.Fatalf("%d cycles lines, want 1: every view must come from one run\n%s", runs, out)
	}
	for _, want := range []string{"\nall counters:\n", "\nbusy cycles per lane:\n", "\n== hist: task types ==\n", "\ntype 0 ",
		"\n== hist stall attribution (delta, 4 lanes, ", "\nobservability counters:\n", "\ntimeline ("} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if descriptors != 2 || busyBars != 4 || timelineRows != 4 {
		t.Errorf("%d descriptors, %d busy bars, %d timeline rows; want 2, 4, 4:\n%s",
			descriptors, busyBars, timelineRows, out)
	}
	if total+idle != 4*cycles {
		t.Errorf("stall table total %d + idle %d = %d, want lanes × cycles = %d", total, idle, total+idle, 4*cycles)
	}
}

// TestRunTraceOut writes the trace: stdout is the untraced run's, the
// file is trace-event JSON, and the note naming the file goes to
// stderr.
func TestRunTraceOut(t *testing.T) {
	plain, _ := runOut(t, smallRun())
	o := smallRun()
	o.traceOut = filepath.Join(t.TempDir(), "hist.json")
	traced, errOut := runOut(t, o)
	if traced != plain {
		t.Errorf("-trace-out changed stdout:\n%s\nwant:\n%s", traced, plain)
	}
	if !strings.Contains(errOut, "trace events (0 dropped) to "+o.traceOut) {
		t.Errorf("stderr note %q does not name the trace file", errOut)
	}
	b, err := os.ReadFile(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &top); err != nil || len(top.TraceEvents) == 0 {
		t.Fatalf("trace file holds %d events (%v)", len(top.TraceEvents), err)
	}
}
