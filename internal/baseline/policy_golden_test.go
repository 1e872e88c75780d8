package baseline

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"taskstream/internal/config"
	"taskstream/internal/core"
	"taskstream/internal/obs"
	"taskstream/internal/workload"
)

// The committed testdata files hold the canonical report encoding of
// every suite workload under the dynamic and static policies, captured
// before dispatch was first restructured (DESIGN.md §17). Dispatch has
// since moved behind a plugin interface and back into the coordinator;
// these tests pin that neither move changed anything observable: the
// coordinator must reproduce the files byte for byte, whether its
// components sleep between events or are ticked every cycle.

// readGolden parses testdata/<name>: one "<workload> <report-json>"
// line per suite workload.
func readGolden(t *testing.T, name string) map[string][]byte {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	defer f.Close()
	out := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		sp := bytes.IndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("golden file %s: malformed line %q", name, line)
		}
		out[string(line[:sp])] = append([]byte(nil), line[sp+1:]...)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("golden file %s: %v", name, err)
	}
	return out
}

// goldenVariants are the execution strategies that must all reproduce
// the committed pre-refactor bytes: plain, where components sleep
// between events, and with a one-event obs sink attached, which ticks
// every component every cycle (the §11 contract says the strategy
// never changes the result).
var goldenVariants = []struct {
	name string
	mut  func(*core.Options)
}{
	{"base", nil},
	{"noff", func(o *core.Options) { o.Obs = obs.New(1) }},
}

func testPolicyGolden(t *testing.T, variant Variant, goldenFile string) {
	golden := readGolden(t, goldenFile)
	for _, nb := range workload.Suite() {
		want, ok := golden[nb.Name]
		if !ok {
			t.Fatalf("golden file %s is missing workload %s", goldenFile, nb.Name)
		}
		nb := nb
		t.Run(nb.Name, func(t *testing.T) {
			for _, gv := range goldenVariants {
				w := nb.Build()
				cfg, opts := variant.Configure(config.Default8())
				if gv.mut != nil {
					gv.mut(&opts)
				}
				rep, err := RunCfg(cfg, opts, w.Prog, w.Storage)
				if err != nil {
					t.Fatalf("%s: %v", gv.name, err)
				}
				if err := w.Verify(); err != nil {
					t.Fatalf("%s: wrong result: %v", gv.name, err)
				}
				enc, err := core.EncodeReport(rep)
				if err != nil {
					t.Fatalf("%s: encode: %v", gv.name, err)
				}
				if !bytes.Equal(enc, want) {
					t.Errorf("%s: report diverged from pre-refactor golden\ngot:  %s\nwant: %s",
						gv.name, enc, want)
				}
			}
		})
	}
}

// TestDefaultPolicyGoldenSuite: the dynamic policy is byte-identical
// to the pre-refactor coordinator on the full suite.
func TestDefaultPolicyGoldenSuite(t *testing.T) {
	testPolicyGolden(t, Delta, "default_policy_golden.txt")
}

// TestStaticPolicyGoldenSuite: same pin for the static comparator.
func TestStaticPolicyGoldenSuite(t *testing.T) {
	testPolicyGolden(t, Static, "static_policy_golden.txt")
}

// TestNewPolicySuiteIdentity extends the §11 fast-forwarding contract
// to the pipeline policy: its runs must also be byte-identical with
// fast-forwarding off, and must still verify.
func TestNewPolicySuiteIdentity(t *testing.T) {
	for _, policy := range []core.Policy{core.PolicyPipeline} {
		for _, name := range []string{"spmv", "sort", "join", "kmeans"} {
			nb := workload.ByName(name)
			if nb == nil {
				t.Fatalf("suite workload %q missing", name)
			}
			t.Run(fmt.Sprintf("%s/%s", policy, name), func(t *testing.T) {
				var base []byte
				for _, gv := range goldenVariants {
					w := nb.Build()
					cfg, opts := Delta.Configure(config.Default8())
					opts.Policy = policy
					if gv.mut != nil {
						gv.mut(&opts)
					}
					rep, err := RunCfg(cfg, opts, w.Prog, w.Storage)
					if err != nil {
						t.Fatalf("%s: %v", gv.name, err)
					}
					if err := w.Verify(); err != nil {
						t.Fatalf("%s: wrong result: %v", gv.name, err)
					}
					enc, err := core.EncodeReport(rep)
					if err != nil {
						t.Fatalf("%s: encode: %v", gv.name, err)
					}
					if base == nil {
						base = enc
					} else if !bytes.Equal(base, enc) {
						t.Errorf("%s: report diverged from base run\nbase: %s\ngot:  %s",
							gv.name, base, enc)
					}
				}
			})
		}
	}
}

// TestPipelinePolicyLaneSweep pins the claim the pipeline policy keeps
// (DESIGN.md §17): consumer-anchored forward-group placement runs sort
// in fewer cycles than dynamic at 4, 8 and 16 lanes, with verified
// results.
func TestPipelinePolicyLaneSweep(t *testing.T) {
	nb := workload.ByName("sort")
	for _, lanes := range []int{4, 8, 16} {
		t.Run(fmt.Sprintf("lanes%d", lanes), func(t *testing.T) {
			var cycles [core.NumPolicies]int64
			for _, policy := range []core.Policy{core.PolicyDynamic, core.PolicyPipeline} {
				w := nb.Build()
				cfg, opts := Delta.Configure(config.Default8().WithLanes(lanes))
				opts.Policy = policy
				rep, err := RunCfg(cfg, opts, w.Prog, w.Storage)
				if err != nil {
					t.Fatalf("%s: %v", policy, err)
				}
				if err := w.Verify(); err != nil {
					t.Fatalf("%s: wrong result: %v", policy, err)
				}
				cycles[policy] = rep.Cycles
			}
			if dyn, pipe := cycles[core.PolicyDynamic], cycles[core.PolicyPipeline]; pipe >= dyn {
				t.Errorf("sort at %d lanes: pipeline %d cycles, dynamic %d; want pipeline faster",
					lanes, pipe, dyn)
			}
		})
	}
}
