package runplan_test

import (
	"encoding/json"
	"testing"

	"taskstream/internal/baseline"
	"taskstream/internal/config"
	"taskstream/internal/core"
	"taskstream/internal/obs"
	"taskstream/internal/runplan"
	"taskstream/internal/workload"

	// Extends the workload name grammar with "+inferred", which E15's
	// wire specs need.
	_ "taskstream/internal/analysis/infer"
)

// roundTrip pushes a spec through Wire → JSON → WireSpec → Spec and
// fails unless the reconstructed spec has the identical content
// address (the property that makes remote resolution transparent to
// the cache).
func roundTrip(t *testing.T, s runplan.Spec) runplan.Spec {
	t.Helper()
	w, err := s.Wire()
	if err != nil {
		t.Fatalf("%s: Wire: %v", s.Workload.Name, err)
	}
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var w2 runplan.WireSpec
	if err := json.Unmarshal(b, &w2); err != nil {
		t.Fatal(err)
	}
	s2, err := w2.Spec()
	if err != nil {
		t.Fatalf("%s: WireSpec.Spec: %v", s.Workload.Name, err)
	}
	if s2.Key() != s.Key() {
		t.Fatalf("wire round-trip changed the content address:\n  %s\n  %s", s.Key(), s2.Key())
	}
	return s2
}

func TestWireRoundTripSuite(t *testing.T) {
	cfg := config.Default8()
	for _, nb := range workload.Suite() {
		roundTrip(t, runplan.ForVariant(nb, baseline.Static, cfg))
		roundTrip(t, runplan.ForVariant(nb, baseline.Delta, cfg))
	}
}

func TestWireRoundTripParameterizedNames(t *testing.T) {
	cfg := config.Default8().WithLanes(16)
	grain, err := workload.Resolve("spmv-g64")
	if err != nil {
		t.Fatal(err)
	}
	s2 := roundTrip(t, runplan.ForVariant(grain, baseline.Delta, cfg))
	if s2.Config.Lanes != 16 {
		t.Fatalf("config lost in transit: lanes = %d", s2.Config.Lanes)
	}

	inferred, err := workload.Resolve("hist+inferred")
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, runplan.ForVariant(inferred, baseline.Delta, cfg))
}

func TestWireRejectsUncacheable(t *testing.T) {
	s := runplan.ForVariant(*workload.ByName("hist"), baseline.Delta, config.Default8())
	s.Opts.Obs = obs.New(0)
	if _, err := s.Wire(); err == nil {
		t.Fatal("observed spec crossed the wire")
	}
}

func TestWireSpecRejectsBadInputs(t *testing.T) {
	good, err := runplan.ForVariant(*workload.ByName("hist"), baseline.Delta, config.Default8()).Wire()
	if err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Workload = "no-such-workload"
	if _, err := bad.Spec(); err == nil {
		t.Error("unknown workload name resolved")
	}
	bad = good
	bad.Config.Lanes = 0
	if _, err := bad.Spec(); err == nil {
		t.Error("invalid config accepted")
	}
	bad = good
	bad.Opts.Hints = 200
	if _, err := bad.Spec(); err == nil {
		t.Error("unknown hint mode accepted")
	}
}

// TestWirePolicyRoundTrip pins that the policy crosses the wire by its
// canonical name: every policy survives the round-trip with its content
// address intact, an omitted name means dynamic, and an unknown name is
// rejected before anything executes.
func TestWirePolicyRoundTrip(t *testing.T) {
	cfg := config.Default8()
	nb := *workload.ByName("hist")
	for p := core.Policy(0); p < core.NumPolicies; p++ {
		s := runplan.ForVariant(nb, baseline.Delta, cfg)
		s.Opts.Policy = p
		s2 := roundTrip(t, s)
		if s2.Opts.Policy != p {
			t.Errorf("policy %s arrived as %s", p, s2.Opts.Policy)
		}
	}

	w, err := runplan.ForVariant(nb, baseline.Delta, cfg).Wire()
	if err != nil {
		t.Fatal(err)
	}
	w.Opts.Policy = ""
	s, err := w.Spec()
	if err != nil {
		t.Fatalf("empty policy name rejected: %v", err)
	}
	if s.Opts.Policy != core.PolicyDynamic {
		t.Fatalf("empty policy name resolved to %s, want dynamic", s.Opts.Policy)
	}

	w.Opts.Policy = "fifo"
	if _, err := w.Spec(); err == nil {
		t.Fatal("unknown policy name resolved")
	}
}
