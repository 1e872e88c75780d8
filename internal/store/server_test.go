package store

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"taskstream/internal/baseline"
	"taskstream/internal/config"
	"taskstream/internal/runplan"
	"taskstream/internal/workload"
)

// newTestService wires a full service — disk store, fresh runner,
// HTTP server, client — over a temp directory.
func newTestService(t *testing.T) (*Client, *runplan.Runner, *DiskStore) {
	t.Helper()
	d := mustOpen(t, t.TempDir(), 0)
	r := runplan.NewRunner()
	r.SetDisabled(false)
	ts := httptest.NewServer(NewServer(r, d, 4))
	t.Cleanup(ts.Close)
	return NewClient(ts.URL), r, d
}

func wireSpec(t *testing.T, s runplan.Spec) runplan.WireSpec {
	t.Helper()
	w, err := s.Wire()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestServerRunColdWarmDisk(t *testing.T) {
	c, r, _ := newTestService(t)
	ws := wireSpec(t, histSpec())

	cold, cached, err := c.RunWire(ws)
	if err != nil {
		t.Fatal(err)
	}
	if cached != "miss" {
		t.Fatalf("cold request provenance = %q, want miss", cached)
	}
	warm, cached, err := c.RunWire(ws)
	if err != nil {
		t.Fatal(err)
	}
	if cached != "memory" {
		t.Fatalf("warm request provenance = %q, want memory", cached)
	}
	if warm.Cycles != cold.Cycles {
		t.Fatalf("warm answer differs: %d vs %d cycles", warm.Cycles, cold.Cycles)
	}

	// Dropping the in-memory entry simulates a daemon restart over a
	// persistent store: the next request is a disk hit, same answer.
	spec, err := ws.Spec()
	if err != nil {
		t.Fatal(err)
	}
	r.Evict(spec.Key())
	disk, cached, err := c.RunWire(ws)
	if err != nil {
		t.Fatal(err)
	}
	if cached != "disk" {
		t.Fatalf("post-evict provenance = %q, want disk", cached)
	}
	if disk.Cycles != cold.Cycles {
		t.Fatalf("disk answer differs: %d vs %d cycles", disk.Cycles, cold.Cycles)
	}
}

func TestServerRejectsBadSpecs(t *testing.T) {
	c, _, _ := newTestService(t)

	ws := wireSpec(t, histSpec())
	ws.Workload = "no-such-workload"
	if _, _, err := c.RunWire(ws); err == nil {
		t.Fatal("unknown workload accepted")
	}

	ws = wireSpec(t, histSpec())
	ws.Config.Lanes = -3
	if _, _, err := c.RunWire(ws); err == nil {
		t.Fatal("invalid config accepted")
	}

	// Raw HTTP status check: unresolvable spec is the client's fault.
	body, _ := json.Marshal(RunRequest{Spec: runplan.WireSpec{Workload: "nope"}})
	resp, err := http.Post(c.base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unresolvable spec returned HTTP %d, want 400", resp.StatusCode)
	}
}

// TestServerRejectsOversizedBodies pins the request-body bound: a body
// past maxRequestBytes is refused with 413 and a RunResponse error on
// both POST routes, before any spec resolves.
func TestServerRejectsOversizedBodies(t *testing.T) {
	c, r, _ := newTestService(t)
	body := []byte(`{"spec":{"workload":"` + strings.Repeat("a", maxRequestBytes) + `"}}`)
	for _, route := range []string{"/v1/run", "/v1/suite"} {
		resp, err := http.Post(c.base+route, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rr RunResponse
		err = json.NewDecoder(resp.Body).Decode(&rr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body returned HTTP %d, want 413", route, resp.StatusCode)
		}
		if err != nil || rr.Error == "" {
			t.Fatalf("%s: want a RunResponse error, got %+v (decode: %v)", route, rr, err)
		}
	}
	if n := r.Counters().Misses; n != 0 {
		t.Fatalf("oversized requests executed %d simulations", n)
	}
}

func TestServerSuiteStreamAndStats(t *testing.T) {
	c, _, _ := newTestService(t)
	cfg := config.Default8()
	specs := []runplan.WireSpec{
		wireSpec(t, runplan.ForVariant(*workload.ByName("hist"), baseline.Static, cfg)),
		wireSpec(t, runplan.ForVariant(*workload.ByName("hist"), baseline.Delta, cfg)),
		// A duplicate of spec 1: the server must answer it from the
		// same flight or entry, never a second execution.
		wireSpec(t, runplan.ForVariant(*workload.ByName("hist"), baseline.Delta, cfg)),
	}
	cold, cachedCold, err := c.Suite(specs)
	if err != nil {
		t.Fatal(err)
	}
	if cold[1].Cycles != cold[2].Cycles {
		t.Fatalf("duplicate specs answered differently: %d vs %d", cold[1].Cycles, cold[2].Cycles)
	}
	execs := 0
	for _, p := range cachedCold {
		if p == "miss" {
			execs++
		}
	}
	if execs != 2 {
		t.Fatalf("cold 3-spec batch with 1 duplicate executed %d specs (%v), want 2", execs, cachedCold)
	}

	warm, cachedWarm, err := c.Suite(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if warm[i].Cycles != cold[i].Cycles {
			t.Fatalf("warm suite differs at %d: %d vs %d", i, warm[i].Cycles, cold[i].Cycles)
		}
		if cachedWarm[i] != "memory" {
			t.Fatalf("warm suite provenance[%d] = %q, want memory", i, cachedWarm[i])
		}
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Counters.Misses != 2 {
		t.Fatalf("server executed %d specs, want 2", st.Counters.Misses)
	}
	if st.Store == nil || st.Store.Entries != 2 {
		t.Fatalf("store stats = %+v, want 2 entries", st.Store)
	}
	// Warm pass over an already-answered batch: everything cache-served.
	if f := st.CacheServedFraction(); f < 0.5 {
		t.Fatalf("cache-served fraction = %.2f", f)
	}

	// Per-item failures keep the stream alive and fail the batch with
	// an attributed error.
	bad := append([]runplan.WireSpec{}, specs...)
	bad[1].Workload = "no-such-workload"
	if _, _, err := c.Suite(bad); err == nil {
		t.Fatal("batch with a bad spec reported success")
	}
}

// TestServerWarmFractionContract is the in-process version of the CI
// gate: a repeat batch through a warm service is answered ≥95% from
// cache with byte-identical reports.
func TestServerWarmFractionContract(t *testing.T) {
	c, _, _ := newTestService(t)
	cfg := config.Default8()
	var specs []runplan.WireSpec
	for _, name := range []string{"hist", "stencil"} {
		nb := *workload.ByName(name)
		specs = append(specs,
			wireSpec(t, runplan.ForVariant(nb, baseline.Static, cfg)),
			wireSpec(t, runplan.ForVariant(nb, baseline.Delta, cfg)))
	}
	cold, _, err := c.Suite(specs)
	if err != nil {
		t.Fatal(err)
	}
	warm, cachedWarm, err := c.Suite(specs)
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for i := range specs {
		if warm[i].Cycles != cold[i].Cycles {
			t.Fatalf("warm pass differs at %d", i)
		}
		switch cachedWarm[i] {
		case "memory", "disk", "dedup":
			served++
		}
	}
	if frac := float64(served) / float64(len(specs)); frac < 0.95 {
		t.Fatalf("warm pass cache-served fraction %.2f < 0.95 (%v)", frac, cachedWarm)
	}
}

// TestServerDefaultPolicy pins the delta-serve -policy contract: a wire
// spec omitting its policy name resolves under the daemon's default
// (and therefore to that policy's cache key), a spec naming a policy
// keeps it, and an unknown name is the client's fault — HTTP 400.
func TestServerDefaultPolicy(t *testing.T) {
	r := runplan.NewRunner()
	r.SetDisabled(false)
	srv := NewServer(r, mustOpen(t, t.TempDir(), 0), 4)
	srv.SetDefaultPolicy("static")
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	keyFor := func(policy string) string {
		t.Helper()
		ws := wireSpec(t, histSpec())
		ws.Opts.Policy = policy
		spec, err := ws.Spec()
		if err != nil {
			t.Fatal(err)
		}
		return spec.Key()
	}

	omitted := wireSpec(t, histSpec())
	omitted.Opts.Policy = ""
	if got := srv.resolve(omitted); got.Error != "" || got.Key != keyFor("static") {
		t.Fatalf("omitted policy resolved to key %s (err %q), want the static key %s",
			got.Key, got.Error, keyFor("static"))
	}

	explicit := wireSpec(t, histSpec())
	explicit.Opts.Policy = "dynamic"
	if got := srv.resolve(explicit); got.Error != "" || got.Key != keyFor("dynamic") {
		t.Fatalf("explicit policy was overridden: key %s (err %q), want %s",
			got.Key, got.Error, keyFor("dynamic"))
	}

	bad := wireSpec(t, histSpec())
	bad.Opts.Policy = "fifo"
	body, _ := json.Marshal(RunRequest{Spec: bad})
	resp, err := http.Post(c.base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown policy returned HTTP %d, want 400", resp.StatusCode)
	}
}
