package store

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"taskstream/internal/baseline"
	"taskstream/internal/config"
	"taskstream/internal/core"
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

	// Raw HTTP status checks: an unresolvable workload, an unknown
	// policy name, an unknown hint mode, a config past its bounds and
	// an option field the spec does not have are the client's fault.
	// The huge DRAM queue is a ~1 KB request that sim.NewQueue would
	// size eagerly at 24 GiB, killing the daemon with a fatal
	// out-of-memory no recover can catch, so config.Validate must
	// refuse it before anything is built. A retired option, or a
	// misspelt max_cycles that would otherwise run under the default
	// 2e9-cycle budget, must not be silently ignored.
	badPolicy := wireSpec(t, histSpec())
	badPolicy.Opts.Policy = "fifo"
	badHints := wireSpec(t, histSpec())
	badHints.Opts.Hints = 200
	hugeQueue := wireSpec(t, histSpec())
	hugeQueue.Config.DRAM.QueueDepth = 1 << 30
	bodies := map[string][]byte{}
	for name, spec := range map[string]runplan.WireSpec{
		"unresolvable workload": {Workload: "nope"},
		"unknown policy":        badPolicy,
		"unknown hint mode":     badHints,
		"huge DRAM queue":       hugeQueue,
	} {
		bodies[name], _ = json.Marshal(RunRequest{Spec: spec})
	}
	valid, _ := json.Marshal(RunRequest{Spec: wireSpec(t, histSpec())})
	for name, field := range map[string]string{
		"retired disable_fast_forward": `"disable_fast_forward":true,`,
		"misspelt max_cycles":          `"max_cycle":1000,`,
	} {
		body := bytes.Replace(valid, []byte(`"opts":{`), []byte(`"opts":{`+field), 1)
		if bytes.Equal(body, valid) {
			t.Fatalf("%s: no opts object in %s", name, valid)
		}
		bodies[name] = body
	}
	for name, body := range bodies {
		resp, err := http.Post(c.base+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s returned HTTP %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestServerDefaultPolicy pins the daemon's policy contract: a wire
// spec omitting its policy name resolves as dynamic (and therefore to
// dynamic's cache key), and a spec naming a policy keeps it.
func TestServerDefaultPolicy(t *testing.T) {
	r := runplan.NewRunner()
	r.SetDisabled(false)
	srv := NewServer(r, mustOpen(t, t.TempDir(), 0), 4)

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
	if keyFor("dynamic") == keyFor("static") {
		t.Fatal("dynamic and static specs share a cache key")
	}

	omitted := wireSpec(t, histSpec())
	omitted.Opts.Policy = ""
	if got := srv.resolve(omitted); got.Error != "" || got.Key != keyFor("dynamic") {
		t.Fatalf("omitted policy resolved to key %s (err %q), want the dynamic key %s",
			got.Key, got.Error, keyFor("dynamic"))
	}

	explicit := wireSpec(t, histSpec())
	explicit.Opts.Policy = "static"
	if got := srv.resolve(explicit); got.Error != "" || got.Key != keyFor("static") {
		t.Fatalf("explicit policy was overridden: key %s (err %q), want %s",
			got.Key, got.Error, keyFor("static"))
	}
}

// TestServerRejectsOversizedBodies pins the request-body bound: a body
// past maxRequestBytes is refused with 413 and a RunResponse error
// before any spec resolves.
func TestServerRejectsOversizedBodies(t *testing.T) {
	c, r, _ := newTestService(t)
	body := []byte(`{"spec":{"workload":"` + strings.Repeat("a", maxRequestBytes) + `"}}`)
	resp, err := http.Post(c.base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rr RunResponse
	err = json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body returned HTTP %d, want 413", resp.StatusCode)
	}
	if err != nil || rr.Error == "" {
		t.Fatalf("want a RunResponse error, got %+v (decode: %v)", rr, err)
	}
	if n := r.Counters().Misses; n != 0 {
		t.Fatalf("oversized request executed %d simulations", n)
	}

	// The bound still admits any real spec with room to spare.
	spec, err := json.Marshal(RunRequest{Spec: wireSpec(t, histSpec())})
	if err != nil {
		t.Fatal(err)
	}
	if len(spec)*100 > maxRequestBytes {
		t.Fatalf("a default-config request is %d B, within 100x of the %d B bound", len(spec), maxRequestBytes)
	}
}

// TestServerConcurrentRunsSingleMiss pins single-flight across /v1/run
// requests: N concurrent clients asking for one uncached spec cost one
// simulation, get byte-identical reports, and leave one store entry.
func TestServerConcurrentRunsSingleMiss(t *testing.T) {
	c, r, d := newTestService(t)
	ws := wireSpec(t, runplan.ForVariant(*workload.ByName("hist"), baseline.Delta, config.Default8()))

	const n = 8
	reps := make([][]byte, n)
	cached := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, src, err := c.RunWire(ws)
			if err == nil {
				reps[i], err = core.EncodeReport(rep)
			}
			cached[i], errs[i] = src, err
		}(i)
	}
	wg.Wait()
	misses := 0
	for i := range errs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(reps[i], reps[0]) {
			t.Fatalf("request %d got a different report than request 0", i)
		}
		switch cached[i] {
		case "miss":
			misses++
		case "dedup", "memory":
		default:
			t.Fatalf("request %d provenance = %q", i, cached[i])
		}
	}
	if misses != 1 {
		t.Fatalf("%d concurrent requests of one spec executed %d times (%v), want 1", n, misses, cached)
	}
	if got := r.Counters().Misses; got != 1 {
		t.Fatalf("runner executed %d specs, want 1", got)
	}
	if st := d.Stats(); st.Entries != 1 || st.Saves != 1 {
		t.Fatalf("store stats = %+v, want 1 entry from 1 save", st)
	}
}

// TestServerWarmFractionContract is the in-process version of the CI
// gate: a repeat pass through a warm service is answered ≥95% from
// cache with the same reports.
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
	cold := make([]int64, len(specs))
	for i, ws := range specs {
		rep, _, err := c.RunWire(ws)
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = rep.Cycles
	}
	served := 0
	var cachedWarm []string
	for i, ws := range specs {
		rep, cached, err := c.RunWire(ws)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cycles != cold[i] {
			t.Fatalf("warm pass differs at %d: %d vs %d cycles", i, rep.Cycles, cold[i])
		}
		cachedWarm = append(cachedWarm, cached)
		switch cached {
		case "memory", "disk", "dedup":
			served++
		}
	}
	if frac := float64(served) / float64(len(specs)); frac < 0.95 {
		t.Fatalf("warm pass cache-served fraction %.2f < 0.95 (%v)", frac, cachedWarm)
	}
}
