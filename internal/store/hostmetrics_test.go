package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"taskstream/internal/runplan"
	"taskstream/internal/sim"
)

// syncBuffer is a goroutine-safe log sink for access-log assertions.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// promValue extracts the value of an exact series line from a scrape.
func promValue(t *testing.T, scrape, series string) int64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(scrape))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, series+" ") {
			var v int64
			if _, err := fmt.Sscanf(line[len(series)+1:], "%d", &v); err != nil {
				t.Fatalf("unparseable value in %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("scrape has no series %q:\n%s", series, scrape)
	return 0
}

// TestServerMetricsReconcileWithStats is the end-to-end reconciliation
// contract: after a warm pass, /metrics tier counters equal the
// /v1/stats counters — they are the same atomics.
func TestServerMetricsReconcileWithStats(t *testing.T) {
	c, _, _ := newTestService(t)
	ws := wireSpec(t, histSpec())
	for i := 0; i < 3; i++ { // 1 miss + 2 memory hits
		if _, _, err := c.RunWire(ws); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	code, scrape := get(t, c.base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics returned %d", code)
	}
	for series, want := range map[string]int64{
		`runner_resolves_total{tier="miss"}`:   st.Counters.Misses,
		`runner_resolves_total{tier="memory"}`: st.Counters.Hits,
		`runner_resolves_total{tier="disk"}`:   st.Counters.DiskHits,
		`runner_resolves_total{tier="dedup"}`:  st.Counters.Dedups,
		`runner_resolves_total{tier="bypass"}`: st.Counters.Bypasses,
		`runner_memory_entries`:                int64(st.MemoryEntries),
	} {
		if got := promValue(t, scrape, series); got != want {
			t.Errorf("%s = %d, /v1/stats says %d", series, got, want)
		}
	}
	if got := promValue(t, scrape, `runner_resolves_total{tier="miss"}`); got != 1 {
		t.Errorf("miss count = %d, want 1", got)
	}
	if got := promValue(t, scrape, `runner_resolves_total{tier="memory"}`); got != 2 {
		t.Errorf("memory count = %d, want 2", got)
	}
	// The resolve-latency histogram saw every resolution.
	if got := promValue(t, scrape, `runner_resolve_seconds_count{tier="memory"}`); got != 2 {
		t.Errorf("memory latency observations = %d, want 2", got)
	}
	// HTTP request accounting covers the three runs.
	if got := promValue(t, scrape, `http_requests_total{route="/v1/run",code="200"}`); got != 3 {
		t.Errorf("/v1/run request count = %d, want 3", got)
	}
	// Disk gauges are exported when a store is attached.
	if got := promValue(t, scrape, "store_saves"); got != 1 {
		t.Errorf("store_saves = %d, want 1", got)
	}
}

// TestServerHostProfMetrics pins the profiling surface of /metrics:
// one served miss is one metered run whose executed and fast-forwarded
// cycles add up to the served report's cycle count.
func TestServerHostProfMetrics(t *testing.T) {
	t.Cleanup(sim.ResetHostProf)
	sim.ResetHostProf()
	r := runplan.NewRunner()
	r.SetDisabled(false)
	srv := NewServer(r, nil, 1)
	srv.EnableHostProf()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	rep, cached, err := NewClient(ts.URL).RunWire(wireSpec(t, histSpec()))
	if err != nil {
		t.Fatal(err)
	}
	if cached != "miss" {
		t.Fatalf("provenance = %q, want miss", cached)
	}
	code, scrape := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics returned %d", code)
	}
	if got := promValue(t, scrape, "sim_hostprof_runs"); got != 1 {
		t.Fatalf("sim_hostprof_runs = %d, want 1", got)
	}
	executed := promValue(t, scrape, "sim_hostprof_executed_cycles")
	skipped := promValue(t, scrape, "sim_hostprof_skipped_cycles")
	if executed+skipped != rep.Cycles {
		t.Fatalf("executed %d + skipped %d cycles != report's %d", executed, skipped, rep.Cycles)
	}
}

// TestServerMetricsStableAndParseable pins the scrape surface itself:
// two idle scrapes are byte-identical, every histogram's cumulative
// buckets are monotone, unknown paths fold into the "other" route label
// instead of minting new series, and /metrics is the only scrape route.
func TestServerMetricsStableAndParseable(t *testing.T) {
	c, _, _ := newTestService(t)
	if _, _, err := c.RunWire(wireSpec(t, histSpec())); err != nil {
		t.Fatal(err)
	}
	// Scanner probe: must not create a per-path series.
	if code, _ := get(t, c.base+"/../../etc/passwd"); code == 0 {
		t.Fatal("probe request failed")
	}

	_, a := get(t, c.base+"/metrics")
	_, b := get(t, c.base+"/metrics")
	// The second scrape observed the first one's request, so only the
	// http_* series for route="/metrics" may differ; mask them.
	mask := func(s string) string {
		var out []string
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, `route="/metrics"`) {
				continue
			}
			out = append(out, line)
		}
		return strings.Join(out, "\n")
	}
	if mask(a) != mask(b) {
		t.Fatalf("idle scrapes differ beyond self-observation:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, `route="other"`) {
		t.Fatalf("probe path did not fold into route=\"other\":\n%s", a)
	}
	if strings.Contains(a, "etc/passwd") {
		t.Fatalf("probe path leaked into series labels:\n%s", a)
	}

	// Cumulative _bucket lines come in ascending le order, +Inf last,
	// so within one series (the line up to its le label) the counts
	// must never fall.
	buckets := map[string][]int64{}
	for _, line := range strings.Split(a, "\n") {
		le := strings.LastIndex(line, `le="`)
		if !strings.Contains(line, "_bucket{") || le < 0 {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		buckets[line[:le]] = append(buckets[line[:le]], v)
	}
	if len(buckets) == 0 {
		t.Fatalf("scrape has no histogram buckets:\n%s", a)
	}
	for series, counts := range buckets {
		if !slices.IsSorted(counts) {
			t.Fatalf("histogram %s} buckets not monotone: %v", series, counts)
		}
	}

	if code, _ := get(t, c.base+"/debug/vars"); code != http.StatusNotFound {
		t.Fatalf("GET /debug/vars returned %d, want 404", code)
	}

	// Write methods are rejected on the read-only surfaces.
	resp, err := http.Post(c.base+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics returned %d, want 405", resp.StatusCode)
	}
}

// TestServerAccessLog pins the structured per-request log in both
// formats: every line carries the request id, route, status, latency,
// and — for /v1/run — the spec key and provenance.
func TestServerAccessLog(t *testing.T) {
	d := mustOpen(t, t.TempDir(), 0)
	r := runplan.NewRunner()
	r.SetDisabled(false)
	srv := NewServer(r, d, 2)
	var buf syncBuffer
	if err := srv.SetRequestLog(&buf, "json"); err != nil {
		t.Fatal(err)
	}
	if err := srv.SetRequestLog(&buf, "xml"); err == nil {
		t.Fatal("SetRequestLog accepted an unknown format")
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	if _, _, err := c.RunWire(wireSpec(t, histSpec())); err != nil {
		t.Fatal(err)
	}
	get(t, ts.URL+"/v1/stats")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var run struct {
		ID     int64   `json:"id"`
		Method string  `json:"method"`
		Route  string  `json:"route"`
		Status int     `json:"status"`
		Bytes  int64   `json:"bytes"`
		Ms     float64 `json:"ms"`
		Key    string  `json:"key"`
		Cached string  `json:"cached"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &run); err != nil {
		t.Fatalf("json access-log line does not parse: %v\n%s", err, lines[0])
	}
	if run.Method != "POST" || run.Route != "/v1/run" || run.Status != 200 {
		t.Fatalf("run log line wrong: %+v", run)
	}
	if run.Cached != "miss" || run.Key == "" || run.Bytes <= 0 || run.ID == 0 {
		t.Fatalf("run log line missing provenance: %+v", run)
	}

	// Text format: human-readable single line with the same fields.
	if err := srv.SetRequestLog(&buf, "text"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.RunWire(wireSpec(t, histSpec())); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "POST /v1/run 200") || !strings.Contains(out, "cached=memory") {
		t.Fatalf("text access log missing fields:\n%s", out)
	}
}

// TestObsWriterFlushPassthrough pins that the metrics wrapper keeps
// http.Flusher visible — without it, /v1/suite would stop streaming
// per-item.
func TestObsWriterFlushPassthrough(t *testing.T) {
	rec := httptest.NewRecorder()
	var w http.ResponseWriter = &obsWriter{rw: rec, status: 200}
	if _, ok := w.(http.Flusher); !ok {
		t.Fatal("obsWriter does not implement http.Flusher")
	}
	w.(http.Flusher).Flush()
	if !rec.Flushed {
		t.Fatal("Flush did not reach the underlying writer")
	}
	n, err := w.Write([]byte("hello"))
	if err != nil || n != 5 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	ow := w.(*obsWriter)
	if ow.bytes != 5 || ow.status != 200 {
		t.Fatalf("obsWriter accounting wrong: %+v", ow)
	}
}
