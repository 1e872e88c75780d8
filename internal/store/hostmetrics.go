package store

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"taskstream/internal/sim"
)

// Host-side observability for the delta-serve surface (DESIGN.md §18):
// every request is counted, timed, and sized into the server's hostobs
// registry and optionally logged one structured line per request.
// GET /metrics (Prometheus text) is the daemon's only read surface: it
// exports those HTTP series beside the runner's tier counters, the
// disk store's accounting and the sim run meter. All of it observes
// the host process only — cache keys, reports, and simulation results
// are untouched.

const (
	helpHTTPReqs  = "HTTP requests served, by route and status code."
	helpHTTPLat   = "Wall-clock HTTP request latency, by route."
	helpHTTPBytes = "HTTP response body bytes written, by route."
)

// knownRoutes is the fixed label set for per-route metrics; anything
// else collapses into "other" so an unauthenticated scanner cannot
// inflate series cardinality.
var knownRoutes = map[string]bool{
	"/v1/run":  true,
	"/metrics": true,
}

func routeLabel(path string) string {
	if knownRoutes[path] {
		return path
	}
	return "other"
}

// reqInfo rides the request context so handlers can attach provenance
// (spec key, cache tier) for the access log without widening handler
// signatures.
type reqInfo struct {
	id     int64
	key    string
	cached string
}

type reqInfoKey struct{}

func infoFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// obsWriter measures a response as it is written: final status code
// and body bytes.
type obsWriter struct {
	rw     http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

func (o *obsWriter) Header() http.Header { return o.rw.Header() }

func (o *obsWriter) WriteHeader(code int) {
	if !o.wrote {
		o.status = code
		o.wrote = true
	}
	o.rw.WriteHeader(code)
}

func (o *obsWriter) Write(b []byte) (int, error) {
	o.wrote = true
	n, err := o.rw.Write(b)
	o.bytes += int64(n)
	return n, err
}

// observe is the middleware around the mux: count, time, and size the
// request, then emit the access-log line.
func (s *Server) observe(w http.ResponseWriter, r *http.Request) {
	route := routeLabel(r.URL.Path)
	ri := &reqInfo{id: s.reqSeq.Add(1)}
	ow := &obsWriter{rw: w, status: http.StatusOK}
	t0 := time.Now()
	s.mux.ServeHTTP(ow, r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, ri)))
	d := time.Since(t0)

	s.host.Counter("http_requests_total", helpHTTPReqs,
		"route", route, "code", strconv.Itoa(ow.status)).Inc()
	s.host.Histogram("http_request_seconds", helpHTTPLat, "route", route).Observe(d)
	s.host.Counter("http_response_bytes_total", helpHTTPBytes, "route", route).Add(ow.bytes)
	s.logRequest(ri, r.Method, route, ow.status, ow.bytes, d)
}

// SetRequestLog directs one structured line per completed request to
// w: format "text" (default) for a human-readable line, "json" for a
// machine-parseable object per line. A nil writer disables logging.
func (s *Server) SetRequestLog(w io.Writer, format string) error {
	var jsonFmt bool
	switch format {
	case "", "text":
	case "json":
		jsonFmt = true
	default:
		return fmt.Errorf("unknown log format %q (want text or json)", format)
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.logW = w
	s.logJSON = jsonFmt
	return nil
}

func (s *Server) logRequest(ri *reqInfo, method, route string, status int, bytes int64, d time.Duration) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.logW == nil {
		return
	}
	ms := float64(d.Nanoseconds()) / 1e6
	ts := time.Now().UTC().Format(time.RFC3339Nano)
	if s.logJSON {
		// Hand-rendered so field order is stable; key and cached are the
		// only variable-content strings and both are %q-escaped.
		fmt.Fprintf(s.logW,
			`{"time":%q,"id":%d,"method":%q,"route":%q,"status":%d,"bytes":%d,"ms":%.3f`,
			ts, ri.id, method, route, status, bytes, ms)
		if ri.key != "" {
			fmt.Fprintf(s.logW, `,"key":%q,"cached":%q`, ri.key, ri.cached)
		}
		fmt.Fprintln(s.logW, "}")
		return
	}
	line := fmt.Sprintf("%s req=%d %s %s %d %dB %.3fms", ts, ri.id, method, route, status, bytes, ms)
	if ri.key != "" {
		line += fmt.Sprintf(" cached=%s key=%s", ri.cached, ri.key)
	}
	fmt.Fprintln(s.logW, line)
}

// instrumentHostProf exports the process-wide sim run meter as
// gauges, so a /metrics scrape shows how many simulations ran, how
// many of their cycles were executed versus fast-forwarded, how many
// component ticks the executed cycles held, and the wall time spent
// inside them.
func (s *Server) instrumentHostProf() {
	snap := func(f func(sim.HostProf) int64) func() int64 {
		return func() int64 { return f(sim.HostProfSnapshot()) }
	}
	s.host.GaugeFunc("sim_hostprof_runs", "Engine runs completed.",
		snap(func(p sim.HostProf) int64 { return p.Runs }))
	s.host.GaugeFunc("sim_hostprof_executed_cycles", "Simulated cycles ticked one by one.",
		snap(func(p sim.HostProf) int64 { return p.ExecutedCycles }))
	s.host.GaugeFunc("sim_hostprof_skipped_cycles", "Simulated cycles fast-forwarded.",
		snap(func(p sim.HostProf) int64 { return p.SkippedCycles }))
	s.host.GaugeFunc("sim_hostprof_ticks", "Component ticks in executed cycles.",
		snap(func(p sim.HostProf) int64 { return p.Ticks }))
	s.host.GaugeFunc("sim_hostprof_total_ns", "Wall nanoseconds inside engine runs.",
		snap(func(p sim.HostProf) int64 { return p.TotalNS }))
}

// handleMetrics implements GET /metrics: the Prometheus text
// exposition of every registered series, deterministically ordered.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.host.WritePrometheus(w)
}

// instrumentDisk exports the disk store's stats as function gauges.
// They are snapshots of mutex-guarded tallies, so gauges (not
// counters) even for the monotone ones — one scrape takes the store
// mutex once per series, which is noise at scrape rates.
func (s *Server) instrumentDisk() {
	stat := func(f func(StoreStats) int64) func() int64 {
		return func() int64 { return f(s.disk.Stats()) }
	}
	s.host.GaugeFunc("store_entries", "Entries resident in the disk store.",
		stat(func(st StoreStats) int64 { return int64(st.Entries) }))
	s.host.GaugeFunc("store_bytes", "Bytes resident in the disk store.",
		stat(func(st StoreStats) int64 { return st.Bytes }))
	s.host.GaugeFunc("store_max_bytes", "Disk store size bound (0 = unbounded).",
		stat(func(st StoreStats) int64 { return st.MaxBytes }))
	s.host.GaugeFunc("store_loads", "Disk store load attempts.",
		stat(func(st StoreStats) int64 { return st.Loads }))
	s.host.GaugeFunc("store_load_hits", "Disk store loads that hit.",
		stat(func(st StoreStats) int64 { return st.LoadHits }))
	s.host.GaugeFunc("store_corrupt", "Disk store entries rejected by integrity check.",
		stat(func(st StoreStats) int64 { return st.Corrupt }))
	s.host.GaugeFunc("store_saves", "Disk store saves.",
		stat(func(st StoreStats) int64 { return st.Saves }))
	s.host.GaugeFunc("store_evictions", "Disk store LRU evictions.",
		stat(func(st StoreStats) int64 { return st.Evictions }))
}
