// delta-serve is the persistent simulation service: an HTTP/JSON
// daemon that accepts runplan Specs and resolves them through the
// memoizing single-flight runner, layered over a disk-backed
// content-addressed store — so a warm daemon answers a repeat suite
// at memory speed, survives restarts with a warm disk cache, and
// charges N concurrent clients asking for the same uncached spec
// exactly one simulation (DESIGN.md §15).
//
// API (see internal/store/protocol.go):
//
//	POST /v1/run   one spec → report + {cached: memory|disk|dedup|miss}
//	GET  /metrics  Prometheus text exposition: runner tiers, store
//	               accounting, sim run meter, HTTP series
//
// Usage:
//
//	delta-serve                          # :8177, ./delta-store, unbounded
//	delta-serve -addr :9000 -store /var/cache/delta -store-max-mb 512
//	delta-serve -store ""                # memory-only (no persistence)
//	delta-bench -server http://localhost:8177   # run the suite through it
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"taskstream/internal/runplan"
	"taskstream/internal/store"
)

// options holds the parsed flag values; validate rejects bad ones
// before the daemon touches the disk store or the network.
type options struct {
	addr       string
	storeDir   string
	storeMaxMB int64
	jobs       int
	logFormat  string
	accessLog  bool
}

// parseFlags binds the flag set over args (without the program name)
// and returns the parsed options. Split from main so tests can drive
// the real flag definitions.
func parseFlags(args []string) (options, error) {
	o := options{}
	fs := flag.NewFlagSet("delta-serve", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8177", "listen address")
	fs.StringVar(&o.storeDir, "store", "delta-store", "disk store directory; empty = memory-only")
	fs.Int64Var(&o.storeMaxMB, "store-max-mb", 0, "disk store size bound in MiB (0 = unbounded)")
	fs.IntVar(&o.jobs, "j", runtime.GOMAXPROCS(0), "max concurrent simulations")
	fs.StringVar(&o.logFormat, "log-format", "text", "access-log format: text or json")
	fs.BoolVar(&o.accessLog, "access-log", true, "log one structured line per request to stderr")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	return o, nil
}

// validate checks every flag value up front so main can exit 1 cleanly
// instead of failing partway through startup.
func (o options) validate() error {
	if o.jobs < 1 {
		return fmt.Errorf("-j must be >= 1 (got %d)", o.jobs)
	}
	if o.storeMaxMB < 0 {
		return fmt.Errorf("-store-max-mb must be >= 0 (got %d)", o.storeMaxMB)
	}
	if o.logFormat != "text" && o.logFormat != "json" {
		return fmt.Errorf("-log-format must be text or json (got %q)", o.logFormat)
	}
	return nil
}

// newHTTPServer wraps handler with the daemon's timeout policy.
// ReadHeaderTimeout and ReadTimeout bound how long a client may dribble
// a request in (the slow-loris guard); IdleTimeout reaps parked
// keep-alive connections. There is deliberately NO WriteTimeout: a
// cold /v1/run answers only when its simulation ends, and a write
// deadline would cut that answer off.
func newHTTPServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "delta-serve: %v\n", err)
		os.Exit(1)
	}

	// The daemon owns its runner rather than sharing the process-wide
	// one: delta-serve is the only spec source in this process, and an
	// isolated runner keeps its /metrics tier counters meaningful.
	runner := runplan.NewRunner()

	var disk *store.DiskStore
	if o.storeDir != "" {
		var err error
		disk, err = store.Open(o.storeDir, o.storeMaxMB<<20)
		if err != nil {
			fmt.Fprintf(os.Stderr, "delta-serve: %v\n", err)
			os.Exit(1)
		}
		st := disk.Stats()
		fmt.Fprintf(os.Stderr, "delta-serve: store %s: %d entries, %d bytes\n",
			o.storeDir, st.Entries, st.Bytes)
	} else {
		fmt.Fprintln(os.Stderr, "delta-serve: memory-only (no -store directory)")
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "delta-serve: %v\n", err)
		os.Exit(1)
	}
	handler := store.NewServer(runner, disk, o.jobs)
	if o.accessLog {
		handler.SetRequestLog(os.Stderr, o.logFormat)
	}
	srv := newHTTPServer(handler)
	fmt.Fprintf(os.Stderr, "delta-serve: listening on %s (-j %d)\n", ln.Addr(), o.jobs)

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		fmt.Fprintf(os.Stderr, "delta-serve: %v\n", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "delta-serve: %v: shutting down (%s)\n", s, runner.Counters())
		srv.Close()
	}
}
