package main

import (
	"runtime"
	"strings"
	"testing"
)

// TestParseFlagsDefaults pins the daemon's documented defaults: port
// 8177, ./delta-store persistence, one simulation per CPU.
func TestParseFlagsDefaults(t *testing.T) {
	o, err := parseFlags(nil)
	if err != nil {
		t.Fatalf("parseFlags(nil): %v", err)
	}
	want := options{addr: ":8177", storeDir: "delta-store", storeMaxMB: 0,
		jobs: runtime.GOMAXPROCS(0), logFormat: "text", accessLog: true}
	if o != want {
		t.Fatalf("parseFlags(nil) = %+v, want %+v", o, want)
	}
	if err := o.validate(); err != nil {
		t.Fatalf("default options must validate: %v", err)
	}
}

// TestParseFlagsPlumbing checks every flag reaches its options field.
func TestParseFlagsPlumbing(t *testing.T) {
	o, err := parseFlags([]string{
		"-addr", ":9000", "-store", "/tmp/ds", "-store-max-mb", "512", "-j", "3",
		"-log-format", "json", "-access-log=false", "-hostprof",
	})
	if err != nil {
		t.Fatalf("parseFlags: %v", err)
	}
	want := options{addr: ":9000", storeDir: "/tmp/ds", storeMaxMB: 512, jobs: 3,
		logFormat: "json", accessLog: false, hostprof: true}
	if o != want {
		t.Fatalf("parseFlags = %+v, want %+v", o, want)
	}
	if _, err := parseFlags([]string{"-no-such-flag"}); err == nil {
		t.Fatal("parseFlags accepted an unknown flag")
	}
}

// TestValidateFlags pins the up-front validation: bad values must
// produce a usage-style error naming the flag, never a partial start.
func TestValidateFlags(t *testing.T) {
	valid := options{addr: ":8177", storeDir: "delta-store", jobs: 1, logFormat: "text"}
	cases := []struct {
		name    string
		mutate  func(*options)
		wantErr string // substring of the error; empty = must pass
	}{
		{"defaults pass", func(o *options) {}, ""},
		{"memory-only passes", func(o *options) { o.storeDir = "" }, ""},
		{"bounded store passes", func(o *options) { o.storeMaxMB = 512 }, ""},
		{"zero jobs", func(o *options) { o.jobs = 0 }, "-j"},
		{"negative jobs", func(o *options) { o.jobs = -2 }, "-j"},
		{"negative store bound", func(o *options) { o.storeMaxMB = -1 }, "-store-max-mb"},
		{"json log format passes", func(o *options) { o.logFormat = "json" }, ""},
		{"unknown log format", func(o *options) { o.logFormat = "xml" }, "-log-format"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := valid
			c.mutate(&o)
			err := o.validate()
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

// TestHTTPServerTimeouts pins the slow-loris guard: header and read
// deadlines plus idle reaping are set, and WriteTimeout is zero — a
// write deadline would sever the long-lived /v1/suite ndjson stream.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(nil)
	if srv.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: slow-loris clients can hold connections open")
	}
	if srv.ReadTimeout <= 0 {
		t.Error("ReadTimeout unset: a dribbled request body is unbounded")
	}
	if srv.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset: parked keep-alive connections are never reaped")
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, must be 0 (suite responses stream for the whole batch)", srv.WriteTimeout)
	}
}
