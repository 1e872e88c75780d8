package main

import (
	"math"
	"strings"
	"testing"

	"taskstream/internal/config"
)

// TestValidateFlags pins the up-front flag validation: bad values must
// produce a usage-style error naming the flag before any workload is
// built.
func TestValidateFlags(t *testing.T) {
	valid := options{ports: config.Default8().Fabric.NumPorts, hintSkew: 10}
	cases := []struct {
		name    string
		mutate  func(*options)
		wantErr string // substring of the error; empty = must pass
	}{
		{"defaults pass", func(o *options) {}, ""},
		{"zero ports pass", func(o *options) { o.ports = 0 }, ""},
		{"floors with infer pass", func(o *options) { o.infer, o.minFwdPR, o.minSharedPR = true, 0.99, 1 }, ""},
		{"negative ports", func(o *options) { o.ports = -1 }, "-ports"},
		{"zero hint skew", func(o *options) { o.hintSkew = 0 }, "-hint-skew"},
		{"negative hint skew", func(o *options) { o.hintSkew = -3 }, "-hint-skew"},
		{"forward floor below 0", func(o *options) { o.infer, o.minFwdPR = true, -0.1 }, "-min-fwd-pr must be in [0, 1]"},
		{"forward floor above 1", func(o *options) { o.infer, o.minFwdPR = true, 1.5 }, "-min-fwd-pr must be in [0, 1]"},
		{"forward floor NaN", func(o *options) { o.infer, o.minFwdPR = true, math.NaN() }, "-min-fwd-pr must be in [0, 1]"},
		{"shared floor below 0", func(o *options) { o.infer, o.minSharedPR = true, -1 }, "-min-shared-pr must be in [0, 1]"},
		{"shared floor above 1", func(o *options) { o.infer, o.minSharedPR = true, 2 }, "-min-shared-pr must be in [0, 1]"},
		{"shared floor NaN", func(o *options) { o.infer, o.minSharedPR = true, math.NaN() }, "-min-shared-pr must be in [0, 1]"},
		{"forward floor without infer", func(o *options) { o.minFwdPR = 0.5 }, "require -infer"},
		{"shared floor without infer", func(o *options) { o.minSharedPR = 0.5 }, "require -infer"},
		{"stray argument", func(o *options) { o.args = []string{"sort"} }, `unexpected argument "sort"`},
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
