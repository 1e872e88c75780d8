package main

import (
	"strings"
	"testing"

	"taskstream/internal/baseline"
	"taskstream/internal/core"
)

// TestValidateFlags pins the up-front flag validation: bad values must
// produce a usage-style error naming the flag, never a panic or a
// partial run.
func TestValidateFlags(t *testing.T) {
	valid := options{workload: "spmv", variant: "delta", lanes: 8, hints: "exact"}
	cases := []struct {
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
// the empty default pass; typos are usage errors (main exits 2).
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
}
