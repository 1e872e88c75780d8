package core

import (
	"strings"
	"testing"

	"taskstream/internal/obs"
	"taskstream/internal/stats"
)

func TestOptionsCacheKeyNormalization(t *testing.T) {
	base := Options{Policy: PolicyDynamic, Vet: true}
	if !base.Cacheable() {
		t.Fatal("untraced options must be cacheable")
	}

	traced := base
	traced.Obs = obs.New(8)
	if traced.Cacheable() {
		t.Fatal("observed options must not be cacheable")
	}
	if traced.CacheKey() != base.CacheKey() {
		t.Error("obs sink reached the cache key")
	}
	if traced.Normalized().Obs != nil {
		t.Error("Normalized kept the obs sink")
	}

	neg := base
	neg.MaxCycles = -5
	if neg.CacheKey() != base.CacheKey() {
		t.Error("negative MaxCycles (= engine default) keyed differently from zero")
	}
	capped := base
	capped.MaxCycles = 1000
	if capped.CacheKey() == base.CacheKey() {
		t.Error("explicit MaxCycles did not reach the cache key")
	}

	// Every result-determining field must reach the key.
	for name, mut := range map[string]func(*Options){
		"Policy":             func(o *Options) { o.Policy = PolicyStatic },
		"Hints":              func(o *Options) { o.Hints = HintNoisy },
		"Vet":                func(o *Options) { o.Vet = false },
		"DisableFastForward": func(o *Options) { o.DisableFastForward = true },
	} {
		o := base
		mut(&o)
		if o.CacheKey() == base.CacheKey() {
			t.Errorf("perturbing %s did not change CacheKey()", name)
		}
	}
	// The policy is keyed by name, so renumbering the enum can never
	// alias a stored result.
	if !strings.HasPrefix(base.CacheKey(), "Policy=dynamic;") {
		t.Errorf("CacheKey %q does not key the policy by name", base.CacheKey())
	}
	pipe := base
	pipe.Policy = PolicyPipeline
	if !strings.HasPrefix(pipe.CacheKey(), "Policy=pipeline;") {
		t.Errorf("CacheKey %q does not key the policy by name", pipe.CacheKey())
	}
}

func TestReportClone(t *testing.T) {
	s := stats.NewSet()
	s.SetVal("cycles", 42)
	s.SetVal("tasks_run", 7)
	orig := Report{Cycles: 42, LaneBusy: []int64{10, 20}, Stats: s}
	c := orig.Clone()

	c.LaneBusy[0] = -1
	c.Stats.SetVal("cycles", -1)
	c.Stats.SetVal("new_counter", 1)
	if orig.LaneBusy[0] != 10 {
		t.Error("clone aliases LaneBusy")
	}
	if orig.Stats.Get("cycles") != 42 || orig.Stats.Get("new_counter") != 0 {
		t.Error("clone aliases Stats")
	}
	if len(orig.Stats.Names()) != 2 {
		t.Errorf("original stats names mutated: %v", orig.Stats.Names())
	}

	// Zero reports (the error path) must clone without panicking.
	var zero Report
	if z := zero.Clone(); z.Stats != nil || z.LaneBusy != nil {
		t.Errorf("zero report cloned to non-zero: %+v", z)
	}
}
