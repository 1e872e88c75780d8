package config

import (
	"strings"
	"testing"
)

func TestDefault8Valid(t *testing.T) {
	c := Default8()
	if err := c.Validate(); err != nil {
		t.Fatalf("Default8 invalid: %v", err)
	}
	if c.Lanes != 8 {
		t.Fatalf("Lanes = %d, want 8", c.Lanes)
	}
}

func TestWithLanes(t *testing.T) {
	c := Default8().WithLanes(32)
	if c.Lanes != 32 {
		t.Fatalf("Lanes = %d, want 32", c.Lanes)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("WithLanes(32) invalid: %v", err)
	}
	// Original is unchanged (value semantics).
	if Default8().Lanes != 8 {
		t.Fatal("WithLanes mutated the preset")
	}
}

func TestStaticModelDisablesMechanismsOnly(t *testing.T) {
	d := Default8()
	s := d.StaticModel()
	if s.Task.EnableWorkAwareLB || s.Task.EnableMulticast || s.Task.EnableForwarding {
		t.Fatal("StaticModel left a mechanism enabled")
	}
	// Datapath must be identical — the paper's comparison is model vs
	// model on the same silicon.
	s.Task = d.Task
	if s != d {
		t.Fatal("StaticModel changed datapath fields")
	}
}

func TestValidateCatchesEachField(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		frag string
	}{
		{"lanes", func(c *Config) { c.Lanes = 0 }, "Lanes"},
		{"grid", func(c *Config) { c.Fabric.Rows = -1 }, "grid"},
		{"portwidth", func(c *Config) { c.Fabric.PortWidth = 0 }, "PortWidth"},
		{"numports", func(c *Config) { c.Fabric.NumPorts = 0 }, "NumPorts"},
		{"configcycles", func(c *Config) { c.Fabric.ConfigCycles = -1 }, "ConfigCycles"},
		{"spad", func(c *Config) { c.Spad.Banks = 0 }, "scratchpad"},
		{"channels", func(c *Config) { c.DRAM.Channels = 0 }, "Channels"},
		{"dramlat", func(c *Config) { c.DRAM.LatencyCycles = 0 }, "LatencyCycles"},
		{"drambw", func(c *Config) { c.DRAM.BytesPerCycle = 0 }, "BytesPerCycle"},
		{"linepow2", func(c *Config) { c.DRAM.LineBytes = 48 }, "power of two"},
		{"dramq", func(c *Config) { c.DRAM.QueueDepth = 0 }, "QueueDepth"},
		{"flit", func(c *Config) { c.NoC.FlitBytes = 0 }, "FlitBytes"},
		{"linklat", func(c *Config) { c.NoC.LinkLatency = -1 }, "LinkLatency"},
		{"vcdepth", func(c *Config) { c.NoC.VCDepth = 0 }, "VCDepth"},
		{"taskq", func(c *Config) { c.Task.QueueDepth = 0 }, "Task.QueueDepth"},
		{"dispatch", func(c *Config) { c.Task.DispatchPerCycle = 0 }, "DispatchPerCycle"},
		{"window", func(c *Config) { c.Task.CoalesceWindowCycles = -1 }, "CoalesceWindow"},
		// Upper bounds: every field that sizes an allocation or a
		// per-cycle loop, one past its bound.
		{"rows-max", func(c *Config) { c.Fabric.Rows = MaxFabricDim + 1 }, "grid"},
		{"cols-max", func(c *Config) { c.Fabric.Cols = MaxFabricDim + 1 }, "grid"},
		{"portwidth-max", func(c *Config) { c.Fabric.PortWidth = MaxPortWidth + 1 }, "PortWidth"},
		{"numports-max", func(c *Config) { c.Fabric.NumPorts = MaxNumPorts + 1 }, "NumPorts"},
		{"configcycles-max", func(c *Config) { c.Fabric.ConfigCycles = MaxLatencyCycles + 1 }, "ConfigCycles"},
		{"banks-max", func(c *Config) { c.Spad.Banks = MaxSpadBanks + 1 }, "scratchpad"},
		{"dramlat-max", func(c *Config) { c.DRAM.LatencyCycles = MaxLatencyCycles + 1 }, "LatencyCycles"},
		{"drambw-max", func(c *Config) { c.DRAM.BytesPerCycle = MaxBytes + 1 }, "BytesPerCycle"},
		{"line-max", func(c *Config) { c.DRAM.LineBytes = 2 * MaxBytes }, "LineBytes"},
		{"dramq-max", func(c *Config) { c.DRAM.QueueDepth = MaxQueueDepth + 1 }, "DRAM.QueueDepth"},
		{"flit-max", func(c *Config) { c.NoC.FlitBytes = MaxBytes + 1 }, "FlitBytes"},
		{"linklat-max", func(c *Config) { c.NoC.LinkLatency = MaxLatencyCycles + 1 }, "LinkLatency"},
		{"vcdepth-max", func(c *Config) { c.NoC.VCDepth = MaxQueueDepth + 1 }, "VCDepth"},
		{"taskq-max", func(c *Config) { c.Task.QueueDepth = MaxQueueDepth + 1 }, "Task.QueueDepth"},
		{"dispatch-max", func(c *Config) { c.Task.DispatchPerCycle = MaxDispatchPerCycle + 1 }, "DispatchPerCycle"},
		{"window-max", func(c *Config) { c.Task.CoalesceWindowCycles = MaxLatencyCycles + 1 }, "CoalesceWindow"},
	}
	for _, tc := range cases {
		c := Default8()
		tc.mut(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.frag)
		}
	}
}

// TestValidateAcceptsBounds pins that each bound is inclusive: a
// config with every bounded field at its bound validates.
func TestValidateAcceptsBounds(t *testing.T) {
	c := Default8()
	c.Fabric.Rows, c.Fabric.Cols = MaxFabricDim, MaxFabricDim
	c.Fabric.PortWidth, c.Fabric.NumPorts = MaxPortWidth, MaxNumPorts
	c.Fabric.ConfigCycles = MaxLatencyCycles
	c.Spad.Banks = MaxSpadBanks
	c.DRAM.LatencyCycles, c.DRAM.BytesPerCycle, c.DRAM.LineBytes = MaxLatencyCycles, MaxBytes, MaxBytes
	c.DRAM.QueueDepth = MaxQueueDepth
	c.NoC.FlitBytes, c.NoC.LinkLatency, c.NoC.VCDepth = MaxBytes, MaxLatencyCycles, MaxQueueDepth
	c.Task.QueueDepth, c.Task.DispatchPerCycle = MaxQueueDepth, MaxDispatchPerCycle
	c.Task.CoalesceWindowCycles = MaxLatencyCycles
	if err := c.Validate(); err != nil {
		t.Fatalf("config at every bound rejected: %v", err)
	}
}
