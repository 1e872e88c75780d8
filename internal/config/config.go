// Package config defines the parameterized machine description shared
// by the Delta accelerator model and the static-parallel baseline. One
// Config fully determines a simulated machine; experiments sweep fields
// of a preset rather than constructing machines ad hoc.
package config

import "fmt"

// Fabric describes one lane's reconfigurable dataflow fabric.
type Fabric struct {
	// Rows and Cols give the FU grid dimensions. A dataflow graph must
	// place into Rows*Cols functional units.
	Rows, Cols int
	// PortWidth is the vector width of each input/output port in
	// elements per cycle; the fabric can consume/produce at most this
	// many elements per port per cycle once pipelined.
	PortWidth int
	// NumPorts is the number of input and of output vector ports.
	NumPorts int
	// ConfigCycles is the cost of switching the fabric to a different
	// task type's configuration (cached-config switch, not a full
	// bitstream load).
	ConfigCycles int
}

// Spad describes a lane's private scratchpad.
type Spad struct {
	// Bytes is the capacity.
	Bytes int
	// Banks is the number of independently addressable banks; one
	// access per bank per cycle.
	Banks int
}

// DRAM describes the shared main-memory system.
type DRAM struct {
	// Channels is the number of independent memory channels; lines are
	// interleaved across channels.
	Channels int
	// LatencyCycles is the fixed access latency from request acceptance
	// to data return (models CAS + controller).
	LatencyCycles int
	// BytesPerCycle is the per-channel data bandwidth.
	BytesPerCycle int
	// LineBytes is the access granularity (one request moves one line).
	LineBytes int
	// QueueDepth bounds per-channel outstanding requests.
	QueueDepth int
}

// NoC describes the on-chip network joining lanes and memory channels.
type NoC struct {
	// FlitBytes is the payload carried by one flit (one link transfer).
	FlitBytes int
	// LinkLatency is the per-hop latency in cycles.
	LinkLatency int
	// VCDepth is the per-input-port buffer depth in flits at each router.
	VCDepth int
}

// TaskHW describes the TaskStream coordinator hardware and the
// execution-model features under test. The three Enable flags map
// one-to-one onto the paper's three mechanisms; the ablation experiment
// toggles them individually.
type TaskHW struct {
	// QueueDepth bounds the per-lane hardware task queue.
	QueueDepth int
	// DispatchPerCycle bounds coordinator dispatches per cycle.
	DispatchPerCycle int
	// CoalesceWindowCycles is how long a shared-read fetch waits for
	// other lanes to join its multicast group.
	CoalesceWindowCycles int
	// EnableWorkAwareLB selects the work-aware least-loaded dispatch
	// policy; when false, dispatch falls back to round-robin.
	EnableWorkAwareLB bool
	// EnableMulticast turns on shared-read coalescing + NoC multicast.
	EnableMulticast bool
	// EnableForwarding turns on pipelined inter-task dependence
	// recovery (producer→consumer element forwarding over the NoC).
	EnableForwarding bool
	// DisablePrefetch turns off next-task read-stream prefetch in the
	// lanes (a datapath feature both execution models share; exposed
	// for the design-choice ablation E13).
	DisablePrefetch bool
}

// Config is a complete machine description.
type Config struct {
	// Lanes is the number of compute lanes.
	Lanes  int
	Fabric Fabric
	Spad   Spad
	DRAM   DRAM
	NoC    NoC
	Task   TaskHW
}

// Default8 returns the reference 8-lane Delta configuration used by the
// headline experiments. The proportions track the class of machine the
// paper evaluates: a multi-lane CGRA with vector-width-4 ports, a
// moderately banked scratchpad, and a memory system that irregular
// workloads can saturate.
func Default8() Config {
	return Config{
		Lanes: 8,
		Fabric: Fabric{
			Rows: 5, Cols: 5,
			PortWidth:    4,
			NumPorts:     4,
			ConfigCycles: 8,
		},
		Spad: Spad{Bytes: 64 << 10, Banks: 8},
		DRAM: DRAM{
			Channels:      4,
			LatencyCycles: 80,
			BytesPerCycle: 16,
			LineBytes:     64,
			QueueDepth:    16,
		},
		NoC: NoC{FlitBytes: 32, LinkLatency: 1, VCDepth: 16},
		Task: TaskHW{
			QueueDepth:           2,
			DispatchPerCycle:     2,
			CoalesceWindowCycles: 32,
			EnableWorkAwareLB:    true,
			EnableMulticast:      true,
			EnableForwarding:     true,
		},
	}
}

// WithLanes returns a copy of c with the lane count replaced; used by
// the scaling experiment.
func (c Config) WithLanes(n int) Config {
	c.Lanes = n
	return c
}

// StaticModel returns a copy of c with every TaskStream mechanism
// disabled — the "equivalent static-parallel design" of the paper. The
// datapath fields are untouched.
func (c Config) StaticModel() Config {
	c.Task.EnableWorkAwareLB = false
	c.Task.EnableMulticast = false
	c.Task.EnableForwarding = false
	return c
}

// Upper bounds on the fields that size an allocation or a per-cycle
// loop. sim.NewQueue and fabric.Map allocate eagerly from these values,
// so without a bound one wire spec (a DRAM.QueueDepth of 2^30, say)
// makes a simulator entry point, and delta-serve behind it, run out of
// memory. Each bound sits far above anything the suite, the experiments
// or the benchmark use — the largest today are E13's queue depth 16,
// E11's coalesce window 512 and E8's 8 DRAM channels. Building a
// 64-node machine with every field at its bound allocates 45 MB (63
// lanes, 1 channel). Lanes and DRAM.Channels are bounded by the mesh
// size when the machine is built.
const (
	// MaxQueueDepth bounds DRAM.QueueDepth, NoC.VCDepth and
	// Task.QueueDepth.
	MaxQueueDepth = 1024
	// MaxSpadBanks bounds Spad.Banks.
	MaxSpadBanks = 256
	// MaxFabricDim bounds Fabric.Rows and Fabric.Cols.
	MaxFabricDim = 64
	// MaxNumPorts bounds Fabric.NumPorts.
	MaxNumPorts = 64
	// MaxPortWidth bounds Fabric.PortWidth.
	MaxPortWidth = 1024
	// MaxDispatchPerCycle bounds Task.DispatchPerCycle.
	MaxDispatchPerCycle = 1024
	// MaxBytes bounds DRAM.LineBytes, DRAM.BytesPerCycle and
	// NoC.FlitBytes.
	MaxBytes = 4096
	// MaxLatencyCycles bounds Fabric.ConfigCycles, DRAM.LatencyCycles,
	// NoC.LinkLatency and Task.CoalesceWindowCycles.
	MaxLatencyCycles = 1 << 16
)

// Validate reports the first structural problem with the configuration,
// or nil. Every simulator entry point validates before building.
func (c Config) Validate() error {
	switch {
	case c.Lanes <= 0:
		return fmt.Errorf("config: Lanes must be positive, got %d", c.Lanes)
	case c.Fabric.Rows <= 0 || c.Fabric.Cols <= 0 || c.Fabric.Rows > MaxFabricDim || c.Fabric.Cols > MaxFabricDim:
		return fmt.Errorf("config: fabric grid %dx%d invalid (each side 1..%d)", c.Fabric.Rows, c.Fabric.Cols, MaxFabricDim)
	case c.Fabric.PortWidth <= 0 || c.Fabric.PortWidth > MaxPortWidth:
		return fmt.Errorf("config: PortWidth must be in 1..%d, got %d", MaxPortWidth, c.Fabric.PortWidth)
	case c.Fabric.NumPorts <= 0 || c.Fabric.NumPorts > MaxNumPorts:
		return fmt.Errorf("config: NumPorts must be in 1..%d, got %d", MaxNumPorts, c.Fabric.NumPorts)
	case c.Fabric.ConfigCycles < 0 || c.Fabric.ConfigCycles > MaxLatencyCycles:
		return fmt.Errorf("config: ConfigCycles must be in 0..%d, got %d", MaxLatencyCycles, c.Fabric.ConfigCycles)
	case c.Spad.Bytes <= 0 || c.Spad.Banks <= 0 || c.Spad.Banks > MaxSpadBanks:
		return fmt.Errorf("config: scratchpad %dB/%d banks invalid (banks 1..%d)", c.Spad.Bytes, c.Spad.Banks, MaxSpadBanks)
	case c.DRAM.Channels <= 0:
		return fmt.Errorf("config: DRAM.Channels must be positive, got %d", c.DRAM.Channels)
	case c.DRAM.LatencyCycles <= 0 || c.DRAM.LatencyCycles > MaxLatencyCycles:
		return fmt.Errorf("config: DRAM.LatencyCycles must be in 1..%d, got %d", MaxLatencyCycles, c.DRAM.LatencyCycles)
	case c.DRAM.BytesPerCycle <= 0 || c.DRAM.BytesPerCycle > MaxBytes:
		return fmt.Errorf("config: DRAM.BytesPerCycle must be in 1..%d, got %d", MaxBytes, c.DRAM.BytesPerCycle)
	case c.DRAM.LineBytes <= 0 || c.DRAM.LineBytes&(c.DRAM.LineBytes-1) != 0 || c.DRAM.LineBytes > MaxBytes:
		return fmt.Errorf("config: DRAM.LineBytes must be a power of two in 1..%d, got %d", MaxBytes, c.DRAM.LineBytes)
	case c.DRAM.QueueDepth <= 0 || c.DRAM.QueueDepth > MaxQueueDepth:
		return fmt.Errorf("config: DRAM.QueueDepth must be in 1..%d, got %d", MaxQueueDepth, c.DRAM.QueueDepth)
	case c.NoC.FlitBytes <= 0 || c.NoC.FlitBytes > MaxBytes:
		return fmt.Errorf("config: NoC.FlitBytes must be in 1..%d, got %d", MaxBytes, c.NoC.FlitBytes)
	case c.NoC.LinkLatency < 0 || c.NoC.LinkLatency > MaxLatencyCycles:
		return fmt.Errorf("config: NoC.LinkLatency must be in 0..%d, got %d", MaxLatencyCycles, c.NoC.LinkLatency)
	case c.NoC.VCDepth <= 0 || c.NoC.VCDepth > MaxQueueDepth:
		return fmt.Errorf("config: NoC.VCDepth must be in 1..%d, got %d", MaxQueueDepth, c.NoC.VCDepth)
	case c.Task.QueueDepth <= 0 || c.Task.QueueDepth > MaxQueueDepth:
		return fmt.Errorf("config: Task.QueueDepth must be in 1..%d, got %d", MaxQueueDepth, c.Task.QueueDepth)
	case c.Task.DispatchPerCycle <= 0 || c.Task.DispatchPerCycle > MaxDispatchPerCycle:
		return fmt.Errorf("config: Task.DispatchPerCycle must be in 1..%d, got %d", MaxDispatchPerCycle, c.Task.DispatchPerCycle)
	case c.Task.CoalesceWindowCycles < 0 || c.Task.CoalesceWindowCycles > MaxLatencyCycles:
		return fmt.Errorf("config: Task.CoalesceWindowCycles must be in 0..%d, got %d", MaxLatencyCycles, c.Task.CoalesceWindowCycles)
	}
	return nil
}
