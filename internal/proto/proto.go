// Package proto defines the on-chip protocol shared by the stream
// engines, the memory controllers, and the TaskStream coordinator: the
// node topology, the coordinator's multicast fetch request, and the
// request-ID codec that routes responses back to their issuing stream
// context. The NoC payload each message kind carries is documented on
// noc.Message.
package proto

import (
	"fmt"

	"taskstream/internal/mem"
)

// Topology fixes the mapping from architectural entities to NoC nodes.
// Memory-channel controllers are interleaved evenly through the node id
// space (node ids are row-major mesh positions, so even id spacing
// spreads the controllers across the die, as real meshes place them).
// Lanes fill the remaining ids in order.
type Topology struct {
	Lanes    int
	Channels int
}

// Nodes returns the total NoC node count.
func (t Topology) Nodes() int { return t.Lanes + t.Channels }

// MemNode returns the NoC node of memory channel c: channels sit at
// evenly spaced ids so their return traffic does not converge on one
// mesh corner.
func (t Topology) MemNode(c int) int {
	if c < 0 || c >= t.Channels {
		panic(fmt.Sprintf("proto: channel %d out of range", c))
	}
	n := t.Nodes()
	return (2*c + 1) * n / (2 * t.Channels)
}

// LaneNode returns the NoC node of lane i: the i-th id not taken by a
// memory controller.
func (t Topology) LaneNode(i int) int {
	if i < 0 || i >= t.Lanes {
		panic(fmt.Sprintf("proto: lane %d out of range", i))
	}
	seen := 0
	for node := 0; ; node++ {
		if t.isMemNode(node) {
			continue
		}
		if seen == i {
			return node
		}
		seen++
	}
}

func (t Topology) isMemNode(node int) bool {
	for c := 0; c < t.Channels; c++ {
		if t.MemNode(c) == node {
			return true
		}
	}
	return false
}

// McastReq is a coordinator-issued group fetch handed directly to a
// memory controller (the paper's task-management control path).
type McastReq struct {
	Line  mem.Addr
	Group uint64
	Seq   int
	Dests uint64 // lane-node destination mask for the response
}

// Request-ID codec. A ReqID packs (lane, write-flag, port, sequence) so
// that a memory response can be routed back to the exact stream context
// that issued it.
const (
	reqLaneShift = 56
	reqKindShift = 55
	reqPortShift = 47
	reqSeqMask   = (1 << 47) - 1
)

// MakeReqID packs a request identifier.
func MakeReqID(lane int, write bool, port int, seq int64) uint64 {
	w := uint64(0)
	if write {
		w = 1
	}
	return uint64(lane)<<reqLaneShift | w<<reqKindShift |
		uint64(port)<<reqPortShift | (uint64(seq) & reqSeqMask)
}

// SplitReqID unpacks a request identifier.
func SplitReqID(id uint64) (lane int, write bool, port int, seq int64) {
	lane = int(id >> reqLaneShift)
	write = id>>reqKindShift&1 == 1
	port = int(id >> reqPortShift & 0xFF)
	seq = int64(id & reqSeqMask)
	return
}
