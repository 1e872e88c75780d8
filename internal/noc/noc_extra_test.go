package noc

import (
	"testing"

	"taskstream/internal/sim"
)

func TestDeterministicDeliverySequence(t *testing.T) {
	// Two identical runs must deliver identical message sequences.
	runOnce := func() []uint64 {
		m := NewMesh(cfg(), 9)
		for i := uint64(0); i < 30; i++ {
			src := int(i % 9)
			dst := int((i * 7) % 9)
			if dst == src {
				dst = (dst + 1) % 9
			}
			msg := Message{Src: src, Dests: DestMask(dst), Bytes: int(8 + i%64), A: i}
			for !m.TryInject(msg) {
				m.Tick(0)
				for n := 0; n < 9; n++ {
					for {
						if _, ok := m.Pop(n); !ok {
							break
						}
					}
				}
			}
		}
		var order []uint64
		for now := sim.Cycle(0); now < 5000 && !m.Idle(); now++ {
			m.Tick(now)
			for n := 0; n < 9; n++ {
				for {
					msg, ok := m.Pop(n)
					if !ok {
						break
					}
					order = append(order, msg.A)
				}
			}
		}
		return order
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSameSourceDestOrderPreserved(t *testing.T) {
	// Messages between one src-dst pair travel one path: FIFO order.
	m := NewMesh(cfg(), 9)
	for i := uint64(0); i < 8; i++ {
		if !m.TryInject(Message{Src: 0, Dests: DestMask(8), Bytes: 8, A: i}) {
			t.Fatal("inject failed")
		}
	}
	var got []uint64
	for now := sim.Cycle(0); now < 1000 && len(got) < 8; now++ {
		m.Tick(now)
		for {
			msg, ok := m.Pop(8)
			if !ok {
				break
			}
			got = append(got, msg.A)
		}
	}
	for i := range got {
		if got[i] != uint64(i) {
			t.Fatalf("same-pair order broken: %v", got)
		}
	}
}

func TestFlitAccounting(t *testing.T) {
	m := NewMesh(cfg(), 4)
	// 8B payload + 8B header = 16B = 1 flit at 16B/flit; 1 hop.
	m.TryInject(Message{Src: 0, Dests: DestMask(1), Bytes: 8, A: 1})
	for now := sim.Cycle(0); now < 50 && !m.Idle(); now++ {
		m.Tick(now)
		m.Pop(1)
	}
	if m.FlitCycles != 1 {
		t.Fatalf("flit-cycles = %d, want 1 (one flit, one hop)", m.FlitCycles)
	}
	if m.MsgsSent != 1 {
		t.Fatalf("msgs = %d", m.MsgsSent)
	}
}

func TestMeshRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewMesh(%d) must panic", n)
				}
			}()
			NewMesh(cfg(), n)
		}()
	}
}

func TestBroadcastToAll(t *testing.T) {
	// One message to every other node of a 16-node mesh.
	m := NewMesh(cfg(), 16)
	mask := uint64(0)
	for d := 1; d < 16; d++ {
		mask |= DestMask(d)
	}
	m.TryInject(Message{Src: 0, Dests: mask, Bytes: 64, A: 42})
	seen := 0
	for now := sim.Cycle(0); now < 1000 && !m.Idle(); now++ {
		m.Tick(now)
		for n := 1; n < 16; n++ {
			if _, ok := m.Pop(n); ok {
				seen++
			}
		}
	}
	if seen != 15 {
		t.Fatalf("broadcast reached %d/15 nodes", seen)
	}
	// Tree replication: replicas strictly fewer than 14 would be
	// impossible; exactly 15 unicasts' worth of flits would mean no
	// sharing. Replicas recorded must be ≥ 3 (a real tree).
	if m.Replicas < 3 {
		t.Fatalf("replicas = %d; broadcast should branch", m.Replicas)
	}
}
