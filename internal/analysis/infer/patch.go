package infer

import (
	"fmt"
	"strings"
)

// Patch records every annotation Infer added, in the deterministic
// order it was synthesized — a reviewable (and JSON-serializable) diff
// against the unannotated program.
type Patch struct {
	Program  string          `json:"program"`
	Forwards []ForwardChange `json:"forwards"`
	Shared   []SharedChange  `json:"shared"`
	Hints    []HintChange    `json:"hints"`
}

// HintChange is one synthesized work hint.
type HintChange struct {
	Task int    `json:"task"`
	Key  uint64 `json:"key"`
	Hint int64  `json:"hint"`
}

// ForwardChange is one synthesized producer→consumer forward pair.
type ForwardChange struct {
	Tag      uint64 `json:"tag"`
	Producer int    `json:"producer"`
	ProdPort int    `json:"producer_port"`
	Consumer int    `json:"consumer"`
	ConsPort int    `json:"consumer_port"`
	// Base/N is the shared memory-fallback region.
	Base uint64 `json:"base"`
	N    int    `json:"n"`
}

// SharedChange is one synthesized shared-read mark.
type SharedChange struct {
	Task int    `json:"task"`
	Port int    `json:"port"`
	Base uint64 `json:"base"`
	N    int    `json:"n"`
}

// Counts returns a one-line summary of the patch.
func (p *Patch) Counts() string {
	return fmt.Sprintf("%d forward tag(s), %d shared mark(s), %d work hint(s)",
		len(p.Forwards), len(p.Shared), len(p.Hints))
}

// String renders the full patch, one line per change.
func (p *Patch) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", p.Program, p.Counts())
	for _, f := range p.Forwards {
		fmt.Fprintf(&b, "  +forward tag %d: task %d out %d -> task %d in %d  [0x%x, %d elems)\n",
			f.Tag, f.Producer, f.ProdPort, f.Consumer, f.ConsPort, f.Base, f.N)
	}
	for _, s := range p.Shared {
		fmt.Fprintf(&b, "  +shared: task %d in %d  [0x%x, %d elems)\n", s.Task, s.Port, s.Base, s.N)
	}
	for _, h := range p.Hints {
		fmt.Fprintf(&b, "  +hint: task %d (key %d) = %d\n", h.Task, h.Key, h.Hint)
	}
	return b.String()
}
