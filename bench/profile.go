package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// profileShares accumulates CPU profile samples by the simulator layer
// they were spent in. A sample belongs to the innermost frame of the
// repository's code, so time in the runtime's allocator, in sort or in
// sync counts against the layer that called it. Exceptions: any stack
// doing garbage collection work counts as runtime.gc, and a stack that
// reaches the network or an encoder before any repository frame counts
// there.
type profileShares map[string]int64

// profCategories lists every prof.* metric, in report order.
var profCategories = []string{
	"noc", "core.coordinator", "core.lane", "core.memctrl", "core.other",
	"stream", "mem", "sim", "fabric", "proto", "workload", "analysis", "obs",
	"runplan", "store", "harness", "bench", "net", "encoding",
	"runtime.gc", "runtime.other", "other",
}

// packageCategory maps internal packages to their category; packages
// not listed fall into "other".
var packageCategory = map[string]string{
	"noc": "noc", "stream": "stream", "mem": "mem", "sim": "sim",
	"fabric": "fabric", "proto": "proto", "workload": "workload",
	"analysis": "analysis", "analysis/infer": "analysis", "obs": "obs",
	"runplan": "runplan", "store": "store",
	"experiments": "harness", "parallel": "harness", "baseline": "harness",
	"stats": "harness", "config": "harness", "hostobs": "harness",
}

// frame is one (possibly inlined) function in a sampled stack.
type frame struct{ fn, file string }

// category classifies one sampled stack, innermost frame first.
func category(stack []frame) string {
	for _, f := range stack {
		if isGC(f.fn) {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		pkg := funcPackage(f.fn)
		switch {
		case pkg == "main":
			return "bench"
		case pkg == "taskstream/internal/core":
			return coreCategory(f)
		case strings.HasPrefix(pkg, "taskstream/internal/"):
			if c, ok := packageCategory[strings.TrimPrefix(pkg, "taskstream/internal/")]; ok {
				return c
			}
			return "other"
		case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" ||
			pkg == "syscall" || strings.HasPrefix(pkg, "crypto/"):
			return "net"
		case strings.HasPrefix(pkg, "encoding/"):
			return "encoding"
		}
	}
	for _, f := range stack {
		if !isRuntime(funcPackage(f.fn)) {
			return "other"
		}
	}
	return "runtime.other"
}

// coreCategory splits package core by the component a frame's source
// file or receiver belongs to.
func coreCategory(f frame) string {
	file := path.Base(f.file)
	switch {
	case file == "coordinator.go" || file == "scheduler.go" || strings.HasPrefix(file, "sched_"):
		return "core.coordinator"
	case file == "lane.go":
		return "core.lane"
	case strings.Contains(f.fn, "(*memCtrl)"):
		return "core.memctrl"
	}
	return "core.other"
}

func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.sweepone", "runtime.markroot", "runtime.scanobject"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime")
}

// funcPackage returns the import path of a symbol such as
// "taskstream/internal/core.(*coordinator).dispatch". Type arguments
// of generic instances may contain slashes, so they are cut first.
func funcPackage(fn string) string {
	if i := strings.Index(fn, "["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// add decodes one gzipped pprof CPU profile and adds its samples.
func (p profileShares) add(gz []byte) error {
	if len(gz) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range prof.samples {
		var stack []frame
		for _, id := range s.locs {
			for _, fid := range prof.locLines[id] {
				fn := prof.funcs[fid]
				stack = append(stack, frame{prof.str(fn.name), prof.str(fn.file)})
			}
		}
		p[category(stack)] += s.value
	}
	return nil
}

// emit reports each category's share of all sampled CPU time.
func (p profileShares) emit(r *result) {
	var total int64
	for _, v := range p {
		total += v
	}
	r.notef("cpu profile: %.2f CPU-seconds sampled", float64(total)/1e9)
	for _, c := range profCategories {
		share := 0.0
		if total > 0 {
			share = float64(p[c]) / float64(total)
		}
		r.set("prof."+c, share)
	}
}

// profile is the part of a pprof protobuf this benchmark reads.
type profile struct {
	samples  []sample
	locLines map[uint64][]uint64 // location id → function ids, innermost first
	funcs    map[uint64]function
	strings  []string
}

type sample struct {
	locs  []uint64
	value int64 // the last sample value: CPU nanoseconds
}

type function struct{ name, file int64 }

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile reads the fields of perftools.profiles.Profile that
// attribution needs: samples (field 2), locations (4), functions (5)
// and the string table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcs: map[uint64]function{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			var vals []uint64
			if err := eachField(data, func(num, wire int, v uint64, d []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, wire, v, d)
				case 2:
					return appendVarints(&vals, wire, v, d)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(data, func(num, wire int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(d, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locLines[id] = fns
		case 5:
			var id uint64
			var f function
			if err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcs[id] = f
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks a protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
