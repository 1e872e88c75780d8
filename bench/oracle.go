package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// oracle is bench_results.txt, the committed output of the full
// experiment suite: the reference every seed-0 simulation and every
// regenerated table must reproduce exactly.
type oracle struct {
	text string
	// e3 maps a suite workload to its static and delta cycles.
	e3 map[string][2]int64
}

func loadOracle(root string) (*oracle, error) {
	b, err := os.ReadFile(filepath.Join(root, "bench_results.txt"))
	if err != nil {
		return nil, err
	}
	o := &oracle{text: string(b), e3: map[string][2]int64{}}
	in := false
	for _, line := range strings.Split(o.text, "\n") {
		if strings.HasPrefix(line, "== ") {
			in = strings.HasPrefix(line, "== E3:")
			continue
		}
		f := strings.Fields(line)
		if !in || len(f) != 4 {
			continue
		}
		s, err1 := strconv.ParseInt(f[1], 10, 64)
		d, err2 := strconv.ParseInt(f[2], 10, 64)
		if err1 == nil && err2 == nil {
			o.e3[f[0]] = [2]int64{s, d}
		}
	}
	if len(o.e3) == 0 {
		return nil, fmt.Errorf("bench_results.txt: no E3 rows")
	}
	return o, nil
}

// checkE3 compares one seed-0 suite run with its E3 row.
func (o *oracle) checkE3(name string, delta bool, cycles int64) error {
	row, ok := o.e3[name]
	if !ok {
		return fmt.Errorf("%s: no E3 row in bench_results.txt", name)
	}
	want := row[0]
	if delta {
		want = row[1]
	}
	if cycles != want {
		return fmt.Errorf("%s: %d cycles, bench_results.txt E3 says %d", name, cycles, want)
	}
	return nil
}

// hasBlock reports whether rendered appears verbatim in the oracle.
func (o *oracle) hasBlock(rendered string) bool {
	return strings.Contains(o.text, rendered)
}
