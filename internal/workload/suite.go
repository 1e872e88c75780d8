package workload

// Suite is the ordered benchmark suite used by the experiment harness:
// irregular workloads first (where TaskStream should win), regular
// controls last (where it must hold parity).
func Suite() []NamedBuilder {
	return []NamedBuilder{
		{"spmv", func() *Workload { return SpMV(DefaultSpMV()) }},
		{"bfs", func() *Workload { return BFS(DefaultBFS()) }},
		{"join", func() *Workload { return Join(DefaultJoin()) }},
		{"tri", func() *Workload { return Tri(DefaultTri()) }},
		{"sort", func() *Workload { return MergeSort(DefaultSort()) }},
		{"kmeans", func() *Workload { return KMeans(DefaultKMeans()) }},
		{"gemm", func() *Workload { return GEMM(DefaultGEMM()) }},
		{"stencil", func() *Workload { return Stencil(DefaultStencil()) }},
		{"hist", func() *Workload { return Hist(DefaultHist()) }},
	}
}

// SuiteNames returns the suite's workload names in Suite order.
func SuiteNames() []string {
	var names []string
	for _, nb := range Suite() {
		names = append(names, nb.Name)
	}
	return names
}

// NamedBuilder pairs a workload name with its default constructor. The
// builder is called fresh for every run so that storage state never
// leaks between runs.
type NamedBuilder struct {
	Name  string
	Build func() *Workload
}

// ByName returns the suite builder with the given name, or nil.
func ByName(name string) *NamedBuilder {
	for _, nb := range Suite() {
		if nb.Name == name {
			nb := nb
			return &nb
		}
	}
	return nil
}
