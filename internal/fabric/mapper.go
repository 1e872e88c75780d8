package fabric

import "fmt"

// Mapping is the result of placing and routing a DFG onto a lane's FU
// grid: the two numbers the pipeline timing model consumes, plus the
// placement itself for inspection and area accounting.
type Mapping struct {
	// II is the initiation interval: the fabric accepts a new firing
	// every II cycles. 1 is fully pipelined; congestion or
	// time-multiplexing raise it.
	II int
	// Latency is the pipeline depth in cycles from inputs entering to
	// the corresponding outputs emerging.
	Latency int
	// Place[i] is the linear grid cell of node i (cell = row*cols+col),
	// for multiplexed nodes the cell they share.
	Place []int
	// MaxLinkLoad is the busiest routing-link load, the congestion
	// component of II.
	MaxLinkLoad int
	// Cells is the number of grid cells used.
	Cells int
}

// Map places g onto a rows×cols grid and routes its edges with
// X-then-Y Manhattan paths. The algorithm is the greedy
// proximity-placement heuristic common to CGRA toolchains: nodes are
// placed in topological (SSA) order at the free cell minimizing total
// distance to already-placed operands; when nodes outnumber cells, FUs
// are time-multiplexed and II scales by the sharing factor.
func Map(g *DFG, rows, cols int) (Mapping, error) {
	if err := g.Validate(); err != nil {
		return Mapping{}, err
	}
	cells := rows * cols
	if cells == 0 {
		return Mapping{}, fmt.Errorf("fabric: empty grid")
	}
	// Sharing factor when the DFG exceeds the grid.
	share := (len(g.Nodes) + cells - 1) / cells
	if share < 1 {
		share = 1
	}
	// occupancy[c] counts nodes mapped to cell c (≤ share).
	occupancy := make([]int, cells)
	place := make([]int, len(g.Nodes))
	// Input ports live on the west edge: port p at row p%rows, col -1.
	portCell := func(p int) (int, int) { return p % rows, -1 }
	cellRC := func(c int) (int, int) { return c / cols, c % cols }
	dist := func(r1, c1, r2, c2 int) int {
		dr, dc := r1-r2, c1-c2
		if dr < 0 {
			dr = -dr
		}
		if dc < 0 {
			dc = -dc
		}
		return dr + dc
	}
	for i, n := range g.Nodes {
		best, bestCost := -1, 1<<30
		for c := 0; c < cells; c++ {
			if occupancy[c] >= share {
				continue
			}
			r1, c1 := cellRC(c)
			cost := 0
			for _, ref := range n.In {
				var r2, c2 int
				if ref.IsPort() {
					r2, c2 = portCell(ref.Port())
				} else {
					r2, c2 = cellRC(place[int(ref)])
				}
				cost += dist(r1, c1, r2, c2)
			}
			// Light tie-break toward low occupancy, then low index
			// (deterministic).
			cost = cost*8 + occupancy[c]
			if cost < bestCost {
				best, bestCost = c, cost
			}
		}
		occupancy[best]++
		place[i] = best
	}
	// Route edges, accumulating per-link load. Links are identified by
	// (cell, direction); direction 0=E,1=W,2=N,3=S. Port→cell edges
	// enter from the west edge and are charged to the crossed links.
	linkLoad := map[[2]int]int{}
	route := func(r1, c1, r2, c2 int) int {
		hops := 0
		for c1 != c2 {
			dir := 0
			step := 1
			if c2 < c1 {
				dir = 1
				step = -1
			}
			linkLoad[[2]int{r1*cols + c1 + 1000*dir, dir}]++
			c1 += step
			hops++
		}
		for r1 != r2 {
			dir := 3
			step := 1
			if r2 < r1 {
				dir = 2
				step = -1
			}
			linkLoad[[2]int{r1*cols + c1 + 1000*dir, dir}]++
			r1 += step
			hops++
		}
		return hops
	}
	// depth[i] is the arrival cycle of node i's output: max over
	// operands of their depth plus routing hops, plus 1 for the FU.
	depth := make([]int, len(g.Nodes))
	maxDepth := 0
	for i, n := range g.Nodes {
		r1, c1 := cellRC(place[i])
		d := 0
		for _, ref := range n.In {
			var r2, c2, dd int
			if ref.IsPort() {
				r2, c2 = portCell(ref.Port())
				c2 = 0 // enters the grid at column 0
				dd = 0
			} else {
				r2, c2 = cellRC(place[int(ref)])
				dd = depth[int(ref)]
			}
			hops := route(r2, c2, r1, c1)
			if dd+hops > d {
				d = dd + hops
			}
		}
		depth[i] = d + 1
		if depth[i] > maxDepth {
			maxDepth = depth[i]
		}
	}
	maxLoad := 0
	for _, l := range linkLoad {
		if l > maxLoad {
			maxLoad = l
		}
	}
	ii := share
	if maxLoad > ii {
		ii = maxLoad
	}
	if ii < 1 {
		ii = 1
	}
	used := 0
	for _, o := range occupancy {
		if o > 0 {
			used++
		}
	}
	lat := maxDepth
	if lat < 1 {
		lat = 1
	}
	return Mapping{II: ii, Latency: lat, Place: place, MaxLinkLoad: maxLoad, Cells: used}, nil
}
