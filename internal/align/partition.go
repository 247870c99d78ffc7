// The component alignment problem (Section 3): partition the affinity
// graph's nodes into q disjoint subsets, one per grid dimension, so the
// total weight of cut edges is minimal, subject to "no two dimensions of
// one array in the same subset". The problem is NP-hard in general
// (Li & Chen). The graphs of the paper's programs are small (one node per
// array dimension: gauss 7, ir.Synthetic 10), so Align searches them
// exactly by branch and bound; past ExactMaxNodes it takes the greedy
// edge-contraction heuristic instead.
package align

import (
	"fmt"
	"math"
	"sort"

	"dmcc/internal/ir"
)

// Partition assigns every node of a graph to a grid dimension.
type Partition struct {
	// Assign maps each node to its subset (grid dimension), 0-based.
	Assign map[ir.DimID]int
	// Cut is the total weight of edges across subsets.
	Cut float64
	// Method records which algorithm produced the partition.
	Method string
}

// Subset returns the nodes assigned to subset s, in node order.
func (pt Partition) Subset(g *Graph, s int) []ir.DimID {
	var out []ir.DimID
	for _, n := range g.Nodes {
		if pt.Assign[n] == s {
			out = append(out, n)
		}
	}
	return out
}

// CutWeight computes the total weight of edges crossing subsets under an
// assignment vector (indexed like g.Nodes).
func (g *Graph) CutWeight(assign []int) float64 {
	var cut float64
	for k, ft := range g.ends() {
		if assign[ft[0]] != assign[ft[1]] {
			cut += g.Edges[k].Weight
		}
	}
	return cut
}

// Feasible reports whether an assignment satisfies the same-array
// constraint.
func (g *Graph) Feasible(assign []int) bool {
	for _, dims := range g.ArrayDims {
		seen := map[int]bool{}
		for _, ni := range dims {
			if seen[assign[ni]] {
				return false
			}
			seen[assign[ni]] = true
		}
	}
	return true
}

// ExactMaxNodes is the largest graph Align searches exactly. On dense
// graphs of k two-dimensional arrays ExactAlign takes under a millisecond
// at 24 nodes and doubles with every further array (EXPERIMENTS.md,
// "Alignment: exact against greedy"); a source file can declare as many
// arrays as it likes.
const ExactMaxNodes = 24

// Align partitions g into q subsets with the algorithm its size calls
// for: ExactAlign up to ExactMaxNodes nodes, GreedyAlign above. The
// partition's Method says which ran.
func Align(g *Graph, q int) (Partition, error) {
	if len(g.Nodes) > ExactMaxNodes {
		return GreedyAlign(g, q)
	}
	return ExactAlign(g, q)
}

// fitsGrid returns an error naming the first array, in node order (name
// order, for a built graph), that has more dimensions than the q of the grid.
func fitsGrid(g *Graph, q int) error {
	for _, node := range g.Nodes {
		if dims := g.ArrayDims[node.Array]; len(dims) > q {
			return fmt.Errorf("align: array %s has %d dimensions but the grid has %d", node.Array, len(dims), q)
		}
	}
	return nil
}

// ExactAlign finds a minimum-cut feasible partition into q subsets by
// branch and bound over node assignments. To break the subset-label
// symmetry deterministically, the first dimension of the first
// multi-dimensional array (e.g. A1) is pinned to subset 0 — the paper's
// convention of mapping {A1, V} to grid dimension 1. It returns an error
// if any array has more dimensions than q, or if q is past 64 (the
// search keeps the subsets a node's array already holds in a bitmask).
func ExactAlign(g *Graph, q int) (Partition, error) {
	if err := fitsGrid(g, q); err != nil {
		return Partition{}, err
	}
	if q > 64 {
		return Partition{}, fmt.Errorf("align: exact search of %d subsets, at most 64", q)
	}
	n := len(g.Nodes)
	assign := make([]int, n)
	// sib[i] lists the positions of node i's array's dimensions.
	sib := make([][]int, n)
	pinned := -1
	for i, node := range g.Nodes {
		assign[i] = -1
		sib[i] = g.ArrayDims[node.Array]
		if pinned == -1 && len(sib[i]) > 1 {
			pinned = i
		}
	}
	if pinned == -1 && n > 0 {
		pinned = 0
	}

	// Adjacency for incremental cut computation, in one backing array.
	type adj struct {
		other  int
		weight float64
	}
	ends := g.ends()
	deg := make([]int, n)
	for _, ft := range ends {
		deg[ft[0]]++
		deg[ft[1]]++
	}
	nbr := make([][]adj, n)
	backing := make([]adj, 2*len(ends))
	for i, off := 0, 0; i < n; i++ {
		nbr[i] = backing[off : off : off+deg[i]]
		off += deg[i]
	}
	for k, ft := range ends {
		fi, ti, w := ft[0], ft[1], g.Edges[k].Weight
		if fi == ti {
			continue
		}
		nbr[fi] = append(nbr[fi], adj{ti, w})
		nbr[ti] = append(nbr[ti], adj{fi, w})
	}

	// Order: pinned node first, then nodes of multi-dim arrays, then rest,
	// to trigger constraint pruning early.
	order := make([]int, 0, n)
	used := make([]bool, n)
	if pinned >= 0 {
		order = append(order, pinned)
		used[pinned] = true
	}
	for i := 0; i < n; i++ {
		if !used[i] && len(sib[i]) > 1 {
			order = append(order, i)
			used[i] = true
		}
	}
	for i := 0; i < n; i++ {
		if !used[i] {
			order = append(order, i)
		}
	}

	best := math.Inf(1)
	bestAssign := make([]int, n)
	var rec func(pos int, cut float64)
	rec = func(pos int, cut float64) {
		if cut >= best {
			return
		}
		if pos == len(order) {
			best = cut
			copy(bestAssign, assign)
			return
		}
		ni := order[pos]
		var taken uint64
		for _, other := range sib[ni] {
			if other != ni && assign[other] >= 0 {
				taken |= 1 << assign[other]
			}
		}
		lo, hi := 0, q-1
		if ni == pinned {
			lo, hi = 0, 0
		}
		for s := lo; s <= hi; s++ {
			if taken&(1<<s) != 0 {
				continue
			}
			add := 0.0
			for _, a := range nbr[ni] {
				if assign[a.other] >= 0 && assign[a.other] != s {
					add += a.weight
				}
			}
			assign[ni] = s
			rec(pos+1, cut+add)
			assign[ni] = -1
		}
	}
	rec(0, 0)
	if math.IsInf(best, 1) {
		return Partition{}, fmt.Errorf("align: no feasible partition into %d subsets", q)
	}
	pt := Partition{Assign: map[ir.DimID]int{}, Cut: best, Method: "exact"}
	for i, node := range g.Nodes {
		pt.Assign[node] = bestAssign[i]
	}
	return pt, nil
}

// GreedyAlign is the Li-&-Chen-style heuristic: process edges in
// descending weight order, merging the two endpoint groups unless that
// would put two dimensions of one array together or exceed feasibility;
// finally groups are packed into q subsets largest-first. Runs in
// O(E log E); TestGreedyVsExactRandom bounds what it gives up.
func GreedyAlign(g *Graph, q int) (Partition, error) {
	if err := fitsGrid(g, q); err != nil {
		return Partition{}, err
	}
	n := len(g.Nodes)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	// arraysIn[root] = set of array names with a dimension in the group.
	arraysIn := make([]map[string]bool, n)
	for i, node := range g.Nodes {
		arraysIn[i] = map[string]bool{node.Array: true}
	}
	edges := append([]Edge(nil), g.Edges...)
	sort.SliceStable(edges, func(a, b int) bool { return edges[a].Weight > edges[b].Weight })
	for _, e := range edges {
		ra, rb := find(g.index[e.From]), find(g.index[e.To])
		if ra == rb {
			continue
		}
		conflict := false
		for arr := range arraysIn[ra] {
			if arraysIn[rb][arr] {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		parent[rb] = ra
		for arr := range arraysIn[rb] {
			arraysIn[ra][arr] = true
		}
	}
	// Collect groups.
	groups := map[int][]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	type grp struct {
		members []int
		arrays  map[string]bool
		weight  float64 // internal weight, for ordering
	}
	var gs []grp
	for r, members := range groups {
		w := 0.0
		inGroup := map[int]bool{}
		for _, m := range members {
			inGroup[m] = true
		}
		for _, e := range g.Edges {
			if inGroup[g.index[e.From]] && inGroup[g.index[e.To]] {
				w += e.Weight
			}
		}
		gs = append(gs, grp{members: members, arrays: arraysIn[r], weight: w})
	}
	sort.SliceStable(gs, func(a, b int) bool {
		if gs[a].weight != gs[b].weight {
			return gs[a].weight > gs[b].weight
		}
		return gs[a].members[0] < gs[b].members[0]
	})
	// Pack groups into q subsets first-fit by the same-array constraint.
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	subsetArrays := make([]map[string]bool, q)
	for i := range subsetArrays {
		subsetArrays[i] = map[string]bool{}
	}
	for _, gr := range gs {
		placed := false
		for s := 0; s < q && !placed; s++ {
			ok := true
			for arr := range gr.arrays {
				if subsetArrays[s][arr] {
					ok = false
					break
				}
			}
			if ok {
				for _, m := range gr.members {
					assign[m] = s
				}
				for arr := range gr.arrays {
					subsetArrays[s][arr] = true
				}
				placed = true
			}
		}
		if !placed {
			// Fall back: split the group member by member.
			for _, m := range gr.members {
				arr := g.Nodes[m].Array
				for s := 0; s < q; s++ {
					if !subsetArrays[s][arr] {
						assign[m] = s
						subsetArrays[s][arr] = true
						break
					}
				}
				if assign[m] == -1 {
					return Partition{}, fmt.Errorf("align: greedy packing failed for node %s", g.Nodes[m])
				}
			}
		}
	}
	pt := Partition{Assign: map[ir.DimID]int{}, Cut: g.CutWeight(assign), Method: "greedy"}
	for i, node := range g.Nodes {
		pt.Assign[node] = assign[i]
	}
	return pt, nil
}
