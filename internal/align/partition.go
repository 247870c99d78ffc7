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
	"slices"
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
// order, for a built graph), that has more dimensions than the q of the
// grid; sib[i] lists node i's array's dimensions.
func fitsGrid(nodes []ir.DimID, sib [][]int, q int) error {
	for i, node := range nodes {
		if len(sib[i]) > q {
			return fmt.Errorf("align: array %s has %d dimensions but the grid has %d", node.Array, len(sib[i]), q)
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
	// s is this call's own, so its edge endpoints may be the graph's.
	s := &Search{nodes: g.Nodes, sib: g.siblings(), ends: g.ends(), weight: make([]float64, len(g.Edges))}
	for k, e := range g.Edges {
		s.weight[k] = e.Weight
	}
	cut, err := s.run(q)
	if err != nil {
		return Partition{}, err
	}
	pt := Partition{Assign: make(map[ir.DimID]int, len(g.Nodes)), Cut: cut, Method: "exact"}
	for i, node := range g.Nodes {
		pt.Assign[node] = int(s.best[i])
	}
	return pt, nil
}

// AlignSegment partitions the graph of nests lo..hi-1 into q subsets as
// Align(a.Graph(lo, hi), q) does — the same algorithm, subsets, cut and
// tie-breaks — and returns the subset of every node, in node
// (ir.Program.AllDims) order, one byte each. Up to ExactMaxNodes nodes
// the exact search runs on the segment's edges summed straight from the
// stored increments into s, which allocates nothing once s has grown to
// the program; the returned bytes are s's, valid until its next use.
// Past ExactMaxNodes it runs GreedyAlign on a.Graph(lo, hi).
func (a *Affinity) AlignSegment(lo, hi, q int, s *Search) (assign []byte, cut float64, method string, err error) {
	nodes := a.base.Nodes
	if len(nodes) > ExactMaxNodes {
		pt, err := GreedyAlign(a.Graph(lo, hi), q)
		if err != nil {
			return nil, 0, "", err
		}
		s.best = s.best[:0]
		for _, node := range nodes {
			s.best = append(s.best, byte(pt.Assign[node]))
		}
		return s.best, pt.Cut, pt.Method, nil
	}
	// sum[k] and hit[k] accumulate edge k of a.edges; both are all zero
	// between calls.
	if len(s.sum) < len(a.edges) {
		s.sum, s.hit = make([]float64, len(a.edges)), make([]bool, len(a.edges))
	}
	for t := lo; t < hi; t++ {
		for _, inc := range a.nests[t] {
			s.sum[inc.edge] += inc.weight
			s.hit[inc.edge] = true
		}
	}
	s.nodes, s.sib, s.ends, s.weight = nodes, a.sib, s.ends[:0], s.weight[:0]
	for k, ft := range a.edges {
		if s.hit[k] {
			s.addEdge(ft, s.sum[k])
			s.sum[k], s.hit[k] = 0, false
		}
	}
	if cut, err = s.run(q); err != nil {
		return nil, 0, "", err
	}
	return s.best, cut, "exact", nil
}

// Search is the exact search's input in index-addressed form — nodes,
// the sibling lists of the same-array constraint, the edges' endpoint
// positions and weights — with the working storage of its branch and
// bound. ExactAlign fills one from a Graph and Affinity.AlignSegment from
// stored increments; either way run is the one search. The zero value is
// empty, and one value reused for segment after segment stops
// allocating once its buffers have grown.
type Search struct {
	nodes  []ir.DimID // names, for errors
	sib    [][]int    // sib[i]: the positions of node i's array's dimensions
	ends   [][2]int   // edge endpoints, as node positions
	weight []float64  // edge weights, indexed like ends

	sum []float64 // AlignSegment's per-edge accumulators
	hit []bool

	// Adjacency for incremental cut computation: node i's neighbours
	// are nbr[off[i]:off[i+1]], in edge order.
	off []int
	nbr []neighbour

	q, pinned int
	order     []int  // the search's node order
	assign    []int  // the partial assignment, -1 for unassigned
	best      []byte // the best complete assignment found
	bestCut   float64
}

type neighbour struct {
	other  int
	weight float64
}

func (s *Search) addEdge(ft [2]int, w float64) {
	s.ends = append(s.ends, ft)
	s.weight = append(s.weight, w)
}

// run searches the filled form for a minimum-cut feasible partition into
// q subsets, leaving it in best, and returns its cut.
func (s *Search) run(q int) (float64, error) {
	if err := fitsGrid(s.nodes, s.sib, q); err != nil {
		return 0, err
	}
	if q > 64 {
		return 0, fmt.Errorf("align: exact search of %d subsets, at most 64", q)
	}
	n := len(s.nodes)
	s.q, s.pinned = q, -1
	for i := range n {
		if len(s.sib[i]) > 1 {
			s.pinned = i
			break
		}
	}
	if s.pinned == -1 && n > 0 {
		s.pinned = 0
	}

	// Count each node's neighbours into off[i+1], turn the counts into
	// start offsets, fill with off[i] as node i's cursor (leaving it at
	// node i+1's start), then shift back.
	s.off = slices.Grow(s.off[:0], n+1)[:n+1]
	clear(s.off)
	for _, ft := range s.ends {
		if ft[0] != ft[1] {
			s.off[ft[0]+1]++
			s.off[ft[1]+1]++
		}
	}
	for i := range n {
		s.off[i+1] += s.off[i]
	}
	s.nbr = slices.Grow(s.nbr[:0], s.off[n])[:s.off[n]]
	for k, ft := range s.ends {
		fi, ti, w := ft[0], ft[1], s.weight[k]
		if fi == ti {
			continue
		}
		s.nbr[s.off[fi]] = neighbour{ti, w}
		s.off[fi]++
		s.nbr[s.off[ti]] = neighbour{fi, w}
		s.off[ti]++
	}
	copy(s.off[1:], s.off[:n])
	s.off[0] = 0

	// Order: pinned node first, then nodes of multi-dim arrays, then rest,
	// to trigger constraint pruning early.
	s.order = s.order[:0]
	if s.pinned >= 0 {
		s.order = append(s.order, s.pinned)
	}
	for i := range n {
		if i != s.pinned && len(s.sib[i]) > 1 {
			s.order = append(s.order, i)
		}
	}
	for i := range n {
		if i != s.pinned && len(s.sib[i]) <= 1 {
			s.order = append(s.order, i)
		}
	}

	s.assign, s.best = slices.Grow(s.assign[:0], n)[:n], slices.Grow(s.best[:0], n)[:n]
	for i := range s.assign {
		s.assign[i] = -1
	}
	s.bestCut = math.Inf(1)
	s.branch(0, 0)
	if math.IsInf(s.bestCut, 1) {
		return 0, fmt.Errorf("align: no feasible partition into %d subsets", q)
	}
	return s.bestCut, nil
}

// branch assigns order[pos:] in every feasible way that can still beat
// the best cut, given the partial assignment's cut so far.
func (s *Search) branch(pos int, cut float64) {
	if cut >= s.bestCut {
		return
	}
	assign := s.assign
	if pos == len(s.order) {
		s.bestCut = cut
		for i, sub := range assign {
			s.best[i] = byte(sub)
		}
		return
	}
	ni := s.order[pos]
	var taken uint64
	for _, other := range s.sib[ni] {
		if other != ni && assign[other] >= 0 {
			taken |= 1 << assign[other]
		}
	}
	hi := s.q - 1
	if ni == s.pinned {
		hi = 0
	}
	nbr := s.nbr[s.off[ni]:s.off[ni+1]]
	for sub := 0; sub <= hi; sub++ {
		if taken&(1<<sub) != 0 {
			continue
		}
		add := 0.0
		for _, a := range nbr {
			if o := assign[a.other]; o >= 0 && o != sub {
				add += a.weight
			}
		}
		assign[ni] = sub
		s.branch(pos+1, cut+add)
		assign[ni] = -1
	}
}

// GreedyAlign is the Li-&-Chen-style heuristic: process edges in
// descending weight order, merging the two endpoint groups unless that
// would put two dimensions of one array together or exceed feasibility;
// finally groups are packed into q subsets largest-first. Runs in
// O(E log E); TestGreedyVsExactRandom bounds what it gives up.
func GreedyAlign(g *Graph, q int) (Partition, error) {
	if err := fitsGrid(g.Nodes, g.siblings(), q); err != nil {
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
