// Package align implements the component-alignment method of Section 3
// (after Li & Chen [14]): build a component affinity graph whose nodes are
// array dimensions and whose weighted edges are the communication costs
// incurred if two dimensions are distributed along different grid
// dimensions, then partition the nodes into q subsets minimizing the cut,
// with the restriction that no two dimensions of the same array share a
// subset.
package align

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"dmcc/internal/ir"
)

// Edge is an affinity relation between two array dimensions. Following
// the paper, the direction (From = read, To = written) records the data
// flow under the owner-computes rule; the weight is what the cut costs.
type Edge struct {
	From, To ir.DimID
	Weight   float64
	// Lines lists the statement lines contributing to this edge.
	Lines []int
}

// Graph is a component affinity graph.
type Graph struct {
	Nodes []ir.DimID
	Edges []Edge
	index map[ir.DimID]int
	// ArrayDims groups node positions by array, for the alignment
	// constraint.
	ArrayDims map[string][]int
	// pos[k] holds the node positions of Edges[k]'s endpoints, when the
	// graph was built by an Affinity.
	pos [][2]int
}

// ends returns every edge's endpoints as node positions: the ones the
// graph was built with, or looked up by name when its edges were listed
// by hand.
func (g *Graph) ends() [][2]int {
	if len(g.pos) == len(g.Edges) {
		return g.pos
	}
	pos := make([][2]int, len(g.Edges))
	for k, e := range g.Edges {
		pos[k] = [2]int{g.index[e.From], g.index[e.To]}
	}
	return pos
}

// siblings lists, per node, the positions of its array's dimensions.
func (g *Graph) siblings() [][]int {
	sib := make([][]int, len(g.Nodes))
	for i, node := range g.Nodes {
		sib[i] = g.ArrayDims[node.Array]
	}
	return sib
}

// WeightParams control the numeric edge-weight estimation. Following the
// two-step approach quoted in Section 2.2 (Gupta & Banerjee), weights are
// computed assuming N1 = ... = Nq = N processors per grid dimension.
type WeightParams struct {
	// Bind gives values to size parameters, e.g. {"m": 512}.
	Bind map[string]int
	// N is the assumed processor count per grid dimension.
	N int
	// Tc is the per-word transfer time multiplying all weights.
	Tc float64
}

// DefaultWeightParams uses m=512, N=16, tc=1.
func DefaultWeightParams() WeightParams {
	return WeightParams{Bind: map[string]int{"m": 512}, N: 16, Tc: 1}
}

// BuildGraph constructs the component affinity graph of the given nests
// (pass all of a program's nests for the Section 3 whole-program graph,
// or a single nest for the per-loop graphs of Section 4).
//
// For every statement, every pair of references to *different* arrays
// (the written reference and every read, and reads among themselves — the
// paper's c2 edge connects A2 with X, both reads of line 5) and every
// dimension pair whose subscripts differ by a constant contributes an
// affinity edge. The edge weight estimates the communication cost if the
// two dimensions are NOT aligned: the cheaper-to-move reference of the
// pair ("the mover": a read, never the LHS, by owner-computes) must
// travel, so
//
//	vol(R)     = number of distinct elements of R the statement touches
//	reuse(R)   = product of extents of in-scope loops absent from R's
//	             subscripts (iterations reusing each element)
//	weight     = vol * Tc                      if reuse <= 1
//	           = vol * Tc * (1 + log2 N)       otherwise (multicast)
//
// which reproduces the magnitude ordering of the paper's hand-derived
// weights: c1 = ManyToManyMulticast(m^2/N, N) ~ m^2 for moving A versus
// c2 = ManyToManyMulticast(m/N, N1) + OneToManyMulticast(m, N2)
// ~ m(1 + log N) for moving X, and c1 > c4 as the paper notes. The loop
// extents are trip counts of the nests lowered under wp.Bind (see
// NewAffinity); a lowering error is returned.
func BuildGraph(p *ir.Program, nests []*ir.Nest, wp WeightParams) (*Graph, error) {
	q := *p
	q.Nests = nests
	lw, err := q.Lower(wp.Bind)
	if err != nil {
		return nil, err
	}
	return NewAffinity(lw, wp).Graph(0, len(nests)), nil
}

// increment is one statement's contribution to one affinity edge.
type increment struct {
	edge   int // index into Affinity.edges
	weight float64
	line   int
}

// Affinity holds the affinity-edge increments of a nest sequence, nest
// by nest, so the graph of any subsequence — Algorithm 1 aligns every
// (i, j) segment on its own — is a replay of stored increments rather
// than a fresh walk over the statements.
type Affinity struct {
	// base carries the nodes and node tables every graph shares,
	// read-only; it has no edges.
	base Graph
	// sib[i] lists the positions of node i's array's dimensions.
	sib [][]int
	// edges lists the endpoints, as node positions, of every edge of the
	// whole program's graph, in the order Graph emits edges: by endpoint
	// names. A segment's graph has a subset of them, in the same order.
	edges [][2]int
	nests [][]increment
}

// NewAffinity computes the increments of every nest of lw's program (the
// per-statement edge rules are documented on BuildGraph). The loop
// extents are read from lw's loop bounds with every enclosing loop index
// at the midpoint m/2+1 of the largest bound size parameter m, so
// triangular nests like Gauss's i = k+1..m average to about m/2 trips; a
// count below one is one. wp gives N and Tc, and its Bind is not read.
func NewAffinity(lw *ir.Lowered, wp WeightParams) *Affinity {
	p := lw.Program
	a := &Affinity{
		base:  Graph{index: map[ir.DimID]int{}, ArrayDims: map[string][]int{}},
		nests: make([][]increment, len(p.Nests)),
	}
	g := &a.base
	var names []string
	var order []int // node positions in DimID.String() order
	for _, d := range p.AllDims() {
		g.index[d] = len(g.Nodes)
		g.ArrayDims[d.Array] = append(g.ArrayDims[d.Array], len(g.Nodes))
		order = append(order, len(g.Nodes))
		g.Nodes = append(g.Nodes, d)
		names = append(names, d.String())
	}
	sort.SliceStable(order, func(x, y int) bool { return names[order[x]] < names[order[y]] })
	a.sib = g.siblings()
	m := 0
	for _, v := range lw.Bind {
		m = max(m, v)
	}
	// nestIncrements keys an increment's edge by its endpoints' places in
	// name order, rank[from]*n + rank[to]; the sorted distinct keys are
	// the edges in the order Graph emits them.
	n := len(g.Nodes)
	rank := make([]int, n)
	for r, node := range order {
		rank[node] = r
	}
	var sc incScratch
	keys := 0
	for t, nest := range p.Nests {
		a.nests[t] = a.nestIncrements(nest, tripCounts(&lw.Nests[t], m/2+1), wp, rank, &sc)
		keys += len(a.nests[t])
	}
	edges := make([]int, 0, keys)
	for _, incs := range a.nests {
		for _, inc := range incs {
			edges = append(edges, inc.edge)
		}
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	a.edges = make([][2]int, len(edges))
	for k, key := range edges {
		a.edges[k] = [2]int{order[key/n], order[key%n]}
	}
	for _, incs := range a.nests {
		for k := range incs {
			incs[k].edge, _ = slices.BinarySearch(edges, incs[k].edge)
		}
	}
	return a
}

// incScratch is nestIncrements' working storage, kept across a program's
// statements: the LHS's subscript variables and the statement's distinct
// references.
type incScratch struct {
	lhsVars []string
	refs    []ir.Ref
}

// tripCounts is each loop's trip count with every enclosing loop index at
// mid, at least one.
func tripCounts(ln *ir.LNest, mid int) []int {
	at := make([]int, len(ln.Loops))
	for d := range at {
		at[d] = mid
	}
	trips := make([]int, len(ln.Loops))
	for d := range ln.Loops {
		l := &ln.Loops[d]
		n := l.Hi.At(at) - l.Lo.At(at)
		if l.Step == -1 {
			n = -n
		}
		trips[d] = max(n+1, 1)
	}
	return trips
}

// nestIncrements lists one nest's edge increments in statement order,
// each edge keyed rank[from]*n + rank[to] for endpoint positions from and
// to of n nodes.
func (a *Affinity) nestIncrements(nest *ir.Nest, trips []int, wp WeightParams, rank []int, sc *incScratch) []increment {
	var incs []increment
	n := len(a.base.Nodes)
	for _, st := range nest.Stmts {
		sc.lhsVars = sc.lhsVars[:0]
		for _, s := range st.LHS.Subs {
			for _, t := range s.Terms {
				sc.lhsVars = append(sc.lhsVars, t.Var)
			}
		}
		floating := func(r ir.Ref) bool {
			for _, s := range r.Subs {
				for _, t := range s.Terms {
					if slices.Contains(sc.lhsVars, t.Var) {
						return false
					}
				}
			}
			return true
		}
		refs := sc.dedupRefs(st)
		for x := 0; x < len(refs); x++ {
			for y := x + 1; y < len(refs); y++ {
				ra, rb := refs[x], refs[y]
				if ra.Array == rb.Array {
					// Dimensions of one array may never share a
					// subset; an intra-array edge would always be
					// cut, so the paper's graphs omit them.
					continue
				}
				// The mover is never the LHS (owner computes). Among
				// two reads, an affinity edge only helps when one ref
				// is fully floating (no subscript variable shared
				// with the LHS): aligning the floating ref with the
				// anchored one makes it local, which is exactly the
				// paper's c2 edge between A2 and X in line 5. A pair
				// of partially-anchored reads (like L(i,k) and A(k,j)
				// in Gauss line 7) must both travel to the LHS owner
				// no matter how they align, so no edge is added.
				var mover ir.Ref
				switch {
				case x == 0:
					mover = rb
				case floating(ra) && floating(rb):
					if moveCost(nest, st, ra, trips, wp) <= moveCost(nest, st, rb, trips, wp) {
						mover = ra
					} else {
						mover = rb
					}
				case floating(ra):
					mover = ra
				case floating(rb):
					mover = rb
				default:
					continue
				}
				w := moveCost(nest, st, mover, trips, wp)
				stay := ra
				if mover.Array == ra.Array {
					stay = rb
				}
				for k2, msub := range mover.Subs {
					for k1, ssub := range stay.Subs {
						if _, ok := ssub.ConstDiff(msub); !ok {
							continue
						}
						if ssub.IsConst() {
							continue // constants carry no alignment signal
						}
						from := a.base.index[ir.DimID{Array: mover.Array, Dim: k2}]
						to := a.base.index[ir.DimID{Array: stay.Array, Dim: k1}]
						incs = append(incs, increment{edge: rank[from]*n + rank[to], weight: w, line: st.Line})
					}
				}
			}
		}
	}
	return incs
}

// Graph is the affinity graph of nests lo..hi-1 (0-based, hi exclusive):
// their increments summed per edge in nest and statement order, edges
// sorted by endpoint names. The node tables are shared, read-only, by
// every graph of the Affinity.
func (a *Affinity) Graph(lo, hi int) *Graph {
	g := a.base
	// slot[k] counts edge k's increments, then holds 1 + its position in
	// g.Edges.
	slot := make([]int, len(a.edges))
	edges, incs := 0, 0
	for t := lo; t < hi; t++ {
		for _, inc := range a.nests[t] {
			if slot[inc.edge] == 0 {
				edges++
			}
			slot[inc.edge]++
		}
		incs += len(a.nests[t])
	}
	// Emit the edges in endpoint-name order, each Lines a window of one
	// backing array sized by its increment count.
	lines := make([]int, incs)
	g.Edges, g.pos = make([]Edge, 0, edges), make([][2]int, 0, edges)
	for k, ft := range a.edges {
		s := &slot[k]
		if *s == 0 {
			continue
		}
		g.Edges = append(g.Edges, Edge{From: g.Nodes[ft[0]], To: g.Nodes[ft[1]], Lines: lines[:0:*s]})
		g.pos = append(g.pos, ft)
		lines = lines[*s:]
		*s = len(g.Edges)
	}
	for t := lo; t < hi; t++ {
		for _, inc := range a.nests[t] {
			e := &g.Edges[slot[inc.edge]-1]
			e.Weight += inc.weight
			e.Lines = append(e.Lines, inc.line)
		}
	}
	return &g
}

// dedupRefs lists st's references, its LHS first, each distinct one
// once, in sc.refs.
func (sc *incScratch) dedupRefs(st *ir.Stmt) []ir.Ref {
	sc.refs = append(sc.refs[:0], st.LHS)
	for _, r := range st.Reads {
		if !slices.ContainsFunc(sc.refs, r.Equal) {
			sc.refs = append(sc.refs, r)
		}
	}
	return sc.refs
}

// moveCost estimates the cost of shipping one reference's data to
// misaligned consumers (documented on BuildGraph); trips are the nest's
// loop trip counts.
func moveCost(nest *ir.Nest, st *ir.Stmt, rd ir.Ref, trips []int, wp WeightParams) float64 {
	vol, reuse := 1.0, 1.0
	for k, l := range nest.Loops[:st.Depth] {
		if refUses(rd, l.Index) {
			vol *= float64(trips[k])
		} else {
			reuse *= float64(trips[k])
		}
	}
	w := vol * wp.Tc
	if reuse > 1 && wp.N > 1 {
		w *= 1 + math.Log2(float64(wp.N))
	}
	return w
}

// refUses reports whether a subscript of r has a term in variable v.
func refUses(r ir.Ref, v string) bool {
	for _, s := range r.Subs {
		for _, t := range s.Terms {
			if t.Var == v {
				return true
			}
		}
	}
	return false
}

// String renders the graph for reports (Figs 2, 4, 7).
func (g *Graph) String() string {
	s := "nodes:"
	for _, n := range g.Nodes {
		s += " " + n.String()
	}
	s += "\n"
	for _, e := range g.Edges {
		s += fmt.Sprintf("  %s -> %s  weight %.0f  (lines %v)\n", e.From, e.To, e.Weight, e.Lines)
	}
	return s
}
