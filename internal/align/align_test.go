package align

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dmcc/internal/ir"
)

func wp() WeightParams { return DefaultWeightParams() }

func mustGraph(t *testing.T, p *ir.Program, nests []*ir.Nest) *Graph {
	t.Helper()
	g, err := BuildGraph(p, nests, wp())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// lowered is p under the default weights' binding.
func lowered(t *testing.T, p *ir.Program) *ir.Lowered {
	t.Helper()
	lw, err := p.Lower(wp().Bind)
	if err != nil {
		t.Fatal(err)
	}
	return lw
}

func assignOf(t *testing.T, pt Partition, arr string, dim int) int {
	t.Helper()
	s, ok := pt.Assign[ir.DimID{Array: arr, Dim: dim}]
	if !ok {
		t.Fatalf("node %s%d unassigned", arr, dim+1)
	}
	return s
}

// TestFig2JacobiAffinity: the whole-program Jacobi graph must align
// {A1, V} and {A2, B, X} (Section 3).
func TestFig2JacobiAffinity(t *testing.T) {
	p := ir.Jacobi()
	g := mustGraph(t, p, p.Nests)
	if len(g.Nodes) != 5 {
		t.Fatalf("nodes = %v", g.Nodes)
	}
	pt, err := ExactAlign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	a1 := assignOf(t, pt, "A", 0)
	a2 := assignOf(t, pt, "A", 1)
	v := assignOf(t, pt, "V", 0)
	b := assignOf(t, pt, "B", 0)
	x := assignOf(t, pt, "X", 0)
	if a1 != 0 {
		t.Fatalf("A1 pinned to 0, got %d", a1)
	}
	if v != a1 {
		t.Errorf("V must align with A1: V=%d A1=%d", v, a1)
	}
	if x != a2 || b != a2 {
		t.Errorf("X and B must align with A2: X=%d B=%d A2=%d", x, b, a2)
	}
	if a1 == a2 {
		t.Error("A1 and A2 in the same subset")
	}
}

// TestFig2EdgeOrdering: the paper notes c1 > c4 — the A<->V affinity from
// line 5 outweighs the V<->X affinity from line 8.
func TestFig2EdgeOrdering(t *testing.T) {
	p := ir.Jacobi()
	g := mustGraph(t, p, p.Nests)
	var c1, c4 float64
	for _, e := range g.Edges {
		if e.From.String() == "A1" && e.To.String() == "V1" {
			c1 = e.Weight
		}
		if e.From.String() == "V1" && e.To.String() == "X1" {
			c4 = e.Weight
		}
	}
	if c1 == 0 || c4 == 0 {
		t.Fatalf("edges missing: c1=%v c4=%v\n%s", c1, c4, g)
	}
	if c1 <= c4 {
		t.Fatalf("want c1 > c4, got c1=%v c4=%v", c1, c4)
	}
}

// TestFig4PerLoopAlignment: aligning L1 and L2 separately (Section 4).
// L1 keeps {A1,V} / {A2,X}; in L2 all of V, B, X align with A1 (the only
// subscript is i), leaving A2 alone — the row-distribution scheme of
// Table 3.
func TestFig4PerLoopAlignment(t *testing.T) {
	p := ir.Jacobi()
	g1 := mustGraph(t, p, p.Nests[:1])
	pt1, err := ExactAlign(g1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if assignOf(t, pt1, "V", 0) != assignOf(t, pt1, "A", 0) {
		t.Error("L1: V must align with A1")
	}
	if assignOf(t, pt1, "X", 0) != assignOf(t, pt1, "A", 1) {
		t.Error("L1: X must align with A2")
	}

	g2 := mustGraph(t, p, p.Nests[1:])
	pt2, err := ExactAlign(g2, 2)
	if err != nil {
		t.Fatal(err)
	}
	a1 := assignOf(t, pt2, "A", 0)
	for _, arr := range []string{"V", "B", "X"} {
		if assignOf(t, pt2, arr, 0) != a1 {
			t.Errorf("L2: %s must align with A1 (subscript i)", arr)
		}
	}
	if assignOf(t, pt2, "A", 1) == a1 {
		t.Error("L2: A2 must not share A1's subset")
	}
}

// TestFig7GaussAffinity: the Gauss graph aligns {A1, L1, V, B} against
// {A2, L2}. The paper's Fig 7 additionally shows X with A1: that placement
// comes from the explicit engineering override of Section 6 ("In order to
// achieve a better load balance among processors, a processor ring is
// used. In addition, data arrays are partitioned along the first
// dimension") applied by the compile driver, not from the raw minimum
// cut — under volume-based weights X's strongest affinity (via line 16's
// A(i,j)*X(j) product) is with A2, and the raw optimum puts it there.
func TestFig7GaussAffinity(t *testing.T) {
	p := ir.Gauss()
	g := mustGraph(t, p, p.Nests)
	if len(g.Nodes) != 7 {
		t.Fatalf("nodes = %v", g.Nodes)
	}
	pt, err := ExactAlign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	a1 := assignOf(t, pt, "A", 0)
	for _, n := range []struct {
		arr string
		dim int
	}{{"L", 0}, {"V", 0}, {"B", 0}} {
		if assignOf(t, pt, n.arr, n.dim) != a1 {
			t.Errorf("%s%d must align with A1\n%s", n.arr, n.dim+1, g)
		}
	}
	if assignOf(t, pt, "A", 1) == a1 || assignOf(t, pt, "L", 1) == a1 {
		t.Error("A2/L2 must be in the other subset")
	}
	if assignOf(t, pt, "X", 0) != assignOf(t, pt, "A", 1) {
		t.Error("raw min-cut places X with A2 (see comment); alignment changed")
	}
}

func TestSORAffinityMatchesJacobi(t *testing.T) {
	// Section 5: "the corresponding component affinity graph of this
	// algorithm is the same as the one of Jacobi's iterative algorithm".
	p := ir.SOR()
	g := mustGraph(t, p, p.Nests)
	pt, err := ExactAlign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if assignOf(t, pt, "V", 0) != assignOf(t, pt, "A", 0) {
		t.Error("V must align with A1")
	}
	if assignOf(t, pt, "X", 0) != assignOf(t, pt, "A", 1) {
		t.Error("X must align with A2")
	}
	if assignOf(t, pt, "B", 0) != assignOf(t, pt, "A", 1) {
		t.Error("B must align with A2")
	}
}

func matmul() *ir.Program { p, _ := ir.Builtin("matmul"); return p }

func TestCannonAlignment(t *testing.T) {
	// A=B*C wants A1~B1 (i) and A2~C2 (j); B2 and C1 (k) go wherever
	// feasible.
	p := matmul()
	g := mustGraph(t, p, p.Nests)
	pt, err := ExactAlign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if assignOf(t, pt, "B", 0) != assignOf(t, pt, "A", 0) {
		t.Error("B1 must align with A1")
	}
	if assignOf(t, pt, "C", 1) != assignOf(t, pt, "A", 1) {
		t.Error("C2 must align with A2")
	}
}

func TestExactRespectsConstraint(t *testing.T) {
	for _, p := range []*ir.Program{ir.Jacobi(), ir.SOR(), ir.Gauss(), matmul()} {
		g := mustGraph(t, p, p.Nests)
		pt, err := ExactAlign(g, 2)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for arr, dims := range g.ArrayDims {
			seen := map[int]bool{}
			for _, ni := range dims {
				s := pt.Assign[g.Nodes[ni]]
				if seen[s] {
					t.Errorf("%s: array %s has two dims in subset %d", p.Name, arr, s)
				}
				seen[s] = true
			}
		}
	}
}

func TestGreedyRespectsConstraintAndIsFeasible(t *testing.T) {
	for _, p := range []*ir.Program{ir.Jacobi(), ir.SOR(), ir.Gauss(), matmul()} {
		g := mustGraph(t, p, p.Nests)
		pt, err := GreedyAlign(g, 2)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		assign := make([]int, len(g.Nodes))
		for i, n := range g.Nodes {
			s, ok := pt.Assign[n]
			if !ok || s < 0 || s >= 2 {
				t.Fatalf("%s: node %s assigned %d", p.Name, n, s)
			}
			assign[i] = s
		}
		if !g.Feasible(assign) {
			t.Errorf("%s: greedy partition infeasible", p.Name)
		}
	}
}

// Property: on random graphs, greedy never beats exact, and both respect
// the constraint.
func TestGreedyVsExactRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		// Random program-like graph: 3 arrays, first two 2-D, one 1-D.
		g := &Graph{index: map[ir.DimID]int{}, ArrayDims: map[string][]int{}}
		arrays := []struct {
			name string
			rank int
		}{{"A", 2}, {"B", 2}, {"X", 1}}
		for _, a := range arrays {
			for d := 0; d < a.rank; d++ {
				id := ir.DimID{Array: a.name, Dim: d}
				g.index[id] = len(g.Nodes)
				g.ArrayDims[a.name] = append(g.ArrayDims[a.name], len(g.Nodes))
				g.Nodes = append(g.Nodes, id)
			}
		}
		n := len(g.Nodes)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if g.Nodes[i].Array == g.Nodes[j].Array {
					continue
				}
				if rng.Float64() < 0.7 {
					g.Edges = append(g.Edges, Edge{
						From: g.Nodes[i], To: g.Nodes[j],
						Weight: float64(rng.Intn(100) + 1),
					})
				}
			}
		}
		ex, err := ExactAlign(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := GreedyAlign(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		if gr.Cut < ex.Cut-1e-9 {
			t.Fatalf("trial %d: greedy cut %v < exact cut %v", trial, gr.Cut, ex.Cut)
		}
	}
}

func TestExactInfeasible(t *testing.T) {
	// A 3-D array cannot be aligned on a 2-D grid.
	g := &Graph{index: map[ir.DimID]int{}, ArrayDims: map[string][]int{}}
	for d := 0; d < 3; d++ {
		id := ir.DimID{Array: "T", Dim: d}
		g.index[id] = d
		g.ArrayDims["T"] = append(g.ArrayDims["T"], d)
		g.Nodes = append(g.Nodes, id)
	}
	if _, err := ExactAlign(g, 2); err == nil {
		t.Fatal("expected infeasibility error")
	}
	if _, err := GreedyAlign(g, 2); err == nil {
		t.Fatal("expected greedy infeasibility error")
	}
}

func TestCutWeightMatchesPartitionCut(t *testing.T) {
	p := ir.Jacobi()
	g := mustGraph(t, p, p.Nests)
	pt, err := ExactAlign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, len(g.Nodes))
	for i, n := range g.Nodes {
		assign[i] = pt.Assign[n]
	}
	if math.Abs(g.CutWeight(assign)-pt.Cut) > 1e-9 {
		t.Fatalf("CutWeight %v != Partition.Cut %v", g.CutWeight(assign), pt.Cut)
	}
}

func TestSubset(t *testing.T) {
	p := ir.Jacobi()
	g := mustGraph(t, p, p.Nests)
	pt, err := ExactAlign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s0 := pt.Subset(g, 0)
	s1 := pt.Subset(g, 1)
	if len(s0)+len(s1) != len(g.Nodes) {
		t.Fatalf("subsets don't cover: %v %v", s0, s1)
	}
}

// TestTripCountsTriangular: NewAffinity's trip counts are the lowered
// bounds with every enclosing index at the midpoint m/2+1.
func TestTripCountsTriangular(t *testing.T) {
	p := ir.Gauss()
	lw, err := p.Lower(map[string]int{"m": 100})
	if err != nil {
		t.Fatal(err)
	}
	// k = 1..m: exactly m; i = k+1..m with k = 51: 49 trips.
	if got := tripCounts(&lw.Nests[0], 51); got[0] != 100 || got[1] != 49 {
		t.Fatalf("elimination trip counts = %v, want [100 49 ...]", got)
	}
	// Downward loop j = m..1.
	if got := tripCounts(&lw.Nests[2], 51); got[0] != 100 {
		t.Fatalf("downward trip count = %d, want 100", got[0])
	}
}

// TestBuildGraphUnboundError: a bound naming a variable the weights do
// not bind is the lowering's error.
func TestBuildGraphUnboundError(t *testing.T) {
	nest := &ir.Nest{
		Label: "bad",
		Loops: []ir.Loop{{Index: "i", Lo: ir.Const(1), Hi: ir.V("q"), Step: 1}},
	}
	_, err := BuildGraph(ir.Jacobi(), []*ir.Nest{nest}, wp())
	if want := `ir: bad loop i: unbound variable "q" in bound q`; err == nil || err.Error() != want {
		t.Fatalf("got %v, want %s", err, want)
	}
}

func TestGraphString(t *testing.T) {
	p := ir.Jacobi()
	g := mustGraph(t, p, p.Nests)
	s := g.String()
	if len(s) == 0 || s[:6] != "nodes:" {
		t.Fatalf("String = %q", s)
	}
}

// TestStencilAlignment: the Section 1 "neighboring data" case — every
// affinity edge of the five-point stencil has a constant offset, so U and
// W align dimension-wise and the distribution needs no collective
// communication, only nearest-neighbour shifts.
func TestStencilAlignment(t *testing.T) {
	p := ir.Stencil()
	g := mustGraph(t, p, p.Nests)
	pt, err := ExactAlign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if assignOf(t, pt, "U", 0) != assignOf(t, pt, "W", 0) {
		t.Error("U1 must align with W1")
	}
	if assignOf(t, pt, "U", 1) != assignOf(t, pt, "W", 1) {
		t.Error("U2 must align with W2")
	}
	// The aligned partition cuts nothing: all edges are within subsets.
	if pt.Cut != 0 {
		t.Errorf("stencil alignment cut = %v, want 0", pt.Cut)
	}
}

// TestStencilOffsetsAreAffinityEdges: the +-1 offsets still produce
// affinity edges (constant subscript difference).
func TestStencilOffsetsAreAffinityEdges(t *testing.T) {
	p := ir.Stencil()
	g := mustGraph(t, p, p.Nests)
	found := false
	for _, e := range g.Edges {
		if (e.From.String() == "U1" && e.To.String() == "W1") ||
			(e.From.String() == "W1" && e.To.String() == "U1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no U1-W1 affinity edge despite constant offsets:\n%s", g)
	}
}

// TestCannon3DGridAlignment: Section 2 notes "it is possible to use
// higher dimensional grids for achieving faster computation. For example,
// we can use a 3-D grid for computing the 3-nested-loop matrix
// multiplication algorithm, although each data array used in the
// algorithm is 2-D." With q=3 the exact alignment spreads the six array
// dimensions over three grid dimensions so that no affinity edge is cut.
func TestCannon3DGridAlignment(t *testing.T) {
	p := matmul()
	g := mustGraph(t, p, p.Nests)
	pt, err := ExactAlign(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Cut != 0 {
		t.Errorf("3-D alignment cut = %v, want 0 (i, j, k each get a grid dim)", pt.Cut)
	}
	// The i-dims {A1, B1}, j-dims {A2, C2} and k-dims {B2, C1} must pair up.
	if assignOf(t, pt, "A", 0) != assignOf(t, pt, "B", 0) {
		t.Error("A1 and B1 (both subscript i) must share a grid dim")
	}
	if assignOf(t, pt, "A", 1) != assignOf(t, pt, "C", 1) {
		t.Error("A2 and C2 (both subscript j) must share a grid dim")
	}
	// Note: no B2-C1 edge exists under the BuildGraph rule — B(i,k) and
	// C(k,j) are both partially anchored to the LHS A(i,j), so both must
	// travel to the (i,j) owner no matter how k is mapped; Cannon's k
	// alignment comes from the rotation schemes of Section 2.1 (Fig 1
	// b/c), not from the affinity graph. The 3-D grid still gives every
	// dimension pair its own grid dimension at zero cut, which is the
	// paper's point.
	// With k unconstrained the aligner may or may not use the third grid
	// dimension; what matters is that a 3-subset partition is feasible at
	// zero cut for 2-D arrays on a 3-D grid (each array uses two of the
	// three dims, the rest replicated/fixed per Section 2.1).
	for s := 0; s < 3; s++ {
		_ = pt.Subset(g, s)
	}
}

// TestAffinityReplayEqualsBuildGraph: the graph of every segment (i, j)
// replayed from per-nest increments equals the graph BuildGraph walks
// out of that segment's statements — nodes, edge order, weights bit for
// bit (same additions in the same order) and contributing lines.
func TestAffinityReplayEqualsBuildGraph(t *testing.T) {
	for _, p := range []*ir.Program{ir.Synthetic(10), ir.Gauss(), ir.Jacobi(), ir.SOR()} {
		aff := NewAffinity(lowered(t, p), wp())
		for lo := 0; lo < len(p.Nests); lo++ {
			for hi := lo + 1; hi <= len(p.Nests); hi++ {
				got := aff.Graph(lo, hi)
				want := mustGraph(t, p, p.Nests[lo:hi])
				if !slices.Equal(got.Nodes, want.Nodes) || len(got.Edges) != len(want.Edges) {
					t.Fatalf("%s nests [%d,%d): replayed\n%s\nbuilt\n%s", p.Name, lo, hi, got, want)
				}
				for k, e := range want.Edges {
					r := got.Edges[k]
					if r.From != e.From || r.To != e.To || r.Weight != e.Weight || !slices.Equal(r.Lines, e.Lines) {
						t.Fatalf("%s nests [%d,%d) edge %d: replayed %+v, built %+v", p.Name, lo, hi, k, r, e)
					}
				}
			}
		}
	}
}

// TestGraphEdgeOrder pins the edge order to the endpoint names as
// strings — "A10" sorts before "A2" — which is what partitioning has
// always summed weights in, not node position.
func TestGraphEdgeOrder(t *testing.T) {
	m, i := ir.V("m"), ir.V("i")
	p := &ir.Program{Params: []string{"m"}, Arrays: map[string]*ir.Array{
		"A":  {Name: "A", Extents: []ir.Affine{m, m}},
		"A1": {Name: "A1", Extents: []ir.Affine{m}},
		"B":  {Name: "B", Extents: []ir.Affine{m}},
	}}
	p.Nests = []*ir.Nest{{
		Loops: []ir.Loop{{Index: "i", Lo: ir.Const(1), Hi: m, Step: 1}},
		Stmts: []*ir.Stmt{{Line: 1, Depth: 1, LHS: ir.R("B", i), Reads: []ir.Ref{ir.R("A", i, i), ir.R("A1", i)}}},
	}}
	var order []string
	for _, e := range mustGraph(t, p, p.Nests).Edges {
		order = append(order, e.From.String())
	}
	if want := []string{"A1", "A11", "A2"}; !slices.Equal(order, want) {
		t.Errorf("edge sources in order %v, want %v", order, want)
	}
}

// denseGraph is a random dense affinity graph over k two-dimensional
// arrays (2k nodes): every pair of dimensions of different arrays is an
// edge with probability 0.7, weights 1..100 — the shape ExactMaxNodes was
// measured on.
func denseGraph(rng *rand.Rand, k int) *Graph {
	g := &Graph{index: map[ir.DimID]int{}, ArrayDims: map[string][]int{}}
	for a := 0; a < k; a++ {
		name := fmt.Sprintf("A%02d", a)
		for d := 0; d < 2; d++ {
			id := ir.DimID{Array: name, Dim: d}
			g.index[id] = len(g.Nodes)
			g.ArrayDims[name] = append(g.ArrayDims[name], len(g.Nodes))
			g.Nodes = append(g.Nodes, id)
		}
	}
	for i := range g.Nodes {
		for j := i + 1; j < len(g.Nodes); j++ {
			if g.Nodes[i].Array != g.Nodes[j].Array && rng.Float64() < 0.7 {
				g.Edges = append(g.Edges, Edge{From: g.Nodes[i], To: g.Nodes[j], Weight: float64(rng.Intn(100) + 1)})
			}
		}
	}
	return g
}

// TestAlignChoosesByNodeCount: Align searches exactly up to ExactMaxNodes
// nodes and takes the heuristic one node later, and either way returns
// what the algorithm it names returns.
func TestAlignChoosesByNodeCount(t *testing.T) {
	for _, c := range []struct {
		nodes int
		want  string
	}{{ExactMaxNodes - 1, "exact"}, {ExactMaxNodes, "exact"}, {ExactMaxNodes + 1, "greedy"}} {
		// A chain of one-dimensional arrays: every node fits one subset, so
		// the exact search is over at its first leaf.
		g := &Graph{index: map[ir.DimID]int{}, ArrayDims: map[string][]int{}}
		for a := 0; a < c.nodes; a++ {
			id := ir.DimID{Array: fmt.Sprintf("V%02d", a)}
			g.index[id] = a
			g.ArrayDims[id.Array] = []int{a}
			g.Nodes = append(g.Nodes, id)
			if a > 0 {
				g.Edges = append(g.Edges, Edge{From: g.Nodes[a-1], To: id, Weight: 1})
			}
		}
		got, err := Align(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := map[string]func(*Graph, int) (Partition, error){"exact": ExactAlign, "greedy": GreedyAlign}[c.want](g, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got.Method != c.want || !reflect.DeepEqual(got, want) {
			t.Errorf("%d nodes: Align ran %q (cut %v), want %s's answer (cut %v)", c.nodes, got.Method, got.Cut, c.want, want.Cut)
		}
	}
}

// TestInTreeProgramsAlignExactly: every program the tree builds — the
// paper's four, the stencil and Synthetic(s) through s = 32 — is under
// ExactMaxNodes, so Align is ExactAlign for all of them, whole program and
// nest by nest, and no partition moved when the choice left the user.
func TestInTreeProgramsAlignExactly(t *testing.T) {
	progs := []*ir.Program{ir.Jacobi(), ir.SOR(), ir.Gauss(), matmul(), ir.Stencil()}
	for s := 4; s <= 32; s++ {
		progs = append(progs, ir.Synthetic(s))
	}
	for _, p := range progs {
		if n := len(p.AllDims()); n > ExactMaxNodes {
			t.Errorf("%s has %d affinity nodes, past ExactMaxNodes = %d", p.Name, n, ExactMaxNodes)
			continue
		}
		aff := NewAffinity(lowered(t, p), wp())
		for lo := 0; lo <= len(p.Nests); lo++ {
			for _, hi := range []int{lo + 1, len(p.Nests)} {
				if hi > len(p.Nests) || hi <= lo {
					continue
				}
				g := aff.Graph(lo, hi)
				got, err := Align(g, 2)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := ExactAlign(g, 2)
				if got.Method != "exact" || !reflect.DeepEqual(got, want) {
					t.Errorf("%s nests %d..%d: Align ran %q, cut %v; ExactAlign cut %v", p.Name, lo, hi, got.Method, got.Cut, want.Cut)
				}
			}
		}
	}
}

// BenchmarkAlignDense times both aligners on dense graphs of k
// two-dimensional arrays — the measurement behind ExactMaxNodes and the
// table in EXPERIMENTS.md ("Alignment: exact against greedy").
func BenchmarkAlignDense(b *testing.B) {
	for _, k := range []int{8, 10, 12, 14, 16, 18, 20, 30} {
		g := denseGraph(rand.New(rand.NewSource(int64(k))), k)
		for _, a := range []struct {
			name string
			fn   func(*Graph, int) (Partition, error)
		}{{"exact", ExactAlign}, {"greedy", GreedyAlign}} {
			if a.name == "exact" && k > 20 {
				continue // doubles per array: over 100 ms at k = 20
			}
			b.Run(fmt.Sprintf("%s/k=%d", a.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := a.fn(g, 2); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
