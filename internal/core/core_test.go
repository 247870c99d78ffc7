package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"dmcc/internal/align"
	"dmcc/internal/cost"
	"dmcc/internal/dist"
	"dmcc/internal/ir"
)

func jacobiCompiler(m, n int) *Compiler {
	return NewCompiler(ir.Jacobi(), cost.Unit(), map[string]int{"m": m}, n)
}

func TestGridShapes(t *testing.T) {
	s := GridShapes(16)
	if len(s) != 3 || s[0] != [2]int{16, 1} || s[1] != [2]int{1, 16} || s[2] != [2]int{4, 4} {
		t.Fatalf("shapes = %v", s)
	}
	if len(GridShapes(6)) != 2 {
		t.Fatal("non-square N must yield 2 shapes")
	}
	if len(GridShapes(1)) != 2 {
		t.Fatalf("N=1 shapes = %v", GridShapes(1))
	}
}

func TestTriangular(t *testing.T) {
	j := ir.Jacobi()
	if Triangular(j.Nests[0]) || Triangular(j.Nests[1]) {
		t.Fatal("Jacobi nests are rectangular")
	}
	g := ir.Gauss()
	if !Triangular(g.Nests[0]) {
		t.Fatal("Gauss G1 is triangular")
	}
	if Triangular(g.Nests[1]) {
		t.Fatal("Gauss G2 is rectangular")
	}
	if !Triangular(g.Nests[2]) {
		t.Fatal("Gauss G3 is triangular")
	}
}

func TestDeriveSchemesJacobiRow(t *testing.T) {
	c := jacobiCompiler(16, 4)
	pt, err := c.partition(1, len(c.Program.Nests)) // L2: everything with A1
	if err != nil {
		t.Fatal(err)
	}
	ss, err := DeriveSchemes(c.an, pt, [2]int{4, 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	// A row-blocked: A(5,3) on processor (1,0).
	coords := ss.Schemes["A"].GridCoords(ss.Grid, 5, 3)
	if coords[0] != 1 || coords[1] != 0 {
		t.Fatalf("A(5,3) coords = %v", coords)
	}
	// X blocked along the same dimension: X(5) on rank of (1,0).
	xo := ss.Schemes["X"].Owners(ss.Grid, 5)
	if len(xo) != 1 || xo[0] != ss.Grid.Rank(1, 0) {
		t.Fatalf("X(5) owners = %v", xo)
	}
}

// TestAlgorithm1JacobiMatchesSection4: the DP must find the row scheme
// with total per-iteration cost (2m^2/N + 3m/N)tf + ~m tc and beat the
// whole-program Section 3 baseline.
func TestAlgorithm1JacobiMatchesSection4(t *testing.T) {
	m, n := 32, 4
	c := jacobiCompiler(m, n)
	res, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	fm, fn := float64(m), float64(n)
	wantComp := 2*fm*fm/fn + 3*fm/fn
	// Loop-carried X broadcast: every processor needs the m - m/N
	// elements it does not own.
	wantLC := fm - fm/fn

	segTotal := res.DP.SegmentTotal
	if math.Abs(segTotal-wantComp) > 1e-9 {
		t.Errorf("segment total = %v, want computation-only %v (schemes should make L1+L2 local)", segTotal, wantComp)
	}
	if math.Abs(res.DP.LoopCarried-wantLC) > 1e-9 {
		t.Errorf("loop-carried = %v, want %v", res.DP.LoopCarried, wantLC)
	}
	if res.DP.MinimumCost >= res.WholeProgramCost {
		t.Errorf("DP cost %v must beat whole-program cost %v", res.DP.MinimumCost, res.WholeProgramCost)
	}
	// The chosen final segment must be on an Nx1 grid (row distribution).
	last := res.DP.Segments[len(res.DP.Segments)-1]
	if last.Schemes.Grid.Extent(0) != n || last.Schemes.Grid.Extent(1) != 1 {
		t.Errorf("final grid = %v, want %dx1", last.Schemes.Grid, n)
	}
	// Segments must cover loops 1..2 contiguously.
	covered := 0
	for _, s := range res.DP.Segments {
		if s.Start != covered+1 {
			t.Errorf("segment %v does not continue coverage at %d", s, covered+1)
		}
		covered += s.Len
	}
	if covered != 2 {
		t.Errorf("covered %d loops", covered)
	}
}

// TestLoopCarriedCostRejectsInvalidSchemes: nest counts trust the scheme
// sets they price, so LoopCarriedCost, which takes its set from the
// caller, validates it first: a scheme on a grid dimension the grid lacks
// and a missing scheme are errors naming the array, a derived set prices.
func TestLoopCarriedCostRejectsInvalidSchemes(t *testing.T) {
	c := jacobiCompiler(32, 4)
	_, good, err := c.SegmentCost(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoopCarriedCost(good); err != nil {
		t.Fatalf("derived set: %v", err)
	}
	offGrid := &SchemeSet{Grid: good.Grid, Schemes: map[string]dist.Scheme{}}
	for name, s := range good.Schemes {
		offGrid.Schemes[name] = s
	}
	offGrid.Schemes["X"] = dist.Scheme1D(dist.BlockContiguous(32, 4, 2), nil)
	missing := &SchemeSet{Grid: good.Grid, Schemes: map[string]dist.Scheme{}}
	for name, s := range good.Schemes {
		if name != "X" {
			missing.Schemes[name] = s
		}
	}
	for label, ss := range map[string]*SchemeSet{"off the grid": offGrid, "missing": missing} {
		if _, err := c.LoopCarriedCost(ss); err == nil || !strings.Contains(err.Error(), " X") {
			t.Errorf("X's scheme %s: got %v, want an error naming X", label, err)
		}
	}
}

// TestFig3CostStructure: the two-segment decomposition of Fig 3 — L1 cost,
// change cost, L2 cost, loop-carried cost — evaluated explicitly.
func TestFig3CostStructure(t *testing.T) {
	m, n := 32, 4
	c := jacobiCompiler(m, n)
	m1, p1, err := c.SegmentCost(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, p2, err := c.SegmentCost(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	chg, err := c.ChangeCost(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := c.LoopCarriedCost(p2)
	if err != nil {
		t.Fatal(err)
	}
	fm, fn := float64(m), float64(n)
	if math.Abs(m1-2*fm*fm/fn) > 1e-9 {
		t.Errorf("Time1 = %v, want %v", m1, 2*fm*fm/fn)
	}
	if math.Abs(m2-3*fm/fn) > 1e-9 {
		t.Errorf("Time2 = %v, want %v", m2, 3*fm/fn)
	}
	if chg != 0 {
		t.Errorf("CTime1 = %v, want 0 (paper: no data movement L1->L2)", chg)
	}
	if math.Abs(lc-(fm-fm/fn)) > 1e-9 {
		t.Errorf("CTime2 = %v, want %v", lc, fm-fm/fn)
	}
	total := m1 + m2 + chg + lc
	res, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if res.DP.MinimumCost > total+1e-9 {
		t.Errorf("DP cost %v exceeds explicit two-segment cost %v", res.DP.MinimumCost, total)
	}
}

func TestChangeCostSymmetricSchemes(t *testing.T) {
	c := jacobiCompiler(16, 4)
	_, p1, err := c.SegmentCost(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if chg, err := c.ChangeCost(p1, p1); err != nil || chg != 0 {
		t.Fatalf("self change cost = %v, %v", chg, err)
	}
	if _, err := c.ChangeCost(nil, p1); err == nil {
		t.Fatal("nil scheme set not rejected")
	}
}

func TestChangeCostRowToColumn(t *testing.T) {
	// Forcing a row->column switch must cost roughly the off-diagonal
	// blocks of A: m^2 (1 - 1/N) words spread over N processors.
	m, n := 16, 4
	c := jacobiCompiler(m, n)
	pt1, err := c.partition(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := DeriveSchemes(c.an, pt1, [2]int{n, 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := DeriveSchemes(c.an, pt1, [2]int{1, n}, false)
	if err != nil {
		t.Fatal(err)
	}
	chg, err := c.ChangeCost(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	if chg <= 0 {
		t.Fatalf("row->column change cost = %v, want > 0", chg)
	}
}

func TestCompileGaussPicksCyclicRing(t *testing.T) {
	m, n := 12, 4
	c := NewCompiler(ir.Gauss(), cost.Unit(), map[string]int{"m": m}, n)
	res, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// Triangular nests force cyclic distributions.
	for _, seg := range res.DP.Segments {
		hasTri := false
		for t2 := seg.Start - 1; t2 < seg.Start-1+seg.Len; t2++ {
			if Triangular(c.Program.Nests[t2]) {
				hasTri = true
			}
		}
		if hasTri && !seg.Schemes.Cyclic {
			t.Errorf("triangular segment %+v not cyclic", seg)
		}
	}
	// Every analysed nest must be pipelinable (Section 6's conclusion).
	if len(res.Pipelining) == 0 {
		t.Fatal("no pipelining analysis produced")
	}
	for _, d := range res.Pipelining {
		if !d.CanPipeline {
			t.Errorf("nest %s not pipelinable under mapping %v", d.Mapping.Nest, d.Mapping)
		}
	}
}

func TestCompileSOR(t *testing.T) {
	c := NewCompiler(ir.SOR(), cost.Unit(), map[string]int{"m": 16}, 4)
	res, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DP.Segments) != 1 {
		t.Fatalf("SOR has one nest; segments = %d", len(res.DP.Segments))
	}
	if len(res.Pipelining) != 1 || !res.Pipelining[0].CanPipeline {
		t.Fatalf("SOR must be pipelinable: %+v", res.Pipelining)
	}
}

// TestManyArrayProgramAlignsGreedily: thirty two-dimensional arrays are 60
// affinity nodes, past align.ExactMaxNodes, where one exact search of a
// segment takes minutes. The compile takes the heuristic for every
// segment, says so, counts it, and is done in well under two seconds.
func TestManyArrayProgramAlignsGreedily(t *testing.T) {
	src, err := ir.Listing("manyarrays")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(p.AllDims()); n != 60 || n <= align.ExactMaxNodes {
		t.Fatalf("%d affinity nodes, want 60 (> ExactMaxNodes = %d)", n, align.ExactMaxNodes)
	}
	c := NewCompiler(p, cost.Unit(), map[string]int{"m": 16}, 4)
	c.Engines = &EngineStats{}
	start := time.Now()
	res, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("compile took %v", d)
	}
	for _, seg := range res.DP.Segments {
		if m := seg.Schemes.Partition.Method; m != "greedy" {
			t.Errorf("segment L%d..L%d aligned by %q, want greedy", seg.Start, seg.Start+seg.Len-1, m)
		}
	}
	// One alignment per DP cell of the three nests.
	if got := c.Engines.Snapshot()["greedy_alignments"]; got != 6 {
		t.Errorf("greedy_alignments = %d, want 6", got)
	}
}

func TestSegmentCostErrors(t *testing.T) {
	c := jacobiCompiler(8, 4)
	if _, _, err := c.SegmentCost(0, 1); err == nil {
		t.Fatal("segment (0,1) accepted")
	}
	if _, _, err := c.SegmentCost(1, 3); err == nil {
		t.Fatal("segment past end accepted")
	}
}

func TestRunDPWithSyntheticCosts(t *testing.T) {
	// Three loops: loops 1 and 2 share a cheap common scheme, loop 3
	// prefers a different one; switching costs 5.
	mk := func(label string) *SchemeSet { return &SchemeSet{Label: label} }
	pa, pb := mk("a"), mk("b")
	coster := &fakeCoster{
		m: map[[2]int]struct {
			c  float64
			ss *SchemeSet
		}{
			{1, 1}: {10, pa}, {1, 2}: {15, pa}, {1, 3}: {100, pa},
			{2, 1}: {10, pa}, {2, 2}: {80, pa},
			{3, 1}: {20, pb},
		},
		change: func(f, t *SchemeSet) float64 {
			if f == t {
				return 0
			}
			return 5
		},
	}
	res, err := RunDP(3, coster, false)
	if err != nil {
		t.Fatal(err)
	}
	// Best: [1,2] as one segment (15) + [3] (20) + change 5 = 40.
	if math.Abs(res.MinimumCost-40) > 1e-9 {
		t.Fatalf("min cost = %v, want 40", res.MinimumCost)
	}
	if len(res.Segments) != 2 || res.Segments[0].Len != 2 || res.Segments[1].Start != 3 {
		t.Fatalf("segments = %+v", res.Segments)
	}
}

func TestRunDPSingleLoop(t *testing.T) {
	pa := &SchemeSet{Label: "a"}
	coster := &fakeCoster{
		m: map[[2]int]struct {
			c  float64
			ss *SchemeSet
		}{{1, 1}: {7, pa}},
		change: func(f, t *SchemeSet) float64 { return 0 },
		lc:     3,
	}
	res, err := RunDP(1, coster, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.MinimumCost != 10 || res.LoopCarried != 3 {
		t.Fatalf("res = %+v", res)
	}
	if _, err := RunDP(0, coster, false); err == nil {
		t.Fatal("s=0 accepted")
	}
}

type fakeCoster struct {
	m map[[2]int]struct {
		c  float64
		ss *SchemeSet
	}
	change func(f, t *SchemeSet) float64
	lc     float64
}

func (f *fakeCoster) SegmentCost(i, j int) (float64, *SchemeSet, error) {
	v, ok := f.m[[2]int{i, j}]
	if !ok {
		return math.Inf(1), &SchemeSet{Label: "inf"}, nil
	}
	return v.c, v.ss, nil
}
func (f *fakeCoster) ChangeCost(a, b *SchemeSet) (float64, error) { return f.change(a, b), nil }
func (f *fakeCoster) LoopCarriedCost(s *SchemeSet) (float64, error) {
	return f.lc, nil
}

func TestDistributedDim(t *testing.T) {
	c := jacobiCompiler(16, 4)
	_, ss, err := c.SegmentCost(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := distributedDim(ss, "A"); d != 0 {
		t.Fatalf("A distributed dim = %d under %v", d, ss)
	}
	if d := distributedDim(ss, "nope"); d != -1 {
		t.Fatal("missing array must report -1")
	}
}

func TestSchemeSetString(t *testing.T) {
	var ss *SchemeSet
	if ss.String() != "<nil>" {
		t.Fatal("nil String wrong")
	}
	c := jacobiCompiler(8, 4)
	_, p1, err := c.SegmentCost(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p1.String() == "" {
		t.Fatal("empty String")
	}
}

func TestDeriveSchemesValidatesAll(t *testing.T) {
	// All schemes in a derived set must be valid for their arrays.
	m, n := 10, 4
	c := NewCompiler(ir.Gauss(), cost.Unit(), map[string]int{"m": m}, n)
	pt, err := c.partition(0, len(c.Program.Nests))
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range GridShapes(n) {
		for _, cyc := range []bool{false, true} {
			ss, err := DeriveSchemes(c.an, pt, shape, cyc)
			if err != nil {
				t.Fatalf("shape %v cyclic %v: %v", shape, cyc, err)
			}
			for name := range c.Program.Arrays {
				if _, ok := ss.Schemes[name]; !ok {
					t.Fatalf("array %s missing", name)
				}
			}
		}
	}
	_ = dist.All
}

// TestChangeCostMatchesOracle: on every ordered pair of the compiler's
// own candidate scheme sets — each grid shape of N, block and cyclic —
// the integer ChangeCost equals the element-enumeration oracle's float
// accumulation bit for bit where the replica denominator is a power of
// two (the splits are then dyadic), and to 1e-12 relative otherwise;
// each pair that is not bit-equal is logged.
func TestChangeCostMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		prog *ir.Program
		n    int
	}{
		{ir.Jacobi(), 16}, {ir.SOR(), 16}, {ir.Gauss(), 16},
		{ir.Jacobi(), 9}, {ir.SOR(), 9}, {ir.Gauss(), 9},
		{ir.Jacobi(), 12}, {ir.SOR(), 12}, {ir.Gauss(), 12},
	} {
		prog, m, n := tc.prog, 16, tc.n
		c := NewCompiler(prog, cost.Unit(), map[string]int{"m": m}, n)
		pt, err := c.partition(0, len(c.Program.Nests))
		if err != nil {
			t.Fatal(err)
		}
		var sets []*SchemeSet
		for _, shape := range GridShapes(n) {
			for _, cyc := range []bool{false, true} {
				ss, err := DeriveSchemes(c.an, pt, shape, cyc)
				if err != nil {
					t.Fatalf("%s shape %v: %v", prog.Name, shape, err)
				}
				sets = append(sets, ss)
			}
		}
		oracle := NewCompiler(prog, cost.Unit(), map[string]int{"m": m}, n)
		oracle.ExactChangeCost = true
		for _, from := range sets {
			for _, to := range sets {
				fast, err := c.ChangeCost(from, to)
				if err != nil {
					t.Fatal(err)
				}
				exact, err := oracle.ChangeCost(from, to)
				if err != nil {
					t.Fatal(err)
				}
				var sl dist.ScaledLoads
				if err := c.changeLoads(from, to, &sl); err != nil {
					t.Fatal(err)
				}
				if fast == exact {
					continue
				}
				if sl.Den&(sl.Den-1) == 0 || math.Abs(fast-exact) > 1e-12*math.Abs(exact) {
					t.Fatalf("%s N=%d: %s -> %s: closed form %v, oracle %v (denominator %d)",
						prog.Name, n, from.Label, to.Label, fast, exact, sl.Den)
				}
				t.Logf("%s N=%d: %s -> %s: closed form %v, oracle %v (denominator %d)",
					prog.Name, n, from.Label, to.Label, fast, exact, sl.Den)
			}
		}
	}
}
