package cost

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"dmcc/internal/dist"
	"dmcc/internal/grid"
	"dmcc/internal/ir"
)

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// randDim mirrors the dist package's property-test generator: a valid Dim
// for a dimension of the given size on a grid dimension of extent n.
func randDim(rng *rand.Rand, size, n, gridDim int) dist.Dim {
	if rng.Intn(4) == 0 {
		return dist.Dim{Replicated: true, GridDim: gridDim}
	}
	d := dist.Dim{Sign: 1, Block: 1 + rng.Intn(4), Cyclic: rng.Intn(2) == 0, GridDim: gridDim}
	if rng.Intn(3) == 0 {
		d.Sign = -1
	}
	if d.Sign == 1 {
		d.Disp = -1 + rng.Intn(4)
	} else {
		d.Disp = size + rng.Intn(3)
	}
	if !d.Cyclic {
		zmax := d.Sign*size + d.Disp
		if d.Sign == -1 {
			zmax = d.Disp - 1
		}
		d.Block = ceilDiv(zmax+1, n)
		if d.Block < 1 {
			d.Block = 1
		}
		d.Block += rng.Intn(2)
	}
	return d
}

func randScheme(rng *rand.Rand, g *grid.Grid, shape []int) dist.Scheme {
	dims := rng.Perm(g.Q())[:len(shape)]
	s := dist.Scheme{Fixed: map[int]int{}}
	for k, size := range shape {
		s.Dims = append(s.Dims, randDim(rng, size, g.Extent(dims[k]), dims[k]))
	}
	if len(shape) == 2 && !s.Dims[0].Replicated && !s.Dims[1].Replicated && rng.Intn(5) == 0 {
		s.Rot = dist.Rotation(1 + rng.Intn(2))
		s.D1 = 1 - 2*rng.Intn(2)
		s.D2 = 1 - 2*rng.Intn(2)
	}
	used := map[int]bool{}
	for _, d := range s.Dims {
		used[d.GridDim] = true
	}
	for gd := 0; gd < g.Q(); gd++ {
		if used[gd] {
			continue
		}
		if rng.Intn(2) == 0 {
			s.Fixed[gd] = dist.All
		} else {
			s.Fixed[gd] = rng.Intn(g.Extent(gd))
		}
	}
	return s
}

// testArrays is the array set of the randomized and table tests: two
// m×m matrices and two m-vectors.
func testArrays() map[string]*ir.Array {
	m := ir.V("m")
	return map[string]*ir.Array{
		"A": {Name: "A", Extents: []ir.Affine{m, m}},
		"C": {Name: "C", Extents: []ir.Affine{m, m}},
		"B": {Name: "B", Extents: []ir.Affine{m}},
		"X": {Name: "X", Extents: []ir.Affine{m}},
	}
}

// randNestProgram builds a random affine nest over a fixed set of arrays:
// 1-3 loops (occasionally triangular, empty, or downward), statements at
// random depths with random affine references (offsets, reversed
// subscripts, diagonals), and occasional reductions — the program class
// the counting engines must agree on.
func randNestProgram(rng *rand.Rand, m int) *ir.Program {
	p := &ir.Program{
		Name:   "rand",
		Arrays: testArrays(),
		Params: []string{"m"},
	}
	depth := 1 + rng.Intn(3)
	vars := []string{"i", "j", "k"}[:depth]
	nest := &ir.Nest{Label: "R1"}
	// Conservative per-level value bounds for in-range subscript offsets.
	loMin := make([]int, depth)
	hiMax := make([]int, depth)
	for l := 0; l < depth; l++ {
		lo := 1 + rng.Intn(2)
		hi := m - rng.Intn(2)
		loA, hiA := ir.Const(lo), ir.Const(hi)
		loMin[l], hiMax[l] = lo, hi
		if l > 0 && rng.Intn(6) == 0 {
			// Triangular: lower bound follows an outer index.
			loA = ir.V(vars[rng.Intn(l)])
			loMin[l] = 1
		} else if rng.Intn(12) == 0 {
			loA, hiA = ir.Const(3), ir.Const(2) // empty range
			loMin[l], hiMax[l] = 3, 2
		}
		step := 1
		if rng.Intn(4) == 0 {
			step = -1
			loA, hiA = hiA, loA
		}
		nest.Loops = append(nest.Loops, ir.Loop{Index: vars[l], Lo: loA, Hi: hiA, Step: step})
	}
	randSub := func(scope int) ir.Affine {
		if rng.Intn(4) == 0 {
			return ir.Const(1 + rng.Intn(m))
		}
		l := rng.Intn(scope)
		if rng.Intn(4) == 0 {
			// Reversed: c - v with c keeping values in [1, m].
			c := hiMax[l] + 1
			if c+loMin[l] <= m+loMin[l] && rng.Intn(2) == 0 && c+1 <= m+loMin[l] {
				c++
			}
			return ir.NewAffine(c, ir.Term{Var: vars[l], Coeff: -1})
		}
		cLo, cHi := 1-loMin[l], m-hiMax[l]
		c := 0
		switch {
		case cLo <= -1 && rng.Intn(3) == 0:
			c = -1
		case cHi >= 1 && rng.Intn(3) == 0:
			c = 1
		}
		return ir.NewAffine(c, ir.Term{Var: vars[l], Coeff: 1})
	}
	names := []string{"A", "C", "B", "X"}
	randRef := func(scope int) ir.Ref {
		name := names[rng.Intn(len(names))]
		arr := p.Arrays[name]
		if arr.Rank() == 1 {
			return ir.R(name, randSub(scope))
		}
		if rng.Intn(4) == 0 && scope > 0 {
			// Diagonal: both subscripts driven by the same variable.
			return ir.R(name, randSub(scope), randSub(scope))
		}
		return ir.R(name, randSub(scope), randSub(scope))
	}
	diagRef := func(scope int) ir.Ref {
		l := rng.Intn(scope)
		v := ir.NewAffine(0, ir.Term{Var: vars[l], Coeff: 1})
		w := v
		if hiMax[l] < m {
			w = ir.NewAffine(1, ir.Term{Var: vars[l], Coeff: 1})
		}
		return ir.R("A", v, w)
	}
	nStmts := 1 + rng.Intn(2)
	for si := 0; si < nStmts; si++ {
		d := 1 + rng.Intn(depth)
		st := &ir.Stmt{Line: si + 1, Depth: d, Flops: 1 + rng.Intn(3)}
		st.LHS = randRef(d)
		nr := 1 + rng.Intn(2)
		for r := 0; r < nr; r++ {
			if rng.Intn(5) == 0 && d > 0 {
				st.Reads = append(st.Reads, diagRef(d))
			} else {
				st.Reads = append(st.Reads, randRef(d))
			}
		}
		if rng.Intn(3) == 0 {
			st.Reduce = true
			// Reductions read their accumulator.
			st.Reads = append(st.Reads, st.LHS)
		}
		nest.Stmts = append(nest.Stmts, st)
	}
	p.Nests = []*ir.Nest{nest}
	return p
}

// lowered is p under bind, lowered the way a compiler does once.
func lowered(t *testing.T, p *ir.Program, bind map[string]int) *ir.Lowered {
	t.Helper()
	lw, err := p.Lower(bind)
	if err != nil {
		t.Fatal(err)
	}
	return lw
}

func countsEqual(t *testing.T, label string, got, want Counts) {
	t.Helper()
	if got != want {
		t.Errorf("%s: got %+v, want %+v", label, got, want)
	}
}

// randSchemes draws one scheme per array in sorted name order, so a seed
// always replays the same case stream (ranging the p.Arrays map here made
// every run explore a different one).
func randSchemes(t *testing.T, rng *rand.Rand, p *ir.Program, g *grid.Grid, m int) map[string]dist.Scheme {
	t.Helper()
	names := make([]string, 0, len(p.Arrays))
	for name := range p.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	schemes := map[string]dist.Scheme{}
	for _, name := range names {
		shape := make([]int, p.Arrays[name].Rank())
		for k := range shape {
			shape[k] = m
		}
		schemes[name] = randScheme(rng, g, shape)
		if err := schemes[name].Validate(g, shape); err != nil {
			t.Fatalf("invalid scheme for %s: %v", name, err)
		}
	}
	return schemes
}

// describeNest renders the loops, statements and schemes of a failing
// case, enough to rebuild it as a table test.
func describeNest(nest *ir.Nest, schemes map[string]dist.Scheme) string {
	var b strings.Builder
	for _, l := range nest.Loops {
		fmt.Fprintf(&b, "  loop %s = %s..%s step %d\n", l.Index, l.Lo, l.Hi, l.Step)
	}
	for _, st := range nest.Stmts {
		fmt.Fprintf(&b, "  stmt depth=%d flops=%d reduce=%v %s <- %v\n", st.Depth, st.Flops, st.Reduce, st.LHS, st.Reads)
	}
	names := make([]string, 0, len(schemes))
	for name := range schemes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  scheme %s: %+v\n", name, schemes[name])
	}
	return b.String()
}

// checkAgainstOracle prices one nest through the production dispatcher
// and, when the closed forms answered, requires the reference enumeration
// to agree word for word — on the Counts and, rank by rank, on the
// per-processor flops and words in and out behind them, so a word billed
// to the wrong sender fails even when no maximum moves. It returns whether
// the closed forms answered; a declined nest was priced by the oracle
// itself (TestDeclinedNestsReachTheOracle), so there is nothing to compare.
func checkAgainstOracle(t *testing.T, label string, p *ir.Program, schemes map[string]dist.Scheme, g *grid.Grid, bind map[string]int, opts CountOptions) bool {
	t.Helper()
	nest := p.Nests[0]
	var gotRanks, wantRanks rankTally
	opts.tally = &gotRanks
	got, eng, err := dispatch(p, schemes, g, bind, opts)
	if err != nil {
		t.Fatalf("%s: dispatcher: %v", label, err)
	}
	if eng != EngineAnalytic {
		return false
	}
	opts.tally = &wantRanks
	want, err := CountNestOptsExact(p, nest, schemes, g, bind, opts)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	if got != want || !slices.Equal(gotRanks.flops, wantRanks.flops) ||
		!slices.Equal(gotRanks.in, wantRanks.in) || !slices.Equal(gotRanks.out, wantRanks.out) {
		t.Fatalf("%s: analytic %+v per rank %+v, oracle %+v per rank %+v\ngrid=%s bind=%v opts=%+v\n%s",
			label, got, gotRanks, want, wantRanks, g, bind, opts, describeNest(nest, schemes))
	}
	return true
}

// dispatch prices nest 0 of p the way CountNestOpts does, through
// CountValidatedNest, and reports which engine answered.
func dispatch(p *ir.Program, schemes map[string]dist.Scheme, g *grid.Grid, bind map[string]int, opts CountOptions) (Counts, Engine, error) {
	lw, t, err := validateNest(p, p.Nests[0], schemes, g, bind)
	if err != nil {
		return Counts{}, EngineExact, err
	}
	return CountValidatedNest(lw, t, schemes, g, opts)
}

// oracleSeeds are the replayable case streams of TestCountNestMatchesOracle.
var oracleSeeds = []int64{42, 43, 44, 45, 46, 47, 48, 49}

// TestCountNestMatchesOracle is the randomized property test of the
// closed forms: they must reproduce the reference enumeration word for
// word across random affine nests, schemes, grid shapes, both loop-step
// signs, reductions, diagonals, filters and the loop-carried pass — and
// whatever they decline must reach the oracle through the dispatcher.
func TestCountNestMatchesOracle(t *testing.T) {
	grids := []*grid.Grid{
		grid.New(4, 1), grid.New(1, 4), grid.New(2, 2), grid.New(2, 3), grid.New(6, 1),
	}
	const trials = 250
	for _, seed := range oracleSeeds {
		rng := rand.New(rand.NewSource(seed))
		analyticHits := 0
		for trial := 0; trial < trials; trial++ {
			g := grids[trial%len(grids)]
			m := 8 + rng.Intn(4)
			bind := map[string]int{"m": m}
			p := randNestProgram(rng, m)
			label := fmt.Sprintf("seed %d trial %d", seed, trial)
			if err := p.Validate(); err != nil {
				t.Fatalf("%s: generated invalid program: %v", label, err)
			}
			schemes := randSchemes(t, rng, p, g, m)
			var opts CountOptions
			switch trial % 4 {
			case 1:
				excl := []string{"A", "C", "B", "X"}[rng.Intn(4)]
				opts.IncludeRead = func(a string) bool { return a != excl }
			case 2:
				opts.Carried = true
			}
			if checkAgainstOracle(t, label, p, schemes, g, bind, opts) {
				analyticHits++
			}
		}
		// The generator produces mostly eligible nests; if the analytic path
		// stops engaging, the closed forms silently stop being tested (and
		// the compiler silently loses its speedup).
		if analyticHits < trials/4 {
			t.Fatalf("seed %d: analytic path engaged on only %d/%d trials", seed, analyticHits, trials)
		}
	}
}

// locateSeeds are the replayable case streams of
// TestCountNestLocatesCellsLikeOracle, apart from oracleSeeds so that
// those streams replay as before.
var locateSeeds = []int64{142, 143, 144, 145, 146, 147}

// TestCountNestLocatesCellsLikeOracle is the property test of the
// needed-words pass's cell location, on grids where location matters:
// wide, tall and N > m grids, so that many ranks own nothing, footprint
// hulls miss most owner cells, and a bill sent to a cell the footprint
// cannot meet — or a cell it can meet left out — shows in the per-rank
// words. Plain and triangular nests alternate (the latter bring the
// banded rects that are located row by row), under random schemes with
// reversed, displaced, cyclic and pinned dims, every fifth trial
// additionally pinned and partially replicated.
func TestCountNestLocatesCellsLikeOracle(t *testing.T) {
	grids := []*grid.Grid{
		grid.New(8, 1), grid.New(1, 16), grid.New(4, 8), grid.New(32, 1), grid.New(3, 5),
	}
	const trials = 250
	for _, seed := range locateSeeds {
		rng := rand.New(rand.NewSource(seed))
		analyticHits := 0
		for trial := 0; trial < trials; trial++ {
			g := grids[trial%len(grids)]
			m := 8 + rng.Intn(4)
			bind := map[string]int{"m": m}
			var p *ir.Program
			if trial%2 == 0 {
				p = randNestProgram(rng, m)
			} else {
				p = randTriangularProgram(rng, m, 2+rng.Intn(2))
			}
			label := fmt.Sprintf("seed %d trial %d", seed, trial)
			if err := p.Validate(); err != nil {
				t.Fatalf("%s: generated invalid program: %v", label, err)
			}
			schemes := randSchemes(t, rng, p, g, m)
			if trial%5 == 4 {
				schemes = pinAndReplicate(schemes, g, rng.Intn(2))
			}
			var opts CountOptions
			if trial%3 == 1 {
				opts.Carried = true
			}
			if checkAgainstOracle(t, label, p, schemes, g, bind, opts) {
				analyticHits++
			}
		}
		if analyticHits < trials/4 {
			t.Fatalf("seed %d: analytic path engaged on only %d/%d trials", seed, analyticHits, trials)
		}
	}
}

// TestCountNestAnalyticJacobi pins the analytic engine to the paper's
// Jacobi nests under both Table 2 schemes: the closed forms must engage
// (ok=true) and agree with the oracle.
func TestCountNestAnalyticJacobi(t *testing.T) {
	p := ir.Jacobi()
	m, n := 16, 4
	bind := map[string]int{"m": m}
	for _, tc := range []struct {
		name    string
		g       *grid.Grid
		schemes map[string]dist.Scheme
	}{
		{"rows", grid.New(n, 1), jacobiRowSchemes(m, n)},
		{"cols", grid.New(1, n), jacobiColSchemes(m, n)},
	} {
		g := tc.g
		for ti, nest := range p.Nests {
			want, err := CountNestOptsExact(p, nest, tc.schemes, g, bind, CountOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, ok, err := countNestAnalytic(lowered(t, p, bind), ti, tc.schemes, g, CountOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%s/%s: analytic engine declined an eligible nest", tc.name, nest.Label)
			}
			countsEqual(t, tc.name+"/"+nest.Label, got, want)
		}
	}
}

// randTriangularProgram builds a random nest whose inner loops carry
// bounds dependent on the outermost (root) variable — gauss's i = k+1..m
// and back-substitution's i = j-1..1 — mixed with constant-bounded
// slots, diagonals, reversed subscripts and reductions. The class the
// triangular extension of the analytic engine must price exactly.
func randTriangularProgram(rng *rand.Rand, m, depth int) *ir.Program {
	p := &ir.Program{
		Name:   "tri",
		Arrays: testArrays(),
		Params: []string{"m"},
	}
	vars := []string{"k", "i", "j"}[:depth]
	nest := &ir.Nest{Label: "T1"}
	loMin := make([]int, depth)
	hiMax := make([]int, depth)
	lo0 := 1 + rng.Intn(2)
	hi0 := m - rng.Intn(2)
	loMin[0], hiMax[0] = lo0, hi0
	rootLoop := ir.Loop{Index: vars[0], Lo: ir.Const(lo0), Hi: ir.Const(hi0), Step: 1}
	if rng.Intn(3) == 0 {
		rootLoop = ir.Loop{Index: vars[0], Lo: ir.Const(hi0), Hi: ir.Const(lo0), Step: -1}
	}
	nest.Loops = append(nest.Loops, rootLoop)
	for l := 1; l < depth; l++ {
		if rng.Intn(3) == 0 {
			// Constant-bounded slot alongside the triangular ones.
			lo := 1 + rng.Intn(2)
			hi := m - rng.Intn(2)
			loMin[l], hiMax[l] = lo, hi
			nest.Loops = append(nest.Loops, ir.Loop{Index: vars[l], Lo: ir.Const(lo), Hi: ir.Const(hi), Step: 1})
			continue
		}
		var loA, hiA ir.Affine
		if rng.Intn(2) == 0 {
			// Lower bound follows the root: v = root+c .. hi.
			c := rng.Intn(3)
			hi := m - rng.Intn(2)
			loA = ir.NewAffine(c, ir.Term{Var: vars[0], Coeff: 1})
			hiA = ir.Const(hi)
			loMin[l], hiMax[l] = lo0+c, hi
		} else {
			// Upper bound follows the root: v = lo .. root+c.
			c := -rng.Intn(2)
			lo := 1 + rng.Intn(2)
			loA = ir.NewAffine(c, ir.Term{Var: vars[0], Coeff: 1})
			hiA = ir.Const(lo)
			loA, hiA = hiA, loA
			loMin[l], hiMax[l] = lo, hi0+c
		}
		step := 1
		if rng.Intn(3) == 0 {
			step = -1
			loA, hiA = hiA, loA
		}
		nest.Loops = append(nest.Loops, ir.Loop{Index: vars[l], Lo: loA, Hi: hiA, Step: step})
	}
	randSub := func(scope int) ir.Affine {
		if rng.Intn(5) == 0 {
			return ir.Const(1 + rng.Intn(m))
		}
		l := rng.Intn(scope)
		if loMin[l] > hiMax[l] {
			return ir.Const(1 + rng.Intn(m))
		}
		if rng.Intn(5) == 0 {
			// Reversed: c - v staying in [1, m] over the hull.
			return ir.NewAffine(hiMax[l]+1, ir.Term{Var: vars[l], Coeff: -1})
		}
		cLo, cHi := 1-loMin[l], m-hiMax[l]
		c := 0
		switch {
		case cLo <= -1 && rng.Intn(3) == 0:
			c = -1
		case cHi >= 1 && rng.Intn(3) == 0:
			c = 1
		}
		return ir.NewAffine(c, ir.Term{Var: vars[l], Coeff: 1})
	}
	names := []string{"A", "C", "B", "X"}
	randRef := func(scope int) ir.Ref {
		name := names[rng.Intn(len(names))]
		if p.Arrays[name].Rank() == 1 {
			return ir.R(name, randSub(scope))
		}
		return ir.R(name, randSub(scope), randSub(scope))
	}
	nStmts := 1 + rng.Intn(2)
	for si := 0; si < nStmts; si++ {
		d := 1 + rng.Intn(depth)
		st := &ir.Stmt{Line: si + 1, Depth: d, Flops: 1 + rng.Intn(3)}
		st.LHS = randRef(d)
		nr := 1 + rng.Intn(2)
		for r := 0; r < nr; r++ {
			st.Reads = append(st.Reads, randRef(d))
		}
		if rng.Intn(3) == 0 {
			st.Reduce = true
			st.Reads = append(st.Reads, st.LHS)
		}
		nest.Stmts = append(nest.Stmts, st)
	}
	p.Nests = []*ir.Nest{nest}
	return p
}

// triangularSeeds are the replayable case streams of
// TestCountNestTriangularMatchesOracle. All but the first each reached the
// triangular reduce over-count (reduceStmt pricing a two-dependent-slot
// accumulator as the product of its hulls) before it was declined.
var triangularSeeds = []int64{1993, 2001, 2003, 2009, 2010, 2012, 2020, 2025, 2029, 2031}

// TestCountNestTriangularMatchesOracle is the randomized property test of
// the triangular extension: dependent-bound nests under random schemes
// must price word-for-word like the reference enumeration.
func TestCountNestTriangularMatchesOracle(t *testing.T) {
	grids := []*grid.Grid{
		grid.New(4, 1), grid.New(1, 4), grid.New(2, 2), grid.New(2, 3), grid.New(6, 1),
	}
	const trials = 300
	for _, seed := range triangularSeeds {
		rng := rand.New(rand.NewSource(seed))
		analyticHits := 0
		for trial := 0; trial < trials; trial++ {
			g := grids[trial%len(grids)]
			m := 8 + rng.Intn(5)
			bind := map[string]int{"m": m}
			p := randTriangularProgram(rng, m, 2+rng.Intn(2))
			label := fmt.Sprintf("seed %d trial %d", seed, trial)
			if err := p.Validate(); err != nil {
				t.Fatalf("%s: generated invalid program: %v", label, err)
			}
			schemes := randSchemes(t, rng, p, g, m)
			var opts CountOptions
			switch trial % 5 {
			case 1:
				excl := []string{"A", "C", "B", "X"}[rng.Intn(4)]
				opts.IncludeRead = func(a string) bool { return a != excl }
			case 2:
				opts.Carried = true
			}
			if checkAgainstOracle(t, label, p, schemes, g, bind, opts) {
				analyticHits++
			}
		}
		if analyticHits < trials/4 {
			t.Fatalf("seed %d: analytic path engaged on only %d/%d trials", seed, analyticHits, trials)
		}
	}
}

// largeMSeeds are the replayable case streams of
// TestCountNestTriangularLargeM.
var largeMSeeds = []int64{7, 8, 9, 10, 11, 12, 13, 14}

// TestCountNestTriangularLargeM drives the closed-form windowed-sum path:
// at m well past the direct-summation cap the per-residue polynomial
// interpolation answers, and must still match the enumeration exactly.
func TestCountNestTriangularLargeM(t *testing.T) {
	grids := []*grid.Grid{grid.New(4, 1), grid.New(2, 2), grid.New(6, 1)}
	const trials = 8
	pinnedHits := 0
	for _, seed := range largeMSeeds {
		rng := rand.New(rand.NewSource(seed))
		analyticHits := 0
		for trial := 0; trial < trials; trial++ {
			g := grids[trial%len(grids)]
			m := 100 + rng.Intn(100)
			bind := map[string]int{"m": m}
			p := randTriangularProgram(rng, m, 2)
			schemes := randSchemes(t, rng, p, g, m)
			if checkAgainstOracle(t, fmt.Sprintf("seed %d trial %d", seed, trial), p, schemes, g, bind, CountOptions{}) {
				analyticHits++
			}
		}
		if analyticHits < trials/3 {
			t.Fatalf("seed %d: analytic path engaged on only %d/%d trials", seed, analyticHits, trials)
		}
		// The stream above reaches a Fixed-coordinate scheme on a 2-D grid
		// once in its 64 trials (counted when the own-cell skip went in;
		// the two small-m tests reach one in every tenth trial and a
		// partially replicated array in every third). Two more trials per
		// seed force both shapes, from a stream of their own so the cases
		// above replay as before.
		rng = rand.New(rand.NewSource(seed + 1000))
		for trial, g := range []*grid.Grid{grid.New(2, 2), grid.New(2, 3)} {
			m := 64 + rng.Intn(64)
			p := randTriangularProgram(rng, m, 2)
			schemes := pinAndReplicate(randSchemes(t, rng, p, g, m), g, trial)
			if checkAgainstOracle(t, fmt.Sprintf("seed %d pinned trial %d", seed, trial), p, schemes, g, map[string]int{"m": m}, CountOptions{}) {
				pinnedHits++
			}
		}
	}
	if pinnedHits < len(largeMSeeds) {
		t.Fatalf("analytic path engaged on only %d/%d pinned trials", pinnedHits, 2*len(largeMSeeds))
	}
}

// pinAndReplicate rewrites drawn schemes into the shapes where the rank
// that holds an element is not the rank billed for sending it: a 2-D array
// keeps one mapped dim and replicates the other, a 1-D array is pinned to
// coordinate pin of the grid dim it does not use.
func pinAndReplicate(schemes map[string]dist.Scheme, g *grid.Grid, pin int) map[string]dist.Scheme {
	for name, s := range schemes {
		if len(s.Dims) == 2 && !s.Dims[0].Replicated {
			s.Rot = dist.NoRotation
			s.Dims[1] = dist.Dim{Replicated: true, GridDim: s.Dims[1].GridDim}
		}
		for gd := range s.Fixed {
			s.Fixed[gd] = pin % g.Extent(gd)
		}
		schemes[name] = s
	}
	return schemes
}

// gaussSchemes is the Section 6 layout family: cyclic rows for the
// elimination arrays on a linear grid.
func gaussSchemes(m, n int) map[string]dist.Scheme {
	return map[string]dist.Scheme{
		"A": dist.Scheme2D(dist.Cyclic(0), dist.Dim{Sign: 1, Disp: -1, Block: m, GridDim: 1}, nil),
		"L": dist.Scheme2D(dist.Cyclic(0), dist.Dim{Sign: 1, Disp: -1, Block: m, GridDim: 1}, nil),
		"V": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: 0}),
		"B": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: 0}),
		"X": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: 0}),
	}
}

// gaussSchemes2D maps A/L over a 2-D grid (cyclic rows x block columns)
// with the vectors replicated along the column dimension.
func gaussSchemes2D(m, n1, n2 int) map[string]dist.Scheme {
	return map[string]dist.Scheme{
		"A": dist.Scheme2D(dist.Cyclic(0), dist.BlockContiguous(m, n2, 1), nil),
		"L": dist.Scheme2D(dist.Cyclic(0), dist.BlockContiguous(m, n2, 1), nil),
		"V": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: dist.All}),
		"B": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: 0}),
		"X": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: dist.All}),
	}
}

// TestCountNestAnalyticGauss pins the triangular engine to the paper's
// flagship kernel: every gauss nest — the k+1..m elimination updates with
// their below-diagonal L(i,k) band and the j-1..1 back-substitution with
// its anchored reduction — must engage the closed forms (ok=true) and
// agree with the oracle.
func TestCountNestAnalyticGauss(t *testing.T) {
	p := ir.Gauss()
	m := 19
	bind := map[string]int{"m": m}
	for _, tc := range []struct {
		name    string
		g       *grid.Grid
		schemes map[string]dist.Scheme
	}{
		{"cyclic-rows", grid.New(4, 1), gaussSchemes(m, 4)},
		{"cyclic-2d", grid.New(2, 2), gaussSchemes2D(m, 2, 2)},
	} {
		for ti, nest := range p.Nests {
			want, err := CountNestOptsExact(p, nest, tc.schemes, tc.g, bind, CountOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, ok, err := countNestAnalytic(lowered(t, p, bind), ti, tc.schemes, tc.g, CountOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%s/%s: analytic engine declined a triangular nest", tc.name, nest.Label)
			}
			countsEqual(t, tc.name+"/"+nest.Label, got, want)
		}
	}
}

// triProgram wraps one nest over the randomized tests' array set.
func triProgram(loops []ir.Loop, stmts ...*ir.Stmt) *ir.Program {
	return &ir.Program{
		Name:   "tri",
		Arrays: testArrays(),
		Params: []string{"m"},
		Nests:  []*ir.Nest{{Label: "T1", Loops: loops, Stmts: stmts}},
	}
}

// TestTriangularReduceOverCountRepros pins the reduce over-count the
// randomized sweep used to reach by lottery: an anchored reduction whose
// accumulator is subscripted by two root-windowed variables but not by the
// root. The written (i, j) set is then the union over the root of the
// window products, not the product of the two hulls, and the closed form
// billed a combining tree for cells nobody writes (168 reduce words
// against 84 on the first case). reduceStmt now declines the shape; every
// case must price like the oracle whichever engine answers. Each case is
// one mismatch of TestCountNestTriangularMatchesOracle's generator at the
// named seed, arrays drawn in sorted order. The two "pipelined" cases were
// found under a ring reduction price since retired; they run under the
// tree rule, and their reduce words are the oracle's under it.
func TestTriangularReduceOverCountRepros(t *testing.T) {
	k, i, j := ir.V("k"), ir.V("i"), ir.V("j")
	neg := func(c int, v string) ir.Affine { return ir.NewAffine(c, ir.Term{Var: v, Coeff: -1}) }
	loop := func(v string, lo, hi ir.Affine, step int) ir.Loop {
		return ir.Loop{Index: v, Lo: lo, Hi: hi, Step: step}
	}
	reduce := func(depth, flops int, lhs ir.Ref, reads ...ir.Ref) *ir.Stmt {
		return &ir.Stmt{Line: 1, Depth: depth, Flops: flops, Reduce: true, LHS: lhs, Reads: append(reads, lhs)}
	}
	blk := func(sign, disp, block, gd int) dist.Dim {
		return dist.Dim{Sign: sign, Disp: disp, Block: block, GridDim: gd}
	}
	cyc := func(sign, disp, block, gd int) dist.Dim {
		return dist.Dim{Sign: sign, Disp: disp, Block: block, Cyclic: true, GridDim: gd}
	}
	repl := func(gd int) dist.Dim { return dist.Dim{Replicated: true, GridDim: gd} }
	s1 := func(fixed map[int]int, d dist.Dim) dist.Scheme {
		return dist.Scheme{Dims: []dist.Dim{d}, Fixed: fixed}
	}
	s2 := func(d0, d1 dist.Dim) dist.Scheme {
		return dist.Scheme{Dims: []dist.Dim{d0, d1}, Fixed: map[int]int{}}
	}
	except := func(arr string) func(string) bool { return func(a string) bool { return a != arr } }

	cases := []struct {
		name        string
		m           int
		g           *grid.Grid
		p           *ir.Program
		schemes     map[string]dist.Scheme
		opts        CountOptions
		reduceWords int64
	}{
		{
			name: "seed2020/upward-include-read", m: 9, g: grid.New(1, 4),
			p: triProgram(
				[]ir.Loop{loop("k", ir.Const(2), ir.Const(9), 1), loop("i", k.PlusConst(1), ir.Const(9), 1), loop("j", ir.Const(2), k, 1)},
				reduce(3, 3, ir.R("A", j, i), ir.R("B", i), ir.R("X", ir.Const(9))),
				&ir.Stmt{Line: 2, Depth: 1, Flops: 3, LHS: ir.R("B", k), Reads: []ir.Ref{ir.R("X", k)}}),
			schemes: map[string]dist.Scheme{
				"A": s2(repl(0), blk(-1, 9, 3, 1)),
				"B": s1(map[int]int{0: dist.All}, repl(1)),
				"C": s2(repl(0), repl(1)),
				"X": s1(map[int]int{0: dist.All}, repl(1)),
			},
			opts: CountOptions{IncludeRead: except("X")}, reduceWords: 84,
		},
		{
			name: "seed2010/pipelined", m: 9, g: grid.New(2, 3),
			p: triProgram(
				[]ir.Loop{loop("k", ir.Const(1), ir.Const(9), 1), loop("i", k.PlusConst(2), ir.Const(8), 1), loop("j", ir.Const(2), k.PlusConst(-1), 1)},
				reduce(3, 2, ir.R("C", j.PlusConst(-1), neg(9, "i")), ir.R("B", neg(9, "j")), ir.R("C", j.PlusConst(1), ir.Const(2)))),
			schemes: map[string]dist.Scheme{
				"A": s2(blk(1, 2, 6, 0), blk(1, 1, 4, 1)),
				"B": s1(map[int]int{1: dist.All}, cyc(1, 1, 2, 0)),
				"C": s2(blk(-1, 9, 4, 1), repl(0)),
				"X": s1(map[int]int{1: 0}, cyc(1, 1, 2, 0)),
			},
			reduceWords: 25,
		},
		{
			name: "seed2001/downward-include-read", m: 11, g: grid.New(1, 4),
			p: triProgram(
				[]ir.Loop{loop("k", ir.Const(10), ir.Const(2), -1), loop("i", ir.Const(1), k, 1), loop("j", ir.Const(10), k.PlusConst(2), -1)},
				reduce(2, 3, ir.R("X", i), ir.R("X", i.PlusConst(1)), ir.R("X", neg(11, "k"))),
				reduce(3, 2, ir.R("C", j, i), ir.R("C", j, k.PlusConst(1)), ir.R("B", j))),
			schemes: map[string]dist.Scheme{
				"A": s2(blk(1, 2, 5, 1), blk(-1, 12, 12, 0)),
				"B": s1(map[int]int{0: 0}, blk(1, -1, 4, 1)),
				"C": s2(cyc(1, 1, 4, 0), blk(-1, 12, 3, 1)),
				"X": s1(map[int]int{1: dist.All}, cyc(1, 0, 2, 0)),
			},
			opts: CountOptions{IncludeRead: except("A")}, reduceWords: 29,
		},
		{
			name: "seed2025/downward-root", m: 9, g: grid.New(4, 1),
			p: triProgram(
				[]ir.Loop{loop("k", ir.Const(9), ir.Const(2), -1), loop("i", k.PlusConst(1), ir.Const(8), 1), loop("j", ir.Const(2), k.PlusConst(-1), 1)},
				reduce(3, 1, ir.R("A", j, i), ir.R("X", i.PlusConst(-1)))),
			schemes: map[string]dist.Scheme{
				"A": s2(cyc(-1, 9, 4, 0), cyc(-1, 11, 2, 1)),
				"B": s1(map[int]int{0: dist.All}, cyc(1, 0, 3, 1)),
				"C": s2(blk(1, 1, 3, 0), cyc(1, -1, 4, 1)),
				"X": s1(map[int]int{0: 2}, cyc(1, 1, 4, 1)),
			},
			reduceWords: 15,
		},
		{
			name: "seed2012/pipelined-remote-reads", m: 11, g: grid.New(2, 3),
			p: triProgram(
				[]ir.Loop{loop("k", ir.Const(2), ir.Const(11), 1), loop("i", ir.Const(2), k, 1), loop("j", k.PlusConst(1), ir.Const(11), 1)},
				reduce(3, 1, ir.R("A", j, i.PlusConst(-1)), ir.R("B", j), ir.R("X", i.PlusConst(-1)))),
			schemes: map[string]dist.Scheme{
				"A": s2(cyc(1, -1, 1, 1), cyc(1, -1, 1, 0)),
				"B": s1(map[int]int{0: dist.All}, blk(1, 1, 5, 1)),
				"C": s2(repl(1), cyc(-1, 12, 1, 0)),
				"X": s1(map[int]int{0: 1}, cyc(1, 2, 3, 1)),
			},
			reduceWords: 74,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); err != nil {
				t.Fatal(err)
			}
			bind := map[string]int{"m": tc.m}
			checkAgainstOracle(t, tc.name, tc.p, tc.schemes, tc.g, bind, tc.opts)
			want, err := CountNestOptsExact(tc.p, tc.p.Nests[0], tc.schemes, tc.g, bind, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if want.ReduceWords != tc.reduceWords {
				t.Errorf("oracle bills %d reduce words, the recorded repro had %d — the case drifted", want.ReduceWords, tc.reduceWords)
			}
		})
	}
}

// TestDeclinedNestsReachTheOracle covers the two-tier dispatch: shapes
// the closed forms decline — a rotated (Cannon) scheme and a non-unit
// subscript coefficient — go straight to the reference enumeration, and
// the dispatcher says so.
func TestDeclinedNestsReachTheOracle(t *testing.T) {
	i, j := ir.V("i"), ir.V("j")
	const m = 8
	bind := map[string]int{"m": m}
	g := grid.New(2, 2)
	square := []ir.Loop{
		{Index: "i", Lo: ir.Const(1), Hi: ir.Const(m), Step: 1},
		{Index: "j", Lo: ir.Const(1), Hi: ir.Const(m), Step: 1},
	}
	half := []ir.Loop{
		{Index: "i", Lo: ir.Const(1), Hi: ir.Const(m / 2), Step: 1},
		{Index: "j", Lo: ir.Const(1), Hi: ir.Const(m), Step: 1},
	}
	blocks := dist.Scheme2D(dist.BlockContiguous(m, 2, 0), dist.BlockContiguous(m, 2, 1), nil)
	rotated := blocks
	rotated.Rot, rotated.D1, rotated.D2 = dist.RotateDim2ByDim1, 1, 1
	vec := dist.Scheme1D(dist.BlockContiguous(m, 2, 0), map[int]int{1: dist.All})
	for _, tc := range []struct {
		name    string
		p       *ir.Program
		schemes map[string]dist.Scheme
	}{
		{
			name: "rotated-scheme",
			p: triProgram(square, &ir.Stmt{Line: 1, Depth: 2, Flops: 1,
				LHS: ir.R("C", i, j), Reads: []ir.Ref{ir.R("A", i, j)}}),
			schemes: map[string]dist.Scheme{"A": rotated, "C": blocks, "B": vec, "X": vec},
		},
		{
			name: "non-unit-coefficient",
			p: triProgram(half, &ir.Stmt{Line: 1, Depth: 2, Flops: 1,
				LHS: ir.R("C", i, j), Reads: []ir.Ref{ir.R("A", ir.NewAffine(0, ir.Term{Var: "i", Coeff: 2}), j)}}),
			schemes: map[string]dist.Scheme{"A": blocks, "C": blocks, "B": vec, "X": vec},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); err != nil {
				t.Fatal(err)
			}
			if checkAgainstOracle(t, tc.name, tc.p, tc.schemes, g, bind, CountOptions{}) {
				t.Fatal("the closed forms accepted a nest this test expects them to decline")
			}
			ct, eng, err := dispatch(tc.p, tc.schemes, g, bind, CountOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if eng != EngineExact {
				t.Errorf("declined nest reported engine %d, want EngineExact", eng)
			}
			if ct.RemoteWords == 0 {
				t.Errorf("expected cross-processor reads, got %+v", ct)
			}
		})
	}
}

// TestCountsIgnoreUnreferencedSchemes is the counting half of the nest
// memo's soundness in core (its key covers the grid and the schemes of
// the arrays a nest references, nothing else): for random affine nests,
// two scheme sets that agree on the referenced arrays and differ on
// every other array — redrawn, or missing altogether — must price the
// nest identically, through the dispatcher and through the oracle.
func TestCountsIgnoreUnreferencedSchemes(t *testing.T) {
	grids := []*grid.Grid{grid.New(4, 1), grid.New(2, 2), grid.New(2, 3)}
	for _, seed := range oracleSeeds {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 60; trial++ {
			g := grids[trial%len(grids)]
			m := 8 + rng.Intn(4)
			bind := map[string]int{"m": m}
			p := randNestProgram(rng, m)
			nest := p.Nests[0]
			schemes := randSchemes(t, rng, p, g, m)
			redrawn := randSchemes(t, rng, p, g, m)
			dropped := map[string]dist.Scheme{}
			for _, st := range nest.Stmts {
				for _, r := range append([]ir.Ref{st.LHS}, st.Reads...) {
					redrawn[r.Array] = schemes[r.Array]
					dropped[r.Array] = schemes[r.Array]
				}
			}
			opts := CountOptions{Carried: trial%2 == 1}
			for name, count := range map[string]func(*ir.Program, *ir.Nest, map[string]dist.Scheme, *grid.Grid, map[string]int, CountOptions) (Counts, error){
				"CountNestOpts": CountNestOpts, "CountNestOptsExact": CountNestOptsExact,
			} {
				want, err := count(p, nest, schemes, g, bind, opts)
				if err != nil {
					t.Fatalf("seed %d trial %d: %s: %v", seed, trial, name, err)
				}
				for variant, other := range map[string]map[string]dist.Scheme{"redrawn": redrawn, "dropped": dropped} {
					got, err := count(p, nest, other, g, bind, opts)
					if err != nil || got != want {
						t.Fatalf("seed %d trial %d: %s with unreferenced arrays %s: %+v (%v), want %+v\ngrid=%s bind=%v\n%s",
							seed, trial, name, variant, got, err, want, g, bind, describeNest(nest, other))
					}
				}
			}
		}
	}
}

// TestPassesPartitionTheCount pins the one pass rule the compiler prices a
// nest with (core's countNest): the segment pass admits the reads a
// predicate admits, the loop-carried pass (Carried) the rest. Together
// they bill every remote word of the unfiltered count exactly once; the
// flops and the combining trees are the segment pass's alone; and the
// closed forms equal the oracle on both passes. The programs are every
// nest of the builtins and both generators' nests, the predicates random
// over the arrays.
func TestPassesPartitionTheCount(t *testing.T) {
	grids := []*grid.Grid{grid.New(4, 1), grid.New(2, 2), grid.New(2, 3)}
	type source struct {
		seed  int64
		progs func(rng *rand.Rand, m int) []*ir.Program
	}
	var sources []source
	for _, name := range ir.BuiltinNames() {
		sources = append(sources, source{1, func(*rand.Rand, int) []*ir.Program {
			p, _ := ir.Builtin(name)
			var one []*ir.Program
			for _, nest := range p.Nests {
				q := *p
				q.Nests = []*ir.Nest{nest}
				one = append(one, &q)
			}
			return one
		}})
	}
	for _, seed := range oracleSeeds[:3] {
		sources = append(sources, source{seed, func(rng *rand.Rand, m int) []*ir.Program {
			return []*ir.Program{randNestProgram(rng, m)}
		}})
	}
	for _, seed := range triangularSeeds[:3] {
		sources = append(sources, source{seed, func(rng *rand.Rand, m int) []*ir.Program {
			return []*ir.Program{randTriangularProgram(rng, m, 2+rng.Intn(2))}
		}})
	}
	for _, src := range sources {
		rng := rand.New(rand.NewSource(src.seed))
		for trial := 0; trial < 40; trial++ {
			g := grids[trial%len(grids)]
			m := 8 + rng.Intn(4)
			bind := map[string]int{"m": m}
			for _, p := range src.progs(rng, m) {
				lw := lowered(t, p, bind)
				schemes := map[string]dist.Scheme{}
				admit := map[string]bool{}
				for a, name := range lw.Names {
					schemes[name] = randScheme(rng, g, lw.Shapes[a])
					if err := schemes[name].Validate(g, lw.Shapes[a]); err != nil {
						t.Fatalf("seed %d: invalid scheme for %s: %v", src.seed, name, err)
					}
					admit[name] = rng.Intn(2) == 0
				}
				label := fmt.Sprintf("seed %d trial %d grid %s m=%d admitted %v\n%s", src.seed, trial, g, m, admit, ir.Print(p))
				passes := map[string]CountOptions{
					"full":    {},
					"segment": {IncludeRead: func(a string) bool { return admit[a] }},
					"carried": {IncludeRead: func(a string) bool { return !admit[a] }, Carried: true},
				}
				ct := map[string]Counts{}
				for name, opts := range passes {
					checkAgainstOracle(t, label+name+" pass", p, schemes, g, bind, opts)
					c, err := CountNestOpts(p, p.Nests[0], schemes, g, bind, opts)
					if err != nil {
						t.Fatalf("%s: %s pass: %v", label, name, err)
					}
					ct[name] = c
				}
				full, seg, car := ct["full"], ct["segment"], ct["carried"]
				if seg.RemoteWords+car.RemoteWords != full.RemoteWords {
					t.Fatalf("%s: remote words %d + %d, unfiltered %d", label, seg.RemoteWords, car.RemoteWords, full.RemoteWords)
				}
				if seg.TotalFlops != full.TotalFlops || seg.MaxProcFlops != full.MaxProcFlops || seg.ReduceWords != full.ReduceWords {
					t.Fatalf("%s: segment pass %+v, unfiltered %+v: flops and reduce words differ", label, seg, full)
				}
				if car.TotalFlops != 0 || car.MaxProcFlops != 0 || car.ReduceWords != 0 {
					t.Fatalf("%s: carried pass %+v bills flops or reduce words", label, car)
				}
			}
		}
	}
}

// TestNeededWordsBillOnlyOverlappedCells is the deterministic scaling
// guard of the needed-words pass: the (rank, owner cell) bills its
// footprint counts write. For jacobi and sor at m = 32 on every grid of
// N = 1024 processors a scan of all cells per rank bills up to N^2 pairs
// per array, a million; splitting each footprint over only the owner
// coordinates its sides reach bills at most 2m·N pairs in all, and no
// pair that carries no word.
func TestNeededWordsBillOnlyOverlappedCells(t *testing.T) {
	const m, n = 32, 1024
	for _, p := range []*ir.Program{ir.Jacobi(), ir.SOR()} {
		for _, c := range gridNestCases(p, m, n, func(g *grid.Grid) map[string]dist.Scheme { return blockSchemes(m, g) }) {
			var tl rankTally
			ct, eng, err := CountValidatedNest(c.lw, c.nest, c.schemes, c.g, CountOptions{tally: &tl})
			if err != nil || eng != EngineAnalytic {
				t.Fatalf("%s: engine %v, err %v; want the analytic engine", c.name, eng, err)
			}
			if tl.pairs > 2*m*n || tl.pairs > ct.RemoteWords {
				t.Errorf("%s: %d (rank, cell) pairs billed for %d remote words; want at most %d and no empty bill",
					c.name, tl.pairs, ct.RemoteWords, 2*m*n)
			}
		}
	}
}

// TestEqualFootprintsCountOnce: replicas that are not consecutive ranks
// have equal footprints, and the count of the first answers the rest
// through footprint equality. Jacobi L2 at m = 32 on 512×2 replicates X
// and B over grid dim 0, so a rank's replicas are every other rank: the
// needed-words pass counted a union for each of its 32,704 (rank, cell)
// pairs while only the last footprint per array was remembered, and
// counts at most 64 footprints, as on 1024×1, where replicas are
// consecutive. Every grid of 1024 processors, jacobi's and sor's nests,
// keeps its Counts, and no footprint is counted that bills no word.
func TestEqualFootprintsCountOnce(t *testing.T) {
	const m, n = 32, 1024
	unions := map[string]int64{}
	for _, p := range []*ir.Program{ir.Jacobi(), ir.SOR()} {
		for _, c := range gridNestCases(p, m, n, func(g *grid.Grid) map[string]dist.Scheme { return blockSchemes(m, g) }) {
			var tl rankTally
			if _, eng, err := CountValidatedNest(c.lw, c.nest, c.schemes, c.g, CountOptions{tally: &tl}); err != nil || eng != EngineAnalytic {
				t.Fatalf("%s: engine %v, err %v; want the analytic engine", c.name, eng, err)
			}
			if tl.unions > tl.pairs {
				t.Errorf("%s: %d footprints counted for %d (rank, cell) bills", c.name, tl.unions, tl.pairs)
			}
			unions[c.name] = tl.unions
		}
	}
	for _, name := range []string{"jacobi-L2/512x2", "jacobi-L2/1024x1", "sor-S1/512x2"} {
		if unions[name] > 64 {
			t.Errorf("%s: %d footprints counted, want at most 64", name, unions[name])
		}
	}
}

// TestCountIsOneUnionPerRankArray is the work guard of the needed-words
// pass on the §6 program: the gauss elimination nest (G1) and the
// back-substitution nest (G3) under cyclic matrices, at m = 128 on 8×1
// and on 4×4, run at most one inclusion-exclusion per (rank, array) —
// not one per (rank, owner cell) — and bill no more (rank, cell) pairs
// than they have remote words. Clipping each footprint to every owner
// cell it met ran 112 unions on G1 on 8×1, one per (rank, cell); one
// inclusion-exclusion per footprint runs 16.
func TestCountIsOneUnionPerRankArray(t *testing.T) {
	const m = 128
	p := ir.Gauss()
	lw := lowered(t, p, map[string]int{"m": m})
	for _, g := range []*grid.Grid{grid.New(8, 1), grid.New(4, 4)} {
		for _, nest := range []int{0, 2} {
			var tl rankTally
			ct, eng, err := CountValidatedNest(lw, nest, cyclicSchemes(g), g, CountOptions{tally: &tl})
			if err != nil || eng != EngineAnalytic {
				t.Fatalf("%s on %s: engine %v, err %v; want the analytic engine", p.Nests[nest].Label, g, eng, err)
			}
			read := map[string]bool{}
			for _, st := range p.Nests[nest].Stmts {
				for _, rd := range st.Reads {
					read[rd.Array] = true
				}
			}
			arrays := int64(len(read))
			t.Logf("%s on %s: %d inclusion-exclusions, %d bills, %d remote words", p.Nests[nest].Label, g, tl.unions, tl.pairs, ct.RemoteWords)
			if limit := int64(g.Size()) * arrays; tl.unions > limit || tl.pairs > ct.RemoteWords {
				t.Errorf("%s on %s: %d inclusion-exclusions and %d bills for %d remote words; want at most %d (ranks × arrays read) and no empty bill",
					p.Nests[nest].Label, g, tl.unions, tl.pairs, ct.RemoteWords, limit)
			}
		}
	}
}

// TestWindowedSumWalksShortIntervals: an interval of the windowed sum
// shorter than the combined period is walked value by value instead of
// scanning every residue class. The gauss nests at m = 256 under cyclic
// rows on 1024×1 — period 1024, every interval shorter — took 83,078,911
// (G1) and 6,797,312 (G3) residue steps while every class was scanned,
// and must take a tenth of that now with the Counts they had then.
func TestWindowedSumWalksShortIntervals(t *testing.T) {
	const m, n = 256, 1024
	p, g := ir.Gauss(), grid.New(n, 1)
	lw := lowered(t, p, map[string]int{"m": m})
	for _, c := range []struct {
		nest  int
		steps int64
		want  Counts
	}{
		{0, 83_078_911, Counts{TotalFlops: 11217280, MaxProcFlops: 66045, RemoteWords: 5624960, MaxProcIn: 33150, MaxProcOut: 65535}},
		{2, 6_797_312, Counts{TotalFlops: 589568, MaxProcFlops: 1022, RemoteWords: 785664, MaxProcIn: 768, MaxProcOut: 3069}},
	} {
		var tl rankTally
		ct, eng, err := CountValidatedNest(lw, c.nest, cyclicSchemes(g), g, CountOptions{tally: &tl})
		if err != nil || eng != EngineAnalytic {
			t.Fatalf("%s: engine %v, err %v; want the analytic engine", p.Nests[c.nest].Label, eng, err)
		}
		if ct != c.want {
			t.Errorf("%s: %+v, want %+v", p.Nests[c.nest].Label, ct, c.want)
		}
		t.Logf("%s: %d residue steps (%d with every class scanned), %d products", p.Nests[c.nest].Label, tl.residueSteps, c.steps, tl.prodAts)
		if tl.residueSteps > c.steps/10 {
			t.Errorf("%s: %d residue steps, want at most a tenth of %d", p.Nests[c.nest].Label, tl.residueSteps, c.steps)
		}
	}
}

// TestCyclicShiftBillsOneCellPerRank reads, on 256 processors, the rows
// one past each rank's own under cyclic rows at m = 1024: each
// footprint's hull spans the whole period four times over, but its
// residues lie in one other rank's rows, so each rank counts its
// footprint once and bills exactly one cell — and the words match the
// enumeration rank by rank.
func TestCyclicShiftBillsOneCellPerRank(t *testing.T) {
	const m, n = 1024, 256
	i, j := ir.V("i"), ir.V("j")
	p := triProgram([]ir.Loop{
		{Index: "i", Lo: ir.Const(1), Hi: ir.V("m").PlusConst(-1), Step: 1},
		{Index: "j", Lo: ir.Const(1), Hi: ir.Const(4), Step: 1},
	}, &ir.Stmt{Line: 1, Depth: 2, Flops: 1, LHS: ir.R("A", i, j), Reads: []ir.Ref{ir.R("C", i.PlusConst(1), j)}})
	g := grid.New(n, 1)
	rows := dist.Scheme2D(dist.Cyclic(0), dist.BlockContiguous(m, 1, 1), nil)
	schemes := map[string]dist.Scheme{
		"A": rows, "C": rows,
		"B": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: 0}),
		"X": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: 0}),
	}
	bind := map[string]int{"m": m}
	if !checkAgainstOracle(t, "cyclic shift", p, schemes, g, bind, CountOptions{}) {
		t.Fatal("the closed forms declined the cyclic shift")
	}
	var tl rankTally
	if _, _, err := dispatch(p, schemes, g, bind, CountOptions{tally: &tl}); err != nil {
		t.Fatal(err)
	}
	if tl.pairs != n || tl.unions != n {
		t.Fatalf("%d (rank, cell) pairs billed by %d footprint counts on %d ranks; want one of each per rank", tl.pairs, tl.unions, n)
	}
}
