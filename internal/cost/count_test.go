package cost

import (
	"errors"
	"strings"
	"testing"

	"dmcc/internal/dist"
	"dmcc/internal/grid"
	"dmcc/internal/ir"
)

// jacobiRowSchemes is the Section 4 / Table 3 distribution on an N-proc
// linear array: A by row blocks, V/B/X by matching blocks.
func jacobiRowSchemes(m, n int) map[string]dist.Scheme {
	return map[string]dist.Scheme{
		"A": dist.Scheme2D(dist.BlockContiguous(m, n, 0), dist.Dim{Sign: 1, Disp: -1, Block: m, GridDim: 1}, nil),
		"V": dist.Scheme1D(dist.BlockContiguous(m, n, 0), map[int]int{1: 0}),
		"B": dist.Scheme1D(dist.BlockContiguous(m, n, 0), map[int]int{1: 0}),
		"X": dist.Scheme1D(dist.BlockContiguous(m, n, 0), map[int]int{1: 0}),
	}
}

// jacobiColSchemes is the Section 3 scheme with N1=1, N2=N: A by column
// blocks, X/B aligned with columns, V replicated.
func jacobiColSchemes(m, n int) map[string]dist.Scheme {
	return map[string]dist.Scheme{
		"A": dist.Scheme2D(dist.Dim{Sign: 1, Disp: -1, Block: m, GridDim: 0}, dist.BlockContiguous(m, n, 1), nil),
		"V": dist.Scheme1D(dist.Replicated(1), map[int]int{0: 0}),
		"B": dist.Scheme1D(dist.BlockContiguous(m, n, 1), map[int]int{0: 0}),
		"X": dist.Scheme1D(dist.BlockContiguous(m, n, 1), map[int]int{0: 0}),
	}
}

func TestCountJacobiL1RowDistribution(t *testing.T) {
	m, n := 16, 4
	p := ir.Jacobi()
	g := grid.New(n, 1)
	bind := map[string]int{"m": m}
	ct, err := CountNestOpts(p, p.Nests[0], jacobiRowSchemes(m, n), g, bind, CountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Row distribution: A(i,j) local to owner of V(i); X(j) must reach
	// all other processors: m elements x (n-1) destinations.
	if ct.ReduceWords != 0 {
		t.Errorf("row-distributed L1 must have no reduction traffic, got %d", ct.ReduceWords)
	}
	wantRemote := int64(m * (n - 1))
	if ct.RemoteWords != wantRemote {
		t.Errorf("RemoteWords = %d, want %d", ct.RemoteWords, wantRemote)
	}
	// 2 flops per inner iteration, m^2/n per processor (perfect balance).
	if ct.TotalFlops != int64(2*m*m) {
		t.Errorf("TotalFlops = %d, want %d", ct.TotalFlops, 2*m*m)
	}
	if ct.MaxProcFlops != int64(2*m*m/n) {
		t.Errorf("MaxProcFlops = %d, want %d", ct.MaxProcFlops, 2*m*m/n)
	}
}

func TestCountJacobiL2RowDistributionIsLocal(t *testing.T) {
	m, n := 16, 4
	p := ir.Jacobi()
	g := grid.New(n, 1)
	ct, err := CountNestOpts(p, p.Nests[1], jacobiRowSchemes(m, n), g, map[string]int{"m": m}, CountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Under row distribution X(i), B(i), V(i), A(i,i) are all local.
	if (ct.RemoteWords + ct.ReduceWords) != 0 {
		t.Errorf("L2 must be communication-free under row distribution, moved %d", (ct.RemoteWords + ct.ReduceWords))
	}
	if ct.MaxProcFlops != int64(3*m/n) {
		t.Errorf("MaxProcFlops = %d, want %d", ct.MaxProcFlops, 3*m/n)
	}
}

func TestCountJacobiL1ColumnDistributionHasReduction(t *testing.T) {
	m, n := 16, 4
	p := ir.Jacobi()
	g := grid.New(1, n)
	ct, err := CountNestOpts(p, p.Nests[0], jacobiColSchemes(m, n), g, map[string]int{"m": m}, CountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Column distribution: partial sums for every V(i) live on all n
	// processors; V is replicated so the reduction result must reach the
	// root of each element's combining tree: (n-1) partial words per
	// element at least.
	if ct.ReduceWords < int64(m*(n-1)) {
		t.Errorf("ReduceWords = %d, want >= %d", ct.ReduceWords, m*(n-1))
	}
	// X(j) and A(i,j) are aligned: no remote reads for line 5. Line 8
	// reads V(i) which is replicated: owners include everyone, so local.
	if ct.RemoteWords != 0 {
		t.Errorf("RemoteWords = %d, want 0", ct.RemoteWords)
	}
}

func TestCountRelativeOrderMatchesClosedForm(t *testing.T) {
	// The counted cost of the row scheme must beat the column scheme for
	// a full Jacobi iteration (L1+L2), matching Section 4's conclusion.
	m, n := 32, 4
	p := ir.Jacobi()
	bind := map[string]int{"m": m}
	c := Unit()

	gRow := grid.New(n, 1)
	rowTotal := 0.0
	for _, nest := range p.Nests {
		ct, err := CountNestOpts(p, nest, jacobiRowSchemes(m, n), gRow, bind, CountOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rowTotal += ct.Time(c).Total()
	}
	gCol := grid.New(1, n)
	colTotal := 0.0
	for _, nest := range p.Nests {
		ct, err := CountNestOpts(p, nest, jacobiColSchemes(m, n), gCol, bind, CountOptions{})
		if err != nil {
			t.Fatal(err)
		}
		colTotal += ct.Time(c).Total()
	}
	if rowTotal >= colTotal {
		t.Errorf("row scheme %v must beat column scheme %v", rowTotal, colTotal)
	}
}

func TestCountGaussCyclicVsBlockLoadBalance(t *testing.T) {
	// Section 6 chooses a cyclic distribution because the triangular
	// iteration space starves leading processors under block
	// distribution: cyclic must have a lower max-processor flop count.
	m, n := 24, 4
	p := ir.Gauss()
	bind := map[string]int{"m": m}
	// 2-D arrays need both dims mapped to distinct grid dims, so the ring
	// is modelled as an (n,1) grid.
	g := grid.New(n, 1)
	cyclic := map[string]dist.Scheme{
		"A": dist.Scheme2D(dist.Cyclic(0), dist.Dim{Sign: 1, Disp: -1, Block: m, GridDim: 1}, nil),
		"L": dist.Scheme2D(dist.Cyclic(0), dist.Dim{Sign: 1, Disp: -1, Block: m, GridDim: 1}, nil),
		"V": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: 0}),
		"B": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: 0}),
		"X": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: 0}),
	}
	block := map[string]dist.Scheme{
		"A": dist.Scheme2D(dist.BlockContiguous(m, n, 0), dist.Dim{Sign: 1, Disp: -1, Block: m, GridDim: 1}, nil),
		"L": dist.Scheme2D(dist.BlockContiguous(m, n, 0), dist.Dim{Sign: 1, Disp: -1, Block: m, GridDim: 1}, nil),
		"V": dist.Scheme1D(dist.BlockContiguous(m, n, 0), map[int]int{1: 0}),
		"B": dist.Scheme1D(dist.BlockContiguous(m, n, 0), map[int]int{1: 0}),
		"X": dist.Scheme1D(dist.BlockContiguous(m, n, 0), map[int]int{1: 0}),
	}
	g1 := p.Nests[0]
	ctCyc, err := CountNestOpts(p, g1, cyclic, g, bind, CountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctBlk, err := CountNestOpts(p, g1, block, g, bind, CountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ctCyc.TotalFlops != ctBlk.TotalFlops {
		t.Fatalf("total flops differ: %d vs %d", ctCyc.TotalFlops, ctBlk.TotalFlops)
	}
	if ctCyc.MaxProcFlops >= ctBlk.MaxProcFlops {
		t.Errorf("cyclic max flops %d must beat block %d", ctCyc.MaxProcFlops, ctBlk.MaxProcFlops)
	}
}

func TestCountErrors(t *testing.T) {
	p := ir.Jacobi()
	g := grid.New(4, 1)
	bind := map[string]int{"m": 8}
	// Missing scheme.
	sch := jacobiRowSchemes(8, 4)
	delete(sch, "X")
	if _, err := CountNestOpts(p, p.Nests[0], sch, g, bind, CountOptions{}); err == nil {
		t.Fatal("missing scheme not caught")
	}
	// Invalid scheme (wrong grid).
	if _, err := CountNestOpts(p, p.Nests[0], jacobiColSchemes(8, 4), g, bind, CountOptions{}); err == nil {
		t.Fatal("invalid scheme not caught")
	}
	// Unbound parameter.
	if _, err := CountNestOpts(p, p.Nests[0], jacobiRowSchemes(8, 4), g, map[string]int{}, CountOptions{}); err == nil {
		t.Fatal("unbound parameter not caught")
	}
	// A loop step other than 1 or -1, which would otherwise count as a
	// unit-step loop.
	p.Nests[0].Loops[0].Step = 2
	if _, err := CountNestOpts(p, p.Nests[0], jacobiRowSchemes(8, 4), g, bind, CountOptions{}); err == nil || !strings.Contains(err.Error(), "L1 loop i has step 2") {
		t.Fatalf("loop step 2: got %v", err)
	}
}

func TestCountsTime(t *testing.T) {
	ct := Counts{MaxProcFlops: 100, MaxProcIn: 30, MaxProcOut: 50}
	b := ct.Time(Model{Tf: 2, Tc: 3})
	if b.Comp != 200 || b.Comm != 150 {
		t.Fatalf("Time = %+v", b)
	}
	if (ct.RemoteWords + ct.ReduceWords) != 0 {
		t.Fatal("Words nonzero")
	}
	ct2 := Counts{RemoteWords: 5, ReduceWords: 7}
	if (ct2.RemoteWords + ct2.ReduceWords) != 12 {
		t.Fatal("Words wrong")
	}
}

// TestEntryPointsRejectInvalidSchemes: CountValidatedNest trusts its
// caller's schemes, so every exported entry point in front of it must
// still refuse a scheme dist.Scheme.Validate refuses — here A's row
// blocks of 1 cover only 4 of its 8 rows on 4 processors, and A's rows
// mapped to a grid dimension the 4x1 grid lacks — and a missing one,
// naming the array.
func TestEntryPointsRejectInvalidSchemes(t *testing.T) {
	p := ir.Jacobi()
	g := grid.New(4, 1)
	bind := map[string]int{"m": 8}
	short, offGrid, missing := jacobiRowSchemes(8, 4), jacobiRowSchemes(8, 4), jacobiRowSchemes(8, 4)
	short["A"] = dist.Scheme2D(dist.BlockContiguous(4, 4, 0), dist.Dim{Sign: 1, Disp: -1, Block: 8, GridDim: 1}, nil)
	offGrid["A"] = dist.Scheme2D(dist.BlockContiguous(8, 4, 2), dist.Dim{Sign: 1, Disp: -1, Block: 8, GridDim: 1}, nil)
	delete(missing, "A")
	for name, count := range map[string]func(*ir.Program, *ir.Nest, map[string]dist.Scheme, *grid.Grid, map[string]int, CountOptions) (Counts, error){
		"CountNestOpts": CountNestOpts, "CountNestOptsExact": CountNestOptsExact,
	} {
		if _, err := count(p, p.Nests[0], jacobiRowSchemes(8, 4), g, bind, CountOptions{}); err != nil {
			t.Fatalf("%s: valid schemes: %v", name, err)
		}
		for variant, s := range map[string]map[string]dist.Scheme{"short blocks": short, "off the grid": offGrid, "missing": missing} {
			if _, err := count(p, p.Nests[0], s, g, bind, CountOptions{}); err == nil || !strings.Contains(err.Error(), " A") {
				t.Errorf("%s with A's scheme %s: got %v, want an error naming A", name, variant, err)
			}
		}
	}
}

// TestEntryPointsRefuseOutOfRangeSubscripts: both public counting entry
// points check the program's ranges before counting, so B(i+5) at m = 8,
// which reaches B(13), is the *ir.RangeError naming it rather than dist's
// "contiguous block index" panic from pricing an element past the last
// processor's block.
func TestEntryPointsRefuseOutOfRangeSubscripts(t *testing.T) {
	p, err := ir.Parse("PROGRAM t\nPARAM m\nREAL A(m), B(m)\nDO 9 i = 1, m\n7   A(i) = B(i+5)\n9 CONTINUE\nEND\n")
	if err != nil {
		t.Fatal(err)
	}
	const m, n = 8, 4
	schemes := map[string]dist.Scheme{
		"A": dist.Scheme1D(dist.BlockContiguous(m, n, 0), map[int]int{1: 0}),
		"B": dist.Scheme1D(dist.BlockContiguous(m, n, 0), map[int]int{1: 0}),
	}
	for name, count := range map[string]func(*ir.Program, *ir.Nest, map[string]dist.Scheme, *grid.Grid, map[string]int, CountOptions) (Counts, error){
		"CountNestOpts": CountNestOpts, "CountNestOptsExact": CountNestOptsExact,
	} {
		_, err := count(p, p.Nests[0], schemes, grid.New(n, 1), map[string]int{"m": m}, CountOptions{})
		var re *ir.RangeError
		if !errors.As(err, &re) || !strings.Contains(err.Error(), "B(i+5) ranges over [6, 13]") {
			t.Errorf("%s: got %v, want the *ir.RangeError naming B(i+5) over [6, 13]", name, err)
		}
	}
}
