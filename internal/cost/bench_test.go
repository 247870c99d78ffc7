package cost

import (
	"fmt"
	"testing"

	"dmcc/internal/dist"
	"dmcc/internal/grid"
	"dmcc/internal/ir"
)

// nestCase is one nest under the schemes Algorithm 1 picks for its
// program at base size 128 — what a fitted kernel compile hands
// CountValidatedNest some fifty times per nest.
type nestCase struct {
	name    string
	p       *ir.Program
	nest    int
	g       *grid.Grid
	schemes map[string]dist.Scheme
	lw      *ir.Lowered // p at the case's size, lowered as a compiler does once
}

// kernelNestCases lists the nests of BenchmarkCountNestKernels at size m:
// the gauss elimination nest under cyclic rows on 8 processors and under
// the 4x4 cyclic grid on 16 (its fit is four fifths of a kernel compile),
// gauss's triangular back-substitution nest under cyclic rows on 8, both
// jacobi nests under row blocks, the sor nest under column blocks.
func kernelNestCases(m int) []nestCase {
	whole := func(gd int) dist.Dim { return dist.BlockContiguous(m, 1, gd) }
	all := func(gd int) map[int]int { return map[int]int{gd: dist.All} }
	rows8 := dist.BlockContiguous(m, 8, 0)
	cols8 := dist.BlockContiguous(m, 8, 1)
	gauss16 := map[string]dist.Scheme{
		"A": dist.Scheme2D(dist.Cyclic(0), dist.Cyclic(1), nil),
		"L": dist.Scheme2D(dist.Cyclic(0), dist.Cyclic(1), nil),
		"B": dist.Scheme1D(dist.Cyclic(0), all(1)),
	}
	jacobi := func(x dist.Scheme) map[string]dist.Scheme {
		return map[string]dist.Scheme{
			"A": dist.Scheme2D(rows8, whole(1), nil),
			"B": dist.Scheme1D(rows8, all(1)),
			"V": dist.Scheme1D(rows8, all(1)),
			"X": x,
		}
	}
	sor := map[string]dist.Scheme{
		"A": dist.Scheme2D(whole(0), cols8, nil),
		"B": dist.Scheme1D(cols8, all(0)),
		"V": dist.Scheme1D(whole(0), all(1)),
		"X": dist.Scheme1D(cols8, all(0)),
	}
	cases := []nestCase{
		{"gauss-G1/N8", ir.Gauss(), 0, grid.New(8, 1), gaussSchemes(m, 8), nil},
		{"gauss-G1/N16", ir.Gauss(), 0, grid.New(4, 4), gauss16, nil},
		{"gauss-G3/N8", ir.Gauss(), 2, grid.New(8, 1), gaussSchemes(m, 8), nil},
		{"jacobi-L1/N8", ir.Jacobi(), 0, grid.New(8, 1), jacobi(dist.Scheme1D(whole(1), all(0))), nil},
		{"jacobi-L2/N8", ir.Jacobi(), 1, grid.New(8, 1), jacobi(dist.Scheme1D(rows8, all(1))), nil},
		{"sor-S1/N8", ir.SOR(), 0, grid.New(1, 8), sor, nil},
	}
	for i := range cases {
		cases[i].lw, _ = cases[i].p.Lower(map[string]int{"m": m})
	}
	return cases
}

// count prices the case's nest the way core.priceNest does in the segment
// pass, requiring the closed forms to answer.
func (c nestCase) count(tb testing.TB) Counts {
	ct, eng, err := CountValidatedNest(c.lw, c.nest, c.schemes, c.g, CountOptions{})
	if err != nil || eng != EngineAnalytic {
		tb.Fatalf("%s: engine %v, err %v; want the analytic engine", c.name, eng, err)
	}
	return ct
}

var countSink Counts

// BenchmarkCountNestKernels times one closed-form nest count per kernel
// nest at m = 128: the unit a fit is made of. Run with -benchmem; the
// quick look before `bash bench/run.sh -workload compile-kernels`.
func BenchmarkCountNestKernels(b *testing.B) {
	const m = 128
	for _, c := range kernelNestCases(m) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				countSink = c.count(b)
			}
		})
	}
}

// TestCountNestAllocBudget: one count of each kernel nest at m = 128 in a
// warm workspace allocates nothing. Every piece of a count's state —
// compiled arrays and statements, owned patterns and their masks,
// footprints and their table of bills, the owner splits, the per-rank
// tallies and the reduction cells — is reset in place (the
// gauss elimination nest at N = 8 made 92 allocations while each count
// built them afresh, 7 080 before the send attribution stopped allocating
// per owner cell). The workspace is held here, not borrowed from
// enginePool, whose -race build drops workspaces at random. A trip is an
// allocation back in the per-count, per-rank or per-cell path.
func TestCountNestAllocBudget(t *testing.T) {
	const m = 128
	for _, c := range kernelNestCases(m) {
		e := new(anEngine)
		count := func() {
			if _, ok := e.count(c.lw, c.nest, c.schemes, c.g, CountOptions{}); !ok {
				t.Fatalf("%s: the closed forms declined", c.name)
			}
		}
		if got := testing.AllocsPerRun(10, count); got != 0 {
			t.Errorf("one count of %s at m=%d in a warm workspace made %.0f allocations, want none", c.name, m, got)
		}
	}
}

// factorGrids lists every n0 x n1 grid of n processors, n0 ascending.
func factorGrids(n int) []*grid.Grid {
	var gs []*grid.Grid
	for n0 := 1; n0 <= n; n0++ {
		if n%n0 == 0 {
			gs = append(gs, grid.New(n0, n/n0))
		}
	}
	return gs
}

// blockSchemes is the scheme set Algorithm 1 derives for jacobi and sor
// on an n0 x n1 grid: A in row x column blocks, V aligned with its rows,
// B and X with its columns, each vector replicated over the other grid
// dimension.
func blockSchemes(m int, g *grid.Grid) map[string]dist.Scheme {
	rows, cols := dist.BlockContiguous(m, g.Extent(0), 0), dist.BlockContiguous(m, g.Extent(1), 1)
	return map[string]dist.Scheme{
		"A": dist.Scheme2D(rows, cols, nil),
		"V": dist.Scheme1D(rows, map[int]int{1: dist.All}),
		"B": dist.Scheme1D(cols, map[int]int{0: dist.All}),
		"X": dist.Scheme1D(cols, map[int]int{0: dist.All}),
	}
}

// cyclicSchemes is the scheme set Algorithm 1 derives for gauss on a
// square-ish grid, the matrices cyclic in both dimensions.
func cyclicSchemes(g *grid.Grid) map[string]dist.Scheme {
	return map[string]dist.Scheme{
		"A": dist.Scheme2D(dist.Cyclic(0), dist.Cyclic(1), nil),
		"L": dist.Scheme2D(dist.Cyclic(0), dist.Cyclic(1), nil),
		"B": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: dist.All}),
		"V": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: dist.All}),
		"X": dist.Scheme1D(dist.Cyclic(1), map[int]int{0: dist.All}),
	}
}

// gridNestCases is every nest of p at size m on every factor-pair grid
// of n processors, under the schemes the given function derives.
func gridNestCases(p *ir.Program, m, n int, schemes func(*grid.Grid) map[string]dist.Scheme) []nestCase {
	lw, _ := p.Lower(map[string]int{"m": m})
	var cases []nestCase
	for _, g := range factorGrids(n) {
		for t, nest := range p.Nests {
			name := fmt.Sprintf("%s-%s/%dx%d", p.Name, nest.Label, g.Extent(0), g.Extent(1))
			cases = append(cases, nestCase{name, p, t, g, schemes(g), lw})
		}
	}
	return cases
}

// benchCases times one closed-form count of each case per iteration.
func benchCases(b *testing.B, cases []nestCase) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			countSink = c.count(b)
		}
	}
}

// BenchmarkCountNestJacobi1024 counts both jacobi nests at m = 32 on all
// eleven grids of 1024 processors: the counts exec-scale's set-up pays
// to derive jacobi's schemes, where a scan of every owner cell per rank
// cost N^2 per array.
func BenchmarkCountNestJacobi1024(b *testing.B) {
	const m = 32
	benchCases(b, gridNestCases(ir.Jacobi(), m, 1024, func(g *grid.Grid) map[string]dist.Scheme { return blockSchemes(m, g) }))
}

// BenchmarkCountNestGauss256 counts the three gauss nests at m = 32 on
// all nine grids of 256 processors under cyclic matrices: residue masks
// of period 256 on every set operation.
func BenchmarkCountNestGauss256(b *testing.B) {
	benchCases(b, gridNestCases(ir.Gauss(), 32, 256, cyclicSchemes))
}
