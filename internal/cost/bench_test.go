package cost

import (
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
// both jacobi nests under row blocks, the sor nest under column blocks.
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

// gaussCountAllocBudget is 25 % above the 127 allocations one count of the
// gauss elimination nest makes at N = 8, m = 128 (7 080 before the send
// attribution stopped allocating per owner cell): what is left is the
// per-invocation set-up — compiled references, owned patterns, the
// footprint slab — and none of it scales with ranks x cells. The count
// repeats exactly, so a trip of this gate is an allocation creeping back
// into the per-cell or per-rect path, not noise.
const gaussCountAllocBudget = 158

func TestCountNestAllocBudget(t *testing.T) {
	const m = 128
	c := kernelNestCases(m)[0]
	if got := testing.AllocsPerRun(10, func() { countSink = c.count(t) }); got > gaussCountAllocBudget {
		t.Fatalf("one count of %s at m=%d made %.0f allocations, budget %d", c.name, m, got, gaussCountAllocBudget)
	}
}
