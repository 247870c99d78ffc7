package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dmcc/internal/cost"
	"dmcc/internal/dist"
	"dmcc/internal/grid"
	"dmcc/internal/ir"
)

// TestNestMemoInvisible: Compile() with the nest memo and the cached
// scheme keys must render byte for byte what noCache = true renders —
// which prices every nest of every segment afresh — across
// the synthetic sequences, the paper's kernels, a nest the closed forms
// decline, three processor counts, serial and parallel.
func TestNestMemoInvisible(t *testing.T) {
	programs := []*ir.Program{ir.Gauss(), ir.Jacobi(), ir.SOR(), strideProgram()}
	for s := 4; s <= 12; s++ {
		programs = append(programs, ir.Synthetic(s))
	}
	for _, p := range programs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{4, 8, 16} {
				render := func(noCache bool, jobs int) string {
					c := NewCompiler(p, cost.Unit(), map[string]int{"m": 16}, n)
					c.noCache, c.Jobs = noCache, jobs
					res, err := c.Compile()
					if err != nil {
						t.Fatalf("n=%d nocache=%v jobs=%d: %v", n, noCache, jobs, err)
					}
					return renderResult(res)
				}
				want := render(true, 1)
				for _, jobs := range []int{1, 8} {
					if got := render(false, jobs); got != want {
						t.Errorf("n=%d jobs=%d: memoized compile differs from noCache:\n--- nocache ---\n%s--- memo ---\n%s",
							n, jobs, want, got)
					}
				}
			}
		})
	}
}

// TestRestrictedKeyDiscriminates is the key half of the memo's
// soundness (cost's TestCountsIgnoreUnreferencedSchemes is the other):
// the restricted key changes with the grid and with every placement
// field of a referenced array, and with nothing else.
func TestRestrictedKeyDiscriminates(t *testing.T) {
	base := func() *SchemeSet {
		return &SchemeSet{Grid: grid.New(2, 2), Label: "base", Schemes: map[string]dist.Scheme{
			"A": {Dims: []dist.Dim{dist.BlockContiguous(8, 2, 0), dist.BlockContiguous(8, 2, 1)},
				Rot: dist.RotateDim2ByDim1, D1: 1, D2: 1},
			"B": {Dims: []dist.Dim{dist.BlockContiguous(8, 2, 0)}, Fixed: map[int]int{1: dist.All}},
			"X": {Dims: []dist.Dim{dist.BlockContiguous(8, 2, 1)}, Fixed: map[int]int{0: dist.All}},
		}}
	}
	refs := []string{"A", "B"}
	want := base().restrictedKey(refs)
	edit := func(name string, f func(s *dist.Scheme)) func(*SchemeSet) {
		return func(ss *SchemeSet) {
			s := ss.Schemes[name]
			s.Dims = append([]dist.Dim(nil), s.Dims...)
			f(&s)
			ss.Schemes[name] = s
		}
	}
	differ := map[string]func(*SchemeSet){
		"grid":       func(ss *SchemeSet) { ss.Grid = grid.New(4, 1) },
		"sign":       edit("A", func(s *dist.Scheme) { s.Dims[0].Sign = -1 }),
		"disp":       edit("A", func(s *dist.Scheme) { s.Dims[1].Disp++ }),
		"block":      edit("B", func(s *dist.Scheme) { s.Dims[0].Block++ }),
		"cyclic":     edit("B", func(s *dist.Scheme) { s.Dims[0].Cyclic = true }),
		"griddim":    edit("B", func(s *dist.Scheme) { s.Dims[0].GridDim = 1 }),
		"replicated": edit("A", func(s *dist.Scheme) { s.Dims[1].Replicated = true }),
		"rotation":   edit("A", func(s *dist.Scheme) { s.Rot = dist.RotateDim1ByDim2 }),
		"rot-coeff":  edit("A", func(s *dist.Scheme) { s.D2 = -1 }),
		"fixed":      edit("B", func(s *dist.Scheme) { s.Fixed = map[int]int{1: 0} }),
		"missing":    func(ss *SchemeSet) { delete(ss.Schemes, "B") },
	}
	for name, f := range differ {
		ss := base()
		f(ss)
		if got := ss.restrictedKey(refs); got == want {
			t.Errorf("%s: a referenced array's placement changed, key did not: %s", name, got)
		}
	}
	same := map[string]func(*SchemeSet){
		"label":        func(ss *SchemeSet) { ss.Label = "renamed" },
		"unreferenced": edit("X", func(s *dist.Scheme) { s.Dims[0].Cyclic = true; s.Dims[0].Block = 1 }),
		"dropped":      func(ss *SchemeSet) { delete(ss.Schemes, "X") },
	}
	for name, f := range same {
		ss := base()
		f(ss)
		if got := ss.restrictedKey(refs); got != want {
			t.Errorf("%s: key changed with something the nest cannot see:\n%s\n%s", name, want, got)
		}
	}
	if sig := base().Signature(); !strings.HasPrefix(sig, want) || !strings.Contains(sig, ";X:") {
		t.Errorf("signature %q does not extend the restricted key %q over the remaining arrays", sig, want)
	}
}

// TestSynthNestPricingBudget is the deterministic gate on the nest memo:
// Synthetic(16) on 16 processors asks 2448 nest-pricing questions
// (s(s+1)(s+2)/6 segment nests × 3 grid shapes) and all of them must be
// answered in closed form, but only the distinct (nest, grid, referenced
// schemes) keys may reach the engine — 48 when this was written, and the
// count repeats exactly. More than ~10 % over means a key grew a
// component that splits entries (or the memo is off): the s³/6 term is
// back in compile time.
func TestSynthNestPricingBudget(t *testing.T) {
	const s, budget = 16, 52
	for _, jobs := range []int{1, 8} {
		c := NewCompiler(ir.Synthetic(s), cost.Unit(), map[string]int{"m": 64}, 16)
		c.Jobs = jobs
		c.Engines = &EngineStats{}
		if _, err := c.Compile(); err != nil {
			t.Fatal(err)
		}
		snap := c.Engines.Snapshot()
		if want := int64(3 * s * (s + 1) * (s + 2) / 6); snap["analytic_hits"] != want || snap["exact_fallbacks"] != 0 {
			t.Errorf("jobs=%d: answered queries %v, want %d analytic hits and no fallbacks", jobs, snap, want)
		}
		if got := snap["nest_pricings"]; got < 1 || got > budget {
			t.Errorf("jobs=%d: %d engine invocations, budget %d", jobs, got, budget)
		}
	}
}

// TestSynthSchemeSetBudget is the deterministic gate on the scheme-set
// memo: Synthetic(16) on 16 processors asks for 408 scheme sets (136
// segments × 3 grid shapes), and each distinct (partition, shape, cyclic)
// layout may be derived and validated once — 3 when this was written, at
// Jobs 1 and 8 alike. More means the memo key split on something the set
// does not depend on (the segment, say), or the memo is off.
func TestSynthSchemeSetBudget(t *testing.T) {
	const s, budget = 16, 3
	for _, jobs := range []int{1, 8} {
		c := NewCompiler(ir.Synthetic(s), cost.Unit(), map[string]int{"m": 64}, 16)
		c.Jobs = jobs
		if _, err := c.Compile(); err != nil {
			t.Fatal(err)
		}
		if got := len(c.setCache); got < 1 || got > budget {
			t.Errorf("jobs=%d: %d scheme sets derived, budget %d", jobs, got, budget)
		}
	}
}

// TestCompileAllocBudget gates the allocations of one whole Compile of
// Synthetic(10) on 8 processors, serially: 5387 when the scheme-set memo
// and the single-pass affinity graphs landed, 18975 before; 4516 since a
// segment prices its grid shapes in a plain loop (4735 through a fan-out
// of one worker); 2568 (2850 under -race) since a scheme set's keys are
// sliced from its signature's one string, 2622 (2991) before; 791
// (1387–1502 over seven -race runs) since a segment is aligned in a
// pooled align.Search with no graph, edge list or partition map, and a
// memo hit allocates no entry (2566 before); 696 (1280–1410) since
// align.NewAffinity keeps no per-statement map, reference key or
// per-pair slice and no n² edge table; 661 (1371–1482 over seven -race
// runs) since one Analysis holds the checked lowering and the per-nest
// tables, whose reference lists share one backing array. Each budget is
// about 10 %
// over its figure, the race budget over the highest race run: the race
// detector's sync.Pool drops a quarter of the searches and counting
// workspaces put back. A figure past it means some per-segment or
// per-query work allocates again.
func TestCompileAllocBudget(t *testing.T) {
	budget := 727.0
	if raceEnabled {
		budget = 1550
	}
	p := ir.Synthetic(10)
	got := testing.AllocsPerRun(5, func() {
		c := NewCompiler(p, cost.Unit(), map[string]int{"m": 64}, 8)
		c.Jobs = 1
		if _, err := c.Compile(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Compile of %s (N=8, Jobs=1): %.0f allocations, budget %.0f", p.Name, got, budget)
	if got > budget {
		t.Errorf("Compile of %s (N=8, Jobs=1) made %.0f allocations, budget %.0f", p.Name, got, budget)
	}
}

// outOfExtentProgram reads B five elements past its extent — the
// ROADMAP's repro. Compiler.analysis refuses it; priced anyway, it panics
// inside the owner computation.
func outOfExtentProgram() *ir.Program {
	m, i := ir.V("m"), ir.V("i")
	rhs := ir.Rd(ir.R("B", ir.NewAffine(5, ir.Term{Var: "i", Coeff: 1})))
	return &ir.Program{
		Name: "oob", Params: []string{"m"},
		Arrays: map[string]*ir.Array{
			"A": {Name: "A", Extents: []ir.Affine{m}},
			"B": {Name: "B", Extents: []ir.Affine{m}},
		},
		Nests: []*ir.Nest{{
			Label: "L1",
			Loops: []ir.Loop{{Index: "i", Lo: ir.Const(1), Hi: m, Step: 1}},
			Stmts: []*ir.Stmt{{
				Line: 1, Depth: 1, LHS: ir.R("A", i), Reads: ir.ExprReads(rhs), RHS: rhs,
				Flops: ir.ExprFlops(rhs), Text: "A(i) = B(i+5)",
			}},
		}},
	}
}

// TestPanickingPricingIsAnError: a panic inside a cost query — on the
// caller's goroutine or on a fan-out worker — comes back from Compile as
// an error naming the segment and the panic value, and the cached entry
// keeps answering with that error rather than a zero cost.
func TestPanickingPricingIsAnError(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		for _, noCache := range []bool{false, true} {
			c := NewCompiler(outOfExtentProgram(), cost.Unit(), map[string]int{"m": 8}, 4)
			c.Jobs, c.noCache = jobs, noCache
			label := fmt.Sprintf("jobs=%d nocache=%v", jobs, noCache)
			var outOfRange *ir.RangeError
			if _, err := c.analysis(); !errors.As(err, &outOfRange) {
				t.Fatalf("%s: analysis() = %v, want the range error", label, err)
			}
			// Past the front door, as only a bug could be: dist's assertion
			// fires inside a cost query.
			lw, err := c.Program.Lower(c.Bind)
			if err != nil {
				t.Fatal(err)
			}
			c.an, c.anErr = &Analysis{low: lw, refs: [][]string{{"A", "B"}}, lastWrite: map[string]int{}}, nil
			_, err = c.Compile()
			if !errors.Is(err, ErrPanic) {
				t.Fatalf("%s: Compile error %v, want one wrapping ErrPanic", label, err)
			}
			if msg := err.Error(); !strings.Contains(msg, "segment (1,1)") || !strings.Contains(msg, "block index") {
				t.Errorf("%s: error %q does not name the segment and the panic value", label, msg)
			}
			if _, _, again := c.SegmentCost(1, 1); !errors.Is(again, ErrPanic) {
				t.Errorf("%s: second query of the panicked segment returned %v", label, again)
			}
		}
	}
}

// TestProcessorCountBelowOneIsAnError: a compiler for fewer than one
// processor is refused up front with a plain error, from Compile and from
// a direct segment query alike, not with a panic recovered from building
// its grid.
func TestProcessorCountBelowOneIsAnError(t *testing.T) {
	for _, n := range []int{0, -4} {
		for _, jobs := range []int{1, 8} {
			c := jacobiCompiler(16, n)
			c.Jobs = jobs
			_, err := c.Compile()
			_, _, segErr := jacobiCompiler(16, n).SegmentCost(1, 1)
			for _, e := range []error{err, segErr} {
				if e == nil || errors.Is(e, ErrPanic) || !strings.Contains(e.Error(), "processors, below 1") {
					t.Errorf("N=%d jobs=%d: error %v, want the processor-count error, not a panic", n, jobs, e)
				}
			}
		}
	}
}
