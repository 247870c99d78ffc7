package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dmcc/internal/cost"
	"dmcc/internal/ir"
)

func almostEqual(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

// TestPlanEvaluatorMatchesCompileAtBase: re-pricing the frozen plan at
// the size it was compiled for must reproduce the DP's minimum cost —
// the evaluator prices exactly the plan the DP chose.
func TestPlanEvaluatorMatchesCompileAtBase(t *testing.T) {
	for _, p := range []*ir.Program{ir.Jacobi(), ir.Gauss(), ir.SOR(), ir.Synthetic(5)} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			const m, n = 16, 4
			c := NewCompiler(p, cost.Unit(), map[string]int{"m": m}, n)
			pe, err := NewPlanEvaluator(c)
			if err != nil {
				t.Fatal(err)
			}
			pc, err := pe.EvalAt(m)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(pc.Total(), pe.Base.DP.MinimumCost) {
				t.Errorf("EvalAt(base) = %v (total %.6f), DP minimum %.6f",
					pc, pc.Total(), pe.Base.DP.MinimumCost)
			}
		})
	}
}

// TestPlanEvaluatorFit: after fitting, the m-sweep runs on piecewise
// polynomials alone and must agree exactly with per-size analytic
// counting — including sizes far beyond any sampled during the fit.
// Gauss runs at N=16 and N=9 so its plan keeps two segments: the
// boundary exercises the symbolic ChangeCost fit, whose one-division
// evaluation must be bit-identical to the numeric price — at N=9 over a
// replica denominator of 3, where the splits are not dyadic.
func TestPlanEvaluatorFit(t *testing.T) {
	cases := []struct {
		name      string // subtest name; the program's when empty
		mk        func() *ir.Program
		n, baseM  int
		minM, deg int
		evalMs    []int
		wantDen   int64 // the change fit's replica denominator; 0: the plan has one segment
	}{
		{mk: ir.Jacobi, n: 4, baseM: 16, minM: 12, deg: 2, evalMs: []int{16, 24, 37, 64, 200, 1001}},
		{mk: ir.SOR, n: 4, baseM: 16, minM: 12, deg: 2, evalMs: []int{16, 24, 37, 64, 200, 1001}},
		{mk: ir.Gauss, n: 16, baseM: 64, minM: 64, deg: 3, evalMs: []int{64, 100, 131, 256, 1024}, wantDen: 4},
		{name: "gauss_n9", mk: ir.Gauss, n: 9, baseM: 64, minM: 64, deg: 3, evalMs: []int{64, 100, 131, 256, 1024, 1025}, wantDen: 3},
	}
	for _, tc := range cases {
		tc := tc
		p := tc.mk()
		name := tc.name
		if name == "" {
			name = p.Name
		}
		t.Run(name, func(t *testing.T) {
			mk := func() *PlanEvaluator {
				c := NewCompiler(tc.mk(), cost.Unit(), map[string]int{"m": tc.baseM}, tc.n)
				pe, err := NewPlanEvaluator(c)
				if err != nil {
					t.Fatal(err)
				}
				return pe
			}
			fitted, direct := mk(), mk()
			if err := fitted.Fit(tc.minM, tc.deg, 2); err != nil {
				t.Fatal(err)
			}
			if tc.wantDen != 0 && (len(fitted.Base.DP.Segments) != 2 || fitted.chgSym[1].Den != tc.wantDen) {
				t.Fatalf("plan has %d segments, want 2 with a change over denominator %d", len(fitted.Base.DP.Segments), tc.wantDen)
			}
			if !fitted.FittedAt(tc.minM) {
				t.Fatal("Fit succeeded but the evaluator still needs numeric pricing")
			}
			if fitted.FittedAt(tc.minM - 1) {
				t.Fatal("evaluator claims polynomial pricing below the fitted floor")
			}
			for _, m := range tc.evalMs {
				got, err := fitted.EvalAt(m)
				if err != nil {
					t.Fatal(err)
				}
				want, err := direct.EvalAt(m)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("m=%d: fitted %+v, direct %+v", m, got, want)
				}
			}
			if f := fitted.Formulas(); len(f) != len(p.Nests) {
				t.Errorf("Formulas() returned %d entries for %d nests", len(f), len(p.Nests))
			}
		})
	}
}

// TestEvalAtOffBaseMatchesFreshCompiler: below the fitted floor an
// evaluator prices numerically on a compiler bound at the size asked for,
// which shares the base compiler's program tables but not its binding.
// Its price must equal a fresh compiler's at that size, pricing the same
// frozen decisions from scratch — so array shapes are evaluated under the
// size being priced and never cached where both compilers see them.
func TestEvalAtOffBaseMatchesFreshCompiler(t *testing.T) {
	for _, tc := range []struct {
		mk             func() *ir.Program
		n, baseM, minM int
		deg            int
		evalMs         []int
	}{
		{mk: ir.Jacobi, n: 4, baseM: 16, minM: 12, deg: 2, evalMs: []int{8, 9, 11}},
		{mk: ir.SOR, n: 4, baseM: 16, minM: 12, deg: 2, evalMs: []int{8, 9, 11}},
		{mk: ir.Gauss, n: 16, baseM: 64, minM: 64, deg: 3, evalMs: []int{33, 40, 63}},
	} {
		pe, err := NewPlanEvaluator(NewCompiler(tc.mk(), cost.Unit(), map[string]int{"m": tc.baseM}, tc.n))
		if err != nil {
			t.Fatal(err)
		}
		if err := pe.Fit(tc.minM, tc.deg, 2); err != nil {
			t.Fatal(err)
		}
		name := pe.c.Program.Name
		for _, m := range tc.evalMs {
			if pe.FittedAt(m) {
				t.Fatalf("%s: m=%d is below the floor %d but priced from the fits", name, m, tc.minM)
			}
			got, err := pe.EvalAt(m)
			if err != nil {
				t.Fatal(err)
			}
			f := NewCompiler(tc.mk(), cost.Unit(), map[string]int{"m": m}, tc.n)
			var want PlanCost
			var prev *SchemeSet
			for i, seg := range pe.Base.DP.Segments {
				ss, err := f.schemeSet(f.assignOf(seg.Schemes.Partition), seg.Schemes.Partition.Method, gridShape(seg), seg.Schemes.Cyclic)
				if err != nil {
					t.Fatal(err)
				}
				for nest := seg.Start - 1; nest < seg.Start-1+seg.Len; nest++ {
					ct, err := f.countNest(nest, false, ss)
					if err != nil {
						t.Fatal(err)
					}
					want.Exec += ct.Time(f.Model).Total()
				}
				if i > 0 {
					chg, err := f.ChangeCost(prev, ss)
					if err != nil {
						t.Fatal(err)
					}
					want.Redist += chg
				}
				prev = ss
			}
			if want.LoopCarried, err = f.LoopCarriedCost(prev); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s base %d: EvalAt(%d) = %+v, a compiler bound at %d prices %+v", name, tc.baseM, m, got, m, want)
			}
		}
	}
}

// TestFittedEvalAtAllocatesNothing: pricing a fitted size is polynomial
// arithmetic on the evaluator's own fits — no allocation, the property
// the daemon's read path is built on.
func TestFittedEvalAtAllocatesNothing(t *testing.T) {
	for _, mk := range []func() *ir.Program{ir.Gauss, ir.Jacobi, ir.SOR} {
		const baseM, n = 128, 8
		pe, err := NewPlanEvaluator(NewCompiler(mk(), cost.Unit(), map[string]int{"m": baseM}, n))
		if err != nil {
			t.Fatal(err)
		}
		if err := pe.Fit(baseM, 3, 2); err != nil {
			t.Fatal(err)
		}
		m := 4 * baseM
		allocs := testing.AllocsPerRun(100, func() {
			m++
			if _, err := pe.EvalAt(m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: fitted EvalAt allocates %v times per call", pe.c.Program.Name, allocs)
		}
	}
}

// TestFitAllocBudget gates one Fit(128, 3, 2) of each kernel at N = 8 from
// base 128, compile-kernels' configuration, on an evaluator whose pricer
// and counter workspaces are warm: 48 sampled sizes, each a re-bound
// lowering, re-derived scheme sets and every nest's counts in a reused
// workspace, priced into one arena whose series are fitted into one
// array of pieces and differences per FitSeries call. Gauss makes 69
// allocations, jacobi 112 and sor 55 (405, 674 and 376 while each size
// had its own price slices and change-load maps and each fitted piece
// its own differences; 15,336, 19,157 and 7,337 while every size lowered
// the program afresh, derived fresh scheme sets on a throwaway compiler
// and every count built its state from scratch). Each budget is about
// 110 % of its figure. Under -race, whose sync.Pool drops a quarter of
// the workspaces put back at random, seven runs read 5,135–5,892,
// 4,909–5,367 and 1,225–1,781 (4,940–6,195, 5,426–6,045 and 1,686–1,997
// before); the race budgets, about 125 % of the highest, are unchanged.
// A trip is per-size or per-count state allocating again.
func TestFitAllocBudget(t *testing.T) {
	for _, c := range []struct {
		mk           func() *ir.Program
		budget, race float64
	}{
		{ir.Gauss, 76, 7750},
		{ir.Jacobi, 124, 7550},
		{ir.SOR, 61, 2500},
	} {
		const baseM, n = 128, 8
		comp := NewCompiler(c.mk(), cost.Unit(), map[string]int{"m": baseM}, n)
		comp.Jobs = 1
		pe, err := NewPlanEvaluator(comp)
		if err != nil {
			t.Fatal(err)
		}
		budget := c.budget
		if raceEnabled {
			budget = c.race
		}
		got := testing.AllocsPerRun(5, func() {
			if err := pe.Fit(baseM, 3, 2); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Fit of %s (N=%d, base %d): %.0f allocations, budget %.0f", comp.Program.Name, n, baseM, got, budget)
		if got > budget {
			t.Errorf("Fit of %s (N=%d, base %d) made %.0f allocations, budget %.0f", comp.Program.Name, n, baseM, got, budget)
		}
	}
}

// fittedPastExtentSource fits from m = 16, but A(i+m) reaches 2m against
// A's extent m+100: every size past 100 is out of range.
const fittedPastExtentSource = `PROGRAM pastextent
PARAM m
REAL A(m+100), B(m+100)
DO 9 i = 1, m
7   B(i) = A(i+m)
9 CONTINUE
END
`

// TestFittedPriceOutsideRangeIsRefused: a fitted size past an extent is
// the *ir.RangeError the numeric path returns, naming the reference and
// the interval it ranges over — from the compiled evaluator and from one
// thawed out of its frozen plan — and a size in range is priced.
func TestFittedPriceOutsideRangeIsRefused(t *testing.T) {
	p, err := ir.Parse(fittedPastExtentSource)
	if err != nil {
		t.Fatal(err)
	}
	const baseM, n = 16, 4
	pe, err := NewPlanEvaluator(NewCompiler(p, cost.Unit(), map[string]int{"m": baseM}, n))
	if err != nil {
		t.Fatal(err)
	}
	if err := pe.Fit(baseM, 3, 2); err != nil {
		t.Fatal(err)
	}
	thawed, err := Thaw(NewCompiler(p, cost.Unit(), map[string]int{"m": baseM}, n), pe.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	const want = "subscript i+m of A(i+m) ranges over [201, 400], outside the declared [1, 300]"
	for name, e := range map[string]*PlanEvaluator{"compiled": pe, "thawed": thawed} {
		if !e.FittedAt(200) {
			t.Fatalf("%s: m=200 is not on the fitted path", name)
		}
		var re *ir.RangeError
		if _, err := e.EvalAt(200); !errors.As(err, &re) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: EvalAt(200) = %v, want the *ir.RangeError %q", name, err, want)
		}
		if _, err := e.EvalAt(100); err != nil {
			t.Errorf("%s: EvalAt(100): %v", name, err)
		}
		if _, err := e.EvalAt(8); err != nil { // below the floor: numeric
			t.Errorf("%s: EvalAt(8): %v", name, err)
		}
	}
}
