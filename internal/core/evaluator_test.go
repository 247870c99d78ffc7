package core

import (
	"math"
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
// Gauss runs at N=16 so its plan keeps two segments: the boundary
// exercises the symbolic ChangeCost fit, whose one-division evaluation
// must be bit-identical to the numeric redistribution calculator.
func TestPlanEvaluatorFit(t *testing.T) {
	cases := []struct {
		mk               func() *ir.Program
		n, baseM         int
		minM, deg        int
		evalMs           []int
		wantMultipleSegs bool
	}{
		{mk: ir.Jacobi, n: 4, baseM: 16, minM: 12, deg: 2, evalMs: []int{16, 24, 37, 64, 200, 1001}},
		{mk: ir.SOR, n: 4, baseM: 16, minM: 12, deg: 2, evalMs: []int{16, 24, 37, 64, 200, 1001}},
		{mk: ir.Gauss, n: 16, baseM: 64, minM: 64, deg: 3, evalMs: []int{64, 100, 131, 256, 1024}, wantMultipleSegs: true},
	}
	for _, tc := range cases {
		tc := tc
		p := tc.mk()
		t.Run(p.Name, func(t *testing.T) {
			mk := func() *PlanEvaluator {
				c := NewCompiler(tc.mk(), cost.Unit(), map[string]int{"m": tc.baseM}, tc.n)
				pe, err := NewPlanEvaluator(c)
				if err != nil {
					t.Fatal(err)
				}
				return pe
			}
			fitted, direct := mk(), mk()
			if tc.wantMultipleSegs && len(fitted.segs) < 2 {
				t.Fatalf("plan has %d segments, want >= 2 to exercise the change fit", len(fitted.segs))
			}
			if err := fitted.Fit(tc.minM, tc.deg, 2); err != nil {
				t.Fatal(err)
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
