package main

import (
	"fmt"
	"math"

	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
)

// The checks here compare the program's outputs with references that
// do not share its fast paths: the element-enumeration counting and
// redistribution oracles for compiled plans, the sequential interpreter
// for executed values, and an evaluator thawed in the harness for the
// daemon's replies. They run behind the timed window.

// valueTolerance is the largest absolute difference allowed between a
// parallel run's array element and the sequential interpreter's.
const valueTolerance = 1e-9

// sameCost compares two modelled costs that should be the same number
// reached by different summation orders.
func sameCost(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkPlan re-prices the chosen segments of a compiled plan with a
// compiler that counts nests and redistributions by enumeration, and
// checks the DP never did worse than the single-scheme baseline.
func checkPlan(p *ir.Program, nprocs, m int, res *core.CompileResult) error {
	dp := res.DP
	if dp.MinimumCost > res.WholeProgramCost && !sameCost(dp.MinimumCost, res.WholeProgramCost) {
		return fmt.Errorf("DP cost %v exceeds the whole-program cost %v", dp.MinimumCost, res.WholeProgramCost)
	}
	oracle := core.NewCompiler(p, cost.Unit(), map[string]int{p.Params[0]: m}, nprocs)
	oracle.ExactNestCount = true
	oracle.ExactChangeCost = true
	total := 0.0
	for i, seg := range dp.Segments {
		c, ss, err := oracle.SegmentCost(seg.Start, seg.Len)
		if err != nil {
			return err
		}
		if !sameCost(c, seg.M) || ss.Signature() != seg.Schemes.Signature() {
			return fmt.Errorf("segment (%d,%d): plan says %v under %s, oracle %v under %s", seg.Start, seg.Len, seg.M, seg.Schemes, c, ss)
		}
		total += c
		if i == 0 {
			continue
		}
		chg, err := oracle.ChangeCost(dp.Segments[i-1].Schemes, seg.Schemes)
		if err != nil {
			return err
		}
		if !sameCost(chg, seg.ChangeIn) {
			return fmt.Errorf("change into segment (%d,%d): plan says %v, oracle %v", seg.Start, seg.Len, seg.ChangeIn, chg)
		}
		total += chg
	}
	lc, err := oracle.LoopCarriedCost(dp.Segments[len(dp.Segments)-1].Schemes)
	if err != nil {
		return err
	}
	if !sameCost(lc, dp.LoopCarried) {
		return fmt.Errorf("loop-carried cost: plan says %v, oracle %v", dp.LoopCarried, lc)
	}
	if total += lc; !sameCost(total, dp.MinimumCost) {
		return fmt.Errorf("segments, changes and loop-carried cost sum to %v, plan says %v", total, dp.MinimumCost)
	}
	return nil
}

// checkEval compares a re-priced total with a reference evaluator's.
func checkEval(ref *core.PlanEvaluator, m int, got float64) error {
	pc, err := ref.EvalAt(m)
	if err != nil {
		return err
	}
	if !sameCost(pc.Total(), got) {
		return fmt.Errorf("got %v, reference %v", got, pc.Total())
	}
	return nil
}

// checkValues compares every array element of a parallel run with the
// sequential reference and returns the largest absolute difference.
func checkValues(got, want ir.Storage) (float64, error) {
	worst := 0.0
	for name, ref := range want {
		arr, ok := got[name]
		if !ok {
			return 0, fmt.Errorf("array %s missing from the parallel result", name)
		}
		for key, v := range ref {
			d := math.Abs(arr[key] - v)
			if d > worst || math.IsNaN(d) {
				worst = d
			}
			if math.IsNaN(d) || d > valueTolerance {
				return d, fmt.Errorf("%s(%s) = %v, sequential reference %v", name, key, arr[key], v)
			}
		}
	}
	return worst, nil
}
