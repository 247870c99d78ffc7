// PlanEvaluator: compile once, sweep the problem size symbolically.
//
// A Compile() run makes three kinds of decisions — component alignment,
// the grid-shape choice per segment, and the DP segmentation — and then
// prices the plan. The decisions are discrete and, for the paper's
// programs, stable across problem sizes; only the prices change with m.
// PlanEvaluator freezes the decisions at a base size and re-prices the
// frozen plan at any other size: schemes are re-derived per size (block
// sizes track ceil(m/N)), nest counts come from the analytic engine, and
// after Fit() from piecewise polynomials in m, so an m-sweep costs one
// compile plus O(degree) arithmetic per point instead of one compile per
// point.
package core

import (
	"fmt"

	"dmcc/internal/cost"
	"dmcc/internal/dist"
)

// frozenSeg is one segment of the frozen plan: which nests, on which
// grid shape, under which alignment partition.
type frozenSeg struct {
	start, n int // 1-based nest range [start, start+n-1]
	shape    [2]int
	set      *SchemeSet // schemes at the base size (partition carrier)
}

// PlanEvaluator re-prices one frozen compilation plan across problem
// sizes. Create with NewPlanEvaluator, optionally call Fit, then EvalAt.
type PlanEvaluator struct {
	c       *Compiler
	Base    *CompileResult
	BaseM   int
	segs    []frozenSeg
	execSym []*cost.SymbolicCounts // per nest (0-based), after Fit
	lcSym   []*cost.SymbolicCounts // loop-carried words per nest, after Fit
	chgSym  []*cost.SymbolicLoads  // boundary into segment i (chgSym[0] unused), after Fit
	fitMinM int                    // smallest size the fits cover; below it EvalAt prices numerically
}

// FittedAt reports whether size m is priced entirely from polynomials,
// so pricing needs no scheme derivation and no counting or
// redistribution calculator at all — O(degree) arithmetic, where the
// numeric path is superlinear in m. Sizes below the fitted floor (a
// plan whose counts only become polynomial past a transient) fall back
// to the numeric path.
func (pe *PlanEvaluator) FittedAt(m int) bool {
	if pe.execSym == nil || pe.chgSym == nil || m < pe.fitMinM {
		return false
	}
	return !pe.c.Program.Iterative || pe.lcSym != nil
}

// PlanCost is the re-priced plan at one size, split the way DPResult
// splits it.
type PlanCost struct {
	Exec, Redist, LoopCarried float64
}

// Total is the full plan cost.
func (pc PlanCost) Total() float64 { return pc.Exec + pc.Redist + pc.LoopCarried }

// NewPlanEvaluator compiles the program at the compiler's bound size and
// freezes the resulting plan. The program must bind exactly one size
// parameter — the one the evaluator sweeps.
func NewPlanEvaluator(c *Compiler) (*PlanEvaluator, error) {
	if len(c.Program.Params) != 1 {
		return nil, fmt.Errorf("core: PlanEvaluator sweeps exactly one size parameter, program %s has %d", c.Program.Name, len(c.Program.Params))
	}
	res, err := c.Compile()
	if err != nil {
		return nil, err
	}
	pe := &PlanEvaluator{c: c, Base: res, BaseM: c.Bind[c.Program.Params[0]]}
	for _, seg := range res.DP.Segments {
		g := seg.Schemes.Grid
		pe.segs = append(pe.segs, frozenSeg{
			start: seg.Start, n: seg.Len,
			shape: [2]int{g.Extent(0), g.Extent(1)},
			set:   seg.Schemes,
		})
	}
	return pe, nil
}

// bindAt is the parameter binding for size m.
func (pe *PlanEvaluator) bindAt(m int) map[string]int {
	return map[string]int{pe.c.Program.Params[0]: m}
}

// setsAt re-derives every segment's schemes at size m under the frozen
// alignment and grid shape.
func (pe *PlanEvaluator) setsAt(m int) ([]*SchemeSet, error) {
	bind := pe.bindAt(m)
	sets := make([]*SchemeSet, len(pe.segs))
	for i, fs := range pe.segs {
		ss, err := DeriveSchemes(pe.c.Program, fs.set.Partition, fs.shape, bind, fs.set.Cyclic)
		if err != nil {
			return nil, err
		}
		sets[i] = ss
	}
	return sets, nil
}

// evalCompiler is a throwaway compiler bound at m, sharing the frozen
// plan's program, its validation and per-nest tables, and its model;
// used for the redistribution and loop-carried terms, which the analytic
// calculators already answer in closed form. It prices every nest and
// scheme change once, so it runs uncached and pays no memo keys.
func (pe *PlanEvaluator) evalCompiler(m int) (*Compiler, error) {
	prep, err := pe.c.prepared()
	if err != nil {
		return nil, err
	}
	return &Compiler{
		Program: pe.c.Program, Model: pe.c.Model, Bind: pe.bindAt(m),
		NProcs: pe.c.NProcs, Weights: pe.c.Weights, Jobs: 1, NoCache: true,
		ExactNestCount:      pe.c.ExactNestCount,
		PipelinedReductions: pe.c.PipelinedReductions,
		Engines:             pe.c.Engines,
		prep:                prep,
	}, nil
}

// nestCountsAt prices nest t (0-based) of segment seg at size m: from
// the fitted polynomial when Fit has run, otherwise from the analytic
// counting engine.
func (pe *PlanEvaluator) nestCountsAt(t, m int, ss *SchemeSet, ec *Compiler) (cost.Counts, error) {
	if pe.execSym != nil && m >= pe.fitMinM {
		return pe.execSym[t].EvalAt(m)
	}
	return ec.countNest(t, false, ss)
}

// lcCountsAt prices the loop-carried words of nest t at size m.
func (pe *PlanEvaluator) lcCountsAt(t, m int, final *SchemeSet, ec *Compiler) (cost.Counts, error) {
	if pe.lcSym != nil && m >= pe.fitMinM {
		return pe.lcSym[t].EvalAt(m)
	}
	return ec.countNest(t, true, final)
}

// EvalAt prices the frozen plan at size m. Execution and loop-carried
// counts come from fitted polynomials (after Fit) or the analytic
// engine; redistribution between segments comes from fitted load
// polynomials (after Fit) or the closed-form calculator. Nothing
// re-runs alignment, the shape search, or the DP — and once Fit has
// accepted the plan, nothing derives schemes or enumerates elements
// either: the whole price is O(degree) arithmetic.
func (pe *PlanEvaluator) EvalAt(m int) (PlanCost, error) {
	var sets []*SchemeSet
	var ec *Compiler
	if !pe.FittedAt(m) {
		var err error
		sets, err = pe.setsAt(m)
		if err != nil {
			return PlanCost{}, err
		}
		if ec, err = pe.evalCompiler(m); err != nil {
			return PlanCost{}, err
		}
	}
	var pc PlanCost
	for i, fs := range pe.segs {
		var set *SchemeSet
		if sets != nil {
			set = sets[i]
		}
		for t := fs.start - 1; t < fs.start-1+fs.n; t++ {
			ct, err := pe.nestCountsAt(t, m, set, ec)
			if err != nil {
				return PlanCost{}, err
			}
			pc.Exec += ct.Time(pe.c.Model).Total()
		}
		if i > 0 {
			if pe.chgSym != nil && m >= pe.fitMinM {
				ml, err := pe.chgSym[i].MaxLoadAt(m)
				if err != nil {
					return PlanCost{}, err
				}
				pc.Redist += ml * pe.c.Model.Tc
			} else {
				chg, err := ec.ChangeCost(sets[i-1], sets[i])
				if err != nil {
					return PlanCost{}, err
				}
				pc.Redist += chg
			}
		}
	}
	if pe.c.Program.Iterative {
		var final *SchemeSet
		if sets != nil {
			final = sets[len(sets)-1]
		}
		for t := range pe.c.Program.Nests {
			ct, err := pe.lcCountsAt(t, m, final, ec)
			if err != nil {
				return PlanCost{}, err
			}
			pc.LoopCarried += ct.Time(pe.c.Model).Comm
		}
	}
	return pc, nil
}

// Fit replaces per-size counting with piecewise polynomials in m: every
// nest's execution counts (and loop-carried words, for iterative
// programs) are sampled along each residue class of m modulo the grid
// period and fitted by forward differences, validated on held-out sizes.
// After a successful Fit, EvalAt no longer invokes the counting engine
// at all. Counts that are not piecewise polynomial (a plan that changes
// character with m) return an error and leave the evaluator unfitted.
func (pe *PlanEvaluator) Fit(minM, maxDeg, validate int) error {
	period := 1
	for _, fs := range pe.segs {
		period = dist.LCM(period, dist.LCM(fs.shape[0], fs.shape[1]))
	}
	segOf := make([]int, len(pe.c.Program.Nests))
	for i, fs := range pe.segs {
		for t := fs.start - 1; t < fs.start-1+fs.n; t++ {
			segOf[t] = i
		}
	}
	// One derived scheme set list and one throwaway compiler per sampled
	// size, shared across all nests' fits.
	type sampleCtx struct {
		sets []*SchemeSet
		ec   *Compiler
	}
	cache := map[int]*sampleCtx{}
	at := func(m int) (*sampleCtx, error) {
		if sc, ok := cache[m]; ok {
			return sc, nil
		}
		sets, err := pe.setsAt(m)
		if err != nil {
			return nil, err
		}
		ec, err := pe.evalCompiler(m)
		if err != nil {
			return nil, err
		}
		sc := &sampleCtx{sets: sets, ec: ec}
		cache[m] = sc
		return sc, nil
	}
	execSym := make([]*cost.SymbolicCounts, len(pe.c.Program.Nests))
	var lcSym []*cost.SymbolicCounts
	for t := range pe.c.Program.Nests {
		t := t
		sym, err := cost.FitCounts(func(m int) (cost.Counts, error) {
			sc, err := at(m)
			if err != nil {
				return cost.Counts{}, err
			}
			return pe.nestCountsAt(t, m, sc.sets[segOf[t]], sc.ec)
		}, minM, period, maxDeg, validate)
		if err != nil {
			return fmt.Errorf("core: fitting nest %d: %w", t+1, err)
		}
		execSym[t] = sym
	}
	if pe.c.Program.Iterative {
		lcSym = make([]*cost.SymbolicCounts, len(pe.c.Program.Nests))
		for t := range pe.c.Program.Nests {
			t := t
			sym, err := cost.FitCounts(func(m int) (cost.Counts, error) {
				sc, err := at(m)
				if err != nil {
					return cost.Counts{}, err
				}
				return pe.lcCountsAt(t, m, sc.sets[len(sc.sets)-1], sc.ec)
			}, minM, period, maxDeg, validate)
			if err != nil {
				return fmt.Errorf("core: fitting loop-carried words of nest %d: %w", t+1, err)
			}
			lcSym[t] = sym
		}
	}
	// Segment boundaries: fit each scheme change's scaled loads. The
	// guard demands that the one-division evaluation MaxNum/Den*Tc
	// reproduce the numeric float accumulation bit for bit at every
	// sample; a plan whose replica splits don't round-trip exactly
	// (possible only for non-power-of-two replica counts) fails the
	// whole fit and keeps the numeric path.
	chgSym := make([]*cost.SymbolicLoads, len(pe.segs))
	for i := 1; i < len(pe.segs); i++ {
		i := i
		sym, err := cost.RedistLoadsPoly(func(m int) (dist.ScaledLoads, error) {
			sc, err := at(m)
			if err != nil {
				return dist.ScaledLoads{}, err
			}
			sl, err := sc.ec.changeLoadsScaled(sc.sets[i-1], sc.sets[i])
			if err != nil {
				return dist.ScaledLoads{}, err
			}
			numeric, err := sc.ec.ChangeCost(sc.sets[i-1], sc.sets[i])
			if err != nil {
				return dist.ScaledLoads{}, err
			}
			if float64(sl.MaxNum())/float64(sl.Den)*pe.c.Model.Tc != numeric {
				return dist.ScaledLoads{}, fmt.Errorf("core: scaled change loads drift from the float accumulation (denominator %d)", sl.Den)
			}
			return sl, nil
		}, minM, period, maxDeg, validate)
		if err != nil {
			return fmt.Errorf("core: fitting scheme change into segment %d: %w", i+1, err)
		}
		chgSym[i] = sym
	}
	pe.execSym, pe.lcSym, pe.chgSym = execSym, lcSym, chgSym
	pe.fitMinM = minM
	return nil
}

// Formulas renders the fitted per-nest counts; empty before Fit.
func (pe *PlanEvaluator) Formulas() []string {
	if pe.execSym == nil {
		return nil
	}
	out := make([]string, len(pe.execSym))
	for t, sym := range pe.execSym {
		label := pe.c.Program.Nests[t].Label
		if label == "" {
			label = fmt.Sprintf("L%d", t+1)
		}
		out[t] = fmt.Sprintf("%s: %s", label, sym)
	}
	return out
}
