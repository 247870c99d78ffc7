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
	"strconv"
	"sync"

	"dmcc/internal/align"
	"dmcc/internal/cost"
	"dmcc/internal/dist"
)

// PlanEvaluator re-prices one frozen compilation plan across problem
// sizes. Create with NewPlanEvaluator, optionally call Fit, then EvalAt.
type PlanEvaluator struct {
	c *Compiler
	// Base is the plan at the base size: its segments (grid shape,
	// alignment partition, cyclic flag, costs) and total costs are what
	// priceAt re-prices, Fit samples and Freeze writes. A thawed
	// evaluator's Base holds no DP table and no pipelining decisions.
	Base    *CompileResult
	BaseM   int
	execSym []*cost.SymbolicCounts // per nest (0-based), after Fit
	lcSym   []*cost.SymbolicCounts // loop-carried words per nest, after Fit
	chgSym  []*cost.SymbolicLoads  // boundary into segment i (chgSym[0] unused), after Fit
	fitMinM int                    // smallest size the fits cover; below it EvalAt prices numerically

	// idle holds the pricers no priceAt is using; concurrent numeric
	// EvalAt calls each take their own.
	mu   sync.Mutex
	idle []*sizePricer
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
	return &PlanEvaluator{c: c, Base: res, BaseM: c.Bind[c.Program.Params[0]]}, nil
}

// gridShape is a segment's grid shape, N1 x N2.
func gridShape(seg Segment) [2]int {
	return [2]int{seg.Schemes.Grid.Extent(0), seg.Schemes.Grid.Extent(1)}
}

// sizePrice is the frozen plan priced numerically at one size: the
// integers EvalAt sums below the fitted floor and Fit interpolates.
type sizePrice struct {
	exec []cost.Counts // segment-pass counts per nest (0-based)
	lc   []cost.Counts // loop-carried counts per nest; empty unless the program is iterative
	chg  []changeBill  // the scheme change into segment i (chg[0] unused)
}

// changeBill is what a price and a fit read of a scheme change's
// dist.ScaledLoads: its bottleneck numerator, words and denominator.
type changeBill struct {
	maxNum, words, den int64
}

// maxLoad is dist.ScaledLoads.MaxLoad of the loads the bill was read
// from.
func (b changeBill) maxLoad() float64 { return float64(b.maxNum) / float64(max(b.den, 1)) }

// sizePrices carves the prices of n sizes of the plan from one array of
// counts and one of bills.
func (pe *PlanEvaluator) sizePrices(n int) []sizePrice {
	nests, segs := len(pe.c.Program.Nests), len(pe.Base.DP.Segments)
	lc := 0
	if pe.c.Program.Iterative {
		lc = nests
	}
	out := make([]sizePrice, n)
	counts := make([]cost.Counts, n*(nests+lc))
	bills := make([]changeBill, n*segs)
	for k := range out {
		out[k].exec, counts = counts[:nests:nests], counts[nests:]
		out[k].lc, counts = counts[:lc:lc], counts[lc:]
		out[k].chg, bills = bills[:segs:segs], bills[segs:]
	}
	return out
}

// sizePricer is what priceAt works in: a compiler whose binding and
// lowering it owns, the lowering built once and re-bound to each size
// (ir.Lowered.Rebind) under the evaluator's analysis's per-nest tables,
// each segment's scheme set, re-derived in place at every size, and the
// loads of the scheme change being priced. One pricer serves one priceAt
// at a time.
type sizePricer struct {
	c    *Compiler
	sets []*SchemeSet
	acc  dist.ScaledLoads
}

// pricer takes an idle pricer, or builds one lowered at size m.
func (pe *PlanEvaluator) pricer(m int) (*sizePricer, error) {
	pe.mu.Lock()
	if n := len(pe.idle); n > 0 {
		sp := pe.idle[n-1]
		pe.idle = pe.idle[:n-1]
		pe.mu.Unlock()
		return sp, nil
	}
	pe.mu.Unlock()
	lw, err := pe.c.Program.Lower(map[string]int{pe.c.Program.Params[0]: m})
	if err != nil {
		return nil, err
	}
	// The compiler shares the program's per-nest tables, the model and
	// the engine counters, and runs uncached: it prices each query once,
	// so memo keys would be pure cost.
	an := &Analysis{low: lw, refs: pe.c.an.refs, lastWrite: pe.c.an.lastWrite}
	ec := an.Compiler(pe.c.Model, pe.c.NProcs)
	ec.noCache, ec.ExactNestCount, ec.Engines = true, pe.c.ExactNestCount, pe.c.Engines
	return &sizePricer{c: ec, sets: make([]*SchemeSet, len(pe.Base.DP.Segments))}, nil
}

// set is segment i's scheme set at the pricer's size, under the frozen
// alignment and grid shape: derived at the first size, re-derived in
// place after.
func (sp *sizePricer) set(i int, seg Segment) (*SchemeSet, error) {
	if ss := sp.sets[i]; ss != nil {
		return ss, ss.rederive(sp.c.an.low)
	}
	pt := align.Partition{Assign: seg.Schemes.Partition.Assign, Method: seg.Schemes.Partition.Method}
	ss, err := deriveSchemes(sp.c.an.low, pt, gridShape(seg), seg.Schemes.Cyclic)
	sp.sets[i] = ss
	return ss, err
}

// priceAt prices the frozen plan numerically at size m into out, which
// sizePrices made. It checks the program's ranges at m first (RangeAt on
// the analysis's lowering) — a constant-extent array can be in range at the
// base size and out of it here — then re-binds a pricer to m, re-derives
// each segment's schemes under the frozen alignment and grid shape, and
// prices every nest's two passes and every boundary's scheme change:
// nothing is lowered or derived afresh, and the counts themselves run in
// the counter's reused workspace.
func (pe *PlanEvaluator) priceAt(m int, out *sizePrice) error {
	if err := pe.c.an.low.RangeAt(m); err != nil {
		return err
	}
	sp, err := pe.pricer(m)
	if err != nil {
		return err
	}
	defer func() {
		pe.mu.Lock()
		pe.idle = append(pe.idle, sp)
		pe.mu.Unlock()
	}()
	p, ec, segs := pe.c.Program, sp.c, pe.Base.DP.Segments
	ec.Bind[p.Params[0]] = m
	if err := ec.an.low.Rebind(ec.Bind); err != nil {
		return err
	}
	var prev, ss *SchemeSet
	for i, seg := range segs {
		prev = ss
		if ss, err = sp.set(i, seg); err != nil {
			return err
		}
		for t := seg.Start - 1; t < seg.Start-1+seg.Len; t++ {
			if out.exec[t], err = ec.countNest(t, false, ss); err != nil {
				return err
			}
		}
		if i > 0 {
			if err := ec.changeLoads(prev, ss, &sp.acc); err != nil {
				return err
			}
			out.chg[i] = changeBill{sp.acc.MaxNum(), sp.acc.Words, sp.acc.Den}
		}
	}
	for t := range out.lc {
		if out.lc[t], err = ec.countNest(t, true, ss); err != nil {
			return err
		}
	}
	return nil
}

// EvalAt prices the frozen plan at size m: from the fitted polynomials
// when FittedAt(m) — O(degree) arithmetic, no scheme derivation, no
// counting or redistribution calculator — otherwise numerically through
// priceAt, the sizes Fit samples. Both paths first check the program's
// ranges at m on the analysis's lowering, so a size past an extent is the
// *ir.RangeError whichever path would price it. Nothing re-runs
// alignment, the shape search, or the DP. The fitted path evaluates only
// the counts a price reads, and one of them past int64 is an error, not a
// wrapped price.
func (pe *PlanEvaluator) EvalAt(m int) (PlanCost, error) {
	if !pe.FittedAt(m) {
		sp := &pe.sizePrices(1)[0]
		if err := pe.priceAt(m, sp); err != nil {
			return PlanCost{}, err
		}
		return pe.sum(
			func(t int) (cost.Counts, error) { return sp.exec[t], nil },
			func(t int) (cost.Counts, error) { return sp.lc[t], nil },
			func(i int) (float64, error) { return sp.chg[i].maxLoad(), nil })
	}
	if err := pe.c.an.low.RangeAt(m); err != nil {
		return PlanCost{}, err
	}
	return pe.sum(
		func(t int) (cost.Counts, error) { return pe.execSym[t].PriceAt(m) },
		func(t int) (cost.Counts, error) { return pe.lcSym[t].PriceAt(m) },
		func(i int) (float64, error) { return pe.chgSym[i].MaxLoadAt(m) })
}

// sum totals a plan's price from nest t's segment-pass and loop-carried
// counts and the bottleneck words of the change into segment i, in the
// one order both branches of EvalAt share, so a fitted size and a
// numeric one round alike.
func (pe *PlanEvaluator) sum(exec, lc func(t int) (cost.Counts, error), maxLoad func(i int) (float64, error)) (PlanCost, error) {
	var pc PlanCost
	for t := range pe.c.Program.Nests {
		ct, err := exec(t)
		if err != nil {
			return PlanCost{}, err
		}
		pc.Exec += ct.Time(pe.c.Model).Total()
		if pe.c.Program.Iterative {
			if ct, err = lc(t); err != nil {
				return PlanCost{}, err
			}
			pc.LoopCarried += ct.Time(pe.c.Model).Comm
		}
	}
	for i := 1; i < len(pe.Base.DP.Segments); i++ {
		ml, err := maxLoad(i)
		if err != nil {
			return PlanCost{}, err
		}
		pc.Redist += ml * pe.c.Model.Tc
	}
	return pc, nil
}

// Fit replaces per-size pricing with piecewise polynomials in m: every
// nest's execution counts (and loop-carried words, for iterative
// programs) and every scheme change's scaled loads are sampled along
// each residue class of m modulo the grid period and fitted by forward
// differences, validated on held-out sizes. Each sampled size is priced
// once by priceAt, when a fit first asks for it, so fitted and numeric
// prices agree at every sample by construction. After a successful Fit,
// EvalAt no longer prices anything numerically from the floor up. Counts
// that are not piecewise polynomial (a plan that changes character with
// m), or a sampled size the program is out of range at, return an error
// and leave the evaluator unfitted.
func (pe *PlanEvaluator) Fit(minM, maxDeg, validate int) error {
	period := 1
	segs := pe.Base.DP.Segments
	for _, seg := range segs {
		g := seg.Schemes.Grid
		period = dist.LCM(period, dist.LCM(g.Extent(0), g.Extent(1)))
	}
	// FitSeries samples every size of [minM, minM+span) and no other;
	// each is priced into this arena when a fit first asks for it.
	span := period * (maxDeg + 1 + validate)
	prices, priced := pe.sizePrices(span), make([]bool, span)
	at := func(m int) (*sizePrice, error) {
		k := m - minM
		if !priced[k] {
			if err := pe.priceAt(m, &prices[k]); err != nil {
				return nil, err
			}
			priced[k] = true
		}
		return &prices[k], nil
	}
	fitCounts := func(what string, pick func(sp *sizePrice) []cost.Counts) ([]*cost.SymbolicCounts, error) {
		syms := make([]*cost.SymbolicCounts, len(pe.c.Program.Nests))
		for t := range syms {
			var err error
			syms[t], err = cost.FitCounts(func(m int) (cost.Counts, error) {
				sp, err := at(m)
				if err != nil {
					return cost.Counts{}, err
				}
				return pick(sp)[t], nil
			}, minM, period, maxDeg, validate)
			if err != nil {
				return nil, fmt.Errorf("core: fitting %s %d: %w", what, t+1, err)
			}
		}
		return syms, nil
	}
	execSym, err := fitCounts("nest", func(sp *sizePrice) []cost.Counts { return sp.exec })
	if err != nil {
		return err
	}
	var lcSym []*cost.SymbolicCounts
	if pe.c.Program.Iterative {
		if lcSym, err = fitCounts("loop-carried words of nest", func(sp *sizePrice) []cost.Counts { return sp.lc }); err != nil {
			return err
		}
	}
	chgSym := make([]*cost.SymbolicLoads, len(segs))
	for i := 1; i < len(segs); i++ {
		chgSym[i], err = cost.RedistLoadsPoly(func(m int) (maxNum, words, den int64, err error) {
			sp, err := at(m)
			if err != nil {
				return 0, 0, 0, err
			}
			b := sp.chg[i]
			return b.maxNum, b.words, b.den, nil
		}, minM, period, maxDeg, validate)
		if err != nil {
			return fmt.Errorf("core: fitting scheme change into segment %d: %w", i+1, err)
		}
	}
	pe.execSym, pe.lcSym, pe.chgSym = execSym, lcSym, chgSym
	pe.fitMinM = minM
	return nil
}

// Formulas renders the fitted per-nest counts, "label: counts"; empty
// before Fit. Every formula is written into one buffer, and the strings
// returned share its one copy.
func (pe *PlanEvaluator) Formulas() []string {
	if pe.execSym == nil {
		return nil
	}
	ends := make([]int, len(pe.execSym))
	buf := make([]byte, 0, 256*len(pe.execSym))
	for t, sym := range pe.execSym {
		if label := pe.c.Program.Nests[t].Label; label != "" {
			buf = append(buf, label...)
		} else {
			buf = strconv.AppendInt(append(buf, 'L'), int64(t+1), 10)
		}
		buf = sym.Append(append(buf, ": "...))
		ends[t] = len(buf)
	}
	text, start := string(buf), 0
	out := make([]string, len(ends))
	for t, end := range ends {
		out[t], start = text[start:end], end
	}
	return out
}
