// Exact communication counting under the owner-computes rule. The
// reference implementation (CountNestOptsExact) enumerates a nest's
// iteration space, executes every statement at the owners of its
// left-hand side (or, for reductions, at the owners of the anchoring
// operand, with a combining tree afterwards), and counts every word that
// must cross processors. The production entry point (CountNestOpts)
// computes the same Counts in closed form when the nest and schemes are
// eligible (see analytic.go), tested word-for-word against the reference,
// and otherwise runs the reference itself. The dynamic programming
// algorithm of Section 4 prices candidate distribution schemes with these
// counts; they are also cross-checked against the words actually sent by
// the executable kernels on the simulated machine.
package cost

import (
	"fmt"
	"slices"

	"dmcc/internal/dist"
	"dmcc/internal/grid"
	"dmcc/internal/ir"
)

// Counts aggregates the exact work and communication of one nest under
// one set of distribution schemes.
type Counts struct {
	// TotalFlops and MaxProcFlops measure computation and its balance.
	TotalFlops   int64
	MaxProcFlops int64
	// RemoteWords is the number of (element, destination) pairs where the
	// destination executes an iteration needing an element it does not
	// own — each is one word on the wire (after perfect message
	// aggregation and multicast dedup).
	RemoteWords int64
	// ReduceWords counts the partial-sum words of reduction combining
	// trees (one per non-root partial per reduced element).
	ReduceWords int64
	// MaxProcIn / MaxProcOut are the largest per-processor receive and
	// send volumes; the communication-time estimate uses their max.
	MaxProcIn  int64
	MaxProcOut int64
}

// Time converts counts to a Breakdown: computation is the most-loaded
// processor's flops, communication the most-loaded processor's traffic.
func (ct Counts) Time(c Model) Breakdown {
	comm := ct.MaxProcIn
	if ct.MaxProcOut > comm {
		comm = ct.MaxProcOut
	}
	return Breakdown{
		Comp: float64(ct.MaxProcFlops) * c.Tf,
		Comm: float64(comm) * c.Tc,
	}
}

// elemKey names an element by its array's index in the lowering and its
// subscripts, unchecked: the reference counter trusts its caller's range
// check. CountNestOpts and CountNestOptsExact make it (RangeAt); only a
// caller of CountValidatedNest that skips it can reach dist's assertion
// with an element outside its array.
type elemKey struct {
	arr int
	idx [2]int
}

// subs is e's subscripts.
func (c *ownerCache) subs(e *elemKey) []int { return e.idx[:len(c.lw.Shapes[e.arr])] }

type needKey struct {
	elem elemKey
	proc int
}

// CountOptions tailor a counting pass.
type CountOptions struct {
	// IncludeRead filters read references by array (nil = all).
	IncludeRead func(array string) bool
	// Carried marks the loop-carried pass of Algorithm 1: only the reads
	// IncludeRead admits count, with no flops and no reduction combining
	// (both were priced in the segment pass). The zero value is the full
	// count: flops, the admitted reads' words and the combining trees.
	Carried bool

	// tally, which only this package's tests set, receives the
	// per-processor vectors the Counts maxima are taken over: a word
	// billed to the wrong sender is invisible in Counts unless it moves
	// MaxProcOut.
	tally *rankTally
}

// rankTally is the per-processor flops, words received and words sent of
// one nest count, indexed by rank, and — from the closed forms only — the
// work the count did: the (rank, owner cell) bills of the footprints the
// needed-words pass counted (a rank whose footprint equals one counted
// before adds none), the footprints it counted that bill a word, one
// inclusion-exclusion each, and the residue steps and products of the
// windowed sums (winStats).
type rankTally struct {
	flops, in, out        []int64
	pairs, unions         int64
	residueSteps, prodAts int64
}

// denseRanks spreads the oracle's per-rank map over n ranks.
func denseRanks(byRank map[int]int64, n int) []int64 {
	v := make([]int64, n)
	for r, x := range byRank {
		v[r] = x
	}
	return v
}

// Engine identifies which counting engine priced a nest.
type Engine int

const (
	// EngineAnalytic is the closed-form engine (analytic.go).
	EngineAnalytic Engine = iota
	// EngineExact is the reference enumerator (CountNestOptsExact): what
	// a nest the closed forms decline falls back to.
	EngineExact
)

// CountNestOpts is the general counting entry point. It produces exactly
// the Counts of CountNestOptsExact: in closed form, independent of the
// loop extents, when the nest and schemes are analytic-eligible, and by
// running the reference enumeration otherwise.
func CountNestOpts(p *ir.Program, nest *ir.Nest, schemes map[string]dist.Scheme, g *grid.Grid, bind map[string]int, opts CountOptions) (Counts, error) {
	lw, t, err := validateNest(p, nest, schemes, g, bind)
	if err != nil {
		return Counts{}, err
	}
	ct, _, err := CountValidatedNest(lw, t, schemes, g, opts)
	return ct, err
}

// CountValidatedNest is CountNestOpts for nest t of a checked lowering
// (ir.Program.LowerChecked), handing every array the nest references a
// scheme that dist.Scheme.Validate accepts for the array's shape on g. It
// also reports which engine produced the counts: the compiler's
// analytic_hits / exact_fallbacks telemetry. Core checks once — the
// program in its analysis, each scheme when it derives the scheme set —
// not once per pricing.
func CountValidatedNest(lw *ir.Lowered, t int, schemes map[string]dist.Scheme, g *grid.Grid, opts CountOptions) (Counts, Engine, error) {
	if ct, ok, err := countNestAnalytic(lw, t, schemes, g, opts); err != nil {
		return Counts{}, EngineAnalytic, err
	} else if ok {
		return ct, EngineAnalytic, nil
	}
	ct, err := CountValidatedNestExact(lw, t, schemes, g, opts)
	return ct, EngineExact, err
}

// validateNest finds nest among p's nests, takes p's checked lowering
// under bind (ir.Program.LowerChecked), and checks that every array the
// nest references has a scheme valid for its shape on g.
func validateNest(p *ir.Program, nest *ir.Nest, schemes map[string]dist.Scheme, g *grid.Grid, bind map[string]int) (*ir.Lowered, int, error) {
	lw, err := p.LowerChecked(bind)
	if err != nil {
		return nil, 0, err
	}
	t := slices.Index(p.Nests, nest)
	if t < 0 {
		return nil, 0, fmt.Errorf("cost: nest %s is not one of program %s's", nest.Label, p.Name)
	}
	ln := &lw.Nests[t]
	for si := range ln.Stmts {
		for ri := -1; ri < len(ln.Stmts[si].Reads); ri++ {
			a := ln.Stmts[si].Ref(ri).Array
			s, ok := schemes[lw.Names[a]]
			if !ok {
				return nil, 0, fmt.Errorf("cost: no scheme for array %s", lw.Names[a])
			}
			if err := s.Validate(g, lw.Shapes[a]); err != nil {
				return nil, 0, fmt.Errorf("cost: scheme for %s: %v", lw.Names[a], err)
			}
		}
	}
	return lw, t, nil
}

// ownerCache memoizes Scheme.Owners per element so the billing loop and
// repeated statement instances do not recompute (and reallocate) the
// owner set for every word.
type ownerCache struct {
	lw      *ir.Lowered
	g       *grid.Grid
	schemes map[string]dist.Scheme
	m       map[elemKey][]int
}

func (c *ownerCache) owners(e elemKey) []int {
	if o, ok := c.m[e]; ok {
		return o
	}
	o := c.schemes[c.lw.Names[e.arr]].Owners(c.g, c.subs(&e)...)
	c.m[e] = o
	return o
}

func (c *ownerCache) isOwner(rank int, e elemKey) bool {
	return c.schemes[c.lw.Names[e.arr]].IsOwner(c.g, rank, c.subs(&e)...)
}

// CountNestOptsExact is the reference counting engine: a direct walk of
// the iteration space. It is the oracle the analytic engine is verified
// against, its fallback for the nests it declines, and the ablation
// engine behind core.Compiler.ExactNestCount.
func CountNestOptsExact(p *ir.Program, nest *ir.Nest, schemes map[string]dist.Scheme, g *grid.Grid, bind map[string]int, opts CountOptions) (Counts, error) {
	lw, t, err := validateNest(p, nest, schemes, g, bind)
	if err != nil {
		return Counts{}, err
	}
	return CountValidatedNestExact(lw, t, schemes, g, opts)
}

// CountValidatedNestExact is CountNestOptsExact for nest t of a lowering
// validated as CountValidatedNest's is: it walks the nest's instances
// (ir.LNest.Walk) and names every element by its lowered subscripts.
func CountValidatedNestExact(lw *ir.Lowered, t int, schemes map[string]dist.Scheme, g *grid.Grid, opts CountOptions) (Counts, error) {
	c := &exactCount{lw: lw, t: t, opts: opts, iv: make([]int, len(lw.Nests[t].Loops)),
		flops: map[int]int64{}, needed: map[needKey]bool{}, partials: map[elemKey]map[int]bool{}, partialRoot: map[elemKey]int{},
		owners: &ownerCache{lw: lw, g: g, schemes: schemes, m: map[elemKey][]int{}}}
	if err := lw.Nests[t].Walk(c.iv, c.instance); err != nil {
		return Counts{}, err
	}
	var ct Counts
	in := map[int]int64{}
	out := map[int]int64{}
	for _, f := range c.flops {
		ct.TotalFlops += f
		ct.MaxProcFlops = max(ct.MaxProcFlops, f)
	}
	for nk := range c.needed {
		ct.RemoteWords++
		in[nk.proc]++
		// Each word leaves one canonical source: the element's first owner.
		out[c.owners.owners(nk.elem)[0]]++
	}
	// Reduction combining trees.
	partials := c.partials
	if c.opts.Carried {
		partials = nil
	}
	for e, procs := range partials {
		root := c.partialRoot[e]
		n := len(procs)
		if n <= 1 {
			if n == 1 && !procs[root] {
				// Single partial on a non-owner: one transfer.
				ct.ReduceWords++
				for pr := range procs {
					out[pr]++
				}
				in[root]++
			}
			continue
		}
		for pr := range procs {
			if pr != root {
				ct.ReduceWords++
				out[pr]++
			}
		}
		in[root] += int64(Log2Ceil(n))
	}
	for _, w := range in {
		if w > ct.MaxProcIn {
			ct.MaxProcIn = w
		}
	}
	for _, w := range out {
		if w > ct.MaxProcOut {
			ct.MaxProcOut = w
		}
	}
	if n := g.Size(); c.opts.tally != nil {
		*c.opts.tally = rankTally{flops: denseRanks(c.flops, n), in: denseRanks(in, n), out: denseRanks(out, n)}
	}
	return ct, nil
}

// exactCount is the reference walk's state: each rank's flops, the
// (element, executor) pairs needing a word, and each reduced element's
// partial holders and root.
type exactCount struct {
	lw          *ir.Lowered
	t           int
	opts        CountOptions
	iv          []int
	owners      *ownerCache
	flops       map[int]int64
	needed      map[needKey]bool
	partials    map[elemKey]map[int]bool
	partialRoot map[elemKey]int
}

// at is the element read ri of statement si names at the current
// instance, its LHS when ri is -1.
func (c *exactCount) at(si, ri int) (elemKey, error) {
	r := c.lw.Nests[c.t].Stmts[si].Ref(ri)
	e := elemKey{arr: r.Array}
	if len(r.Subs) > len(e.idx) {
		st := c.lw.Program.Nests[c.t].Stmts[si]
		return e, fmt.Errorf("cost: line %d: a reference of %s has unsupported rank %d", st.Line, c.lw.Names[r.Array], len(r.Subs))
	}
	for d := range r.Subs {
		e.idx[d] = r.Subs[d].At(c.iv)
	}
	return e, nil
}

// instance records the computation and data needs of one dynamic
// statement instance.
func (c *exactCount) instance(si int) error {
	ls, st := &c.lw.Nests[c.t].Stmts[si], c.lw.Program.Nests[c.t].Stmts[si]
	lhsElem, err := c.at(si, -1)
	if err != nil {
		return err
	}
	executors := c.owners.owners(lhsElem)
	if st.Reduce && ls.Anchor >= 0 {
		// Partial sums are computed where the anchoring operand (the
		// read touching the most loop indices — A(i,j) in line 5) lives;
		// the partials are then combined at the LHS owner.
		ae, err := c.at(si, ls.Anchor)
		if err != nil {
			return err
		}
		if c.partials[lhsElem] == nil {
			c.partials[lhsElem] = map[int]bool{}
			c.partialRoot[lhsElem] = executors[0]
		}
		executors = c.owners.owners(ae)
		for _, ex := range executors {
			c.partials[lhsElem][ex] = true
		}
	}

	if !c.opts.Carried {
		for _, ex := range executors {
			c.flops[ex] += int64(st.Flops)
		}
	}

	for ri, rd := range ls.Reads {
		if st.Reduce && rd.Array == ls.LHS.Array {
			continue // the accumulator itself is handled by the combining tree
		}
		if c.opts.IncludeRead != nil && !c.opts.IncludeRead(c.lw.Names[rd.Array]) {
			continue
		}
		re, err := c.at(si, ri)
		if err != nil {
			return err
		}
		for _, ex := range executors {
			if !c.owners.isOwner(ex, re) {
				c.needed[needKey{elem: re, proc: ex}] = true
			}
		}
	}
	return nil
}
