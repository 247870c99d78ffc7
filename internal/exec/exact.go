// The per-element reference engine, the oracle behind RunExact: every
// remote operand crosses the network as its own one-word message, as a
// 1993 naive compiler would emit it, so its Stats are the Section 6 naive
// figure. The batched engine must reproduce its Values and flops bit for
// bit and never move more messages or words (TestBatchedMatchesExact).
// It walks ir.Lower's nests with ir.LNest.Walk, names elements by elemID
// and evaluates the lowered right-hand sides, as Run does, but takes
// owners from dist.Scheme.Owners and moves every value itself;
// Case.Check holds its values to ir.EvalProgram.

package exec

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dmcc/internal/core"
	"dmcc/internal/dist"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
)

// shared is what every processor's engine reads and none writes.
type shared struct {
	lw      *ir.Lowered
	scalars []float64
	// tables[ss][a][off] is the ascending ranks owning element off of
	// array a under ss.
	tables map[*core.SchemeSet][][][]int
	// keys[a][off] is element off of array a's ir.Key; nest-end finalizes
	// run in the order of the elements' "array!i,j" names.
	keys [][]string
}

// runExact executes a plan's segments in order on a checked lowering, as
// run does, crossing each scheme change with one message per (element,
// owner that lacks it).
//
// Unlike run it performs no message batching: a processor may emit a
// full boundary row (m one-word messages, plus reduction traffic) before
// its peer drains any of it, and every one of them is a scheduler event.
// Use it as the differential oracle and for the naive figure, not to
// execute programs.
func runExact(lw *ir.Lowered, segs []core.Segment, scalars map[string]float64,
	iters int, cfg machine.Config, input ir.Storage) (Result, error) {

	if err := validate(lw, segs, input); err != nil {
		return Result{}, err
	}
	p := lw.Program
	sv, err := lw.ScalarValues(scalars)
	if err != nil {
		return Result{}, err
	}
	if !p.Iterative {
		iters = 1
	}
	sh := &shared{lw: lw, scalars: sv, tables: map[*core.SchemeSet][][][]int{}, keys: make([][]string, len(lw.Names))}
	for _, seg := range segs {
		sh.tables[seg.Schemes] = make([][][]int, len(lw.Names))
	}
	for a, name := range lw.Names {
		dist.ForEachIndex(lw.Shapes[a], func(idx []int) { // row-major
			sh.keys[a] = append(sh.keys[a], ir.Key(idx))
			for ss, own := range sh.tables {
				own[a] = append(own[a], ss.Schemes[name].Owners(ss.Grid, idx...))
			}
		})
	}

	stores, fin := make([]map[elemID]float64, segs[0].Schemes.Grid.Size()), [][][]int(nil)
	mach, err := machine.New(segs[0].Schemes.Grid, cfg)
	if err != nil {
		return Result{}, err
	}
	st, err := mach.Run(func(proc *machine.Proc) {
		e := &engine{shared: sh, ss: segs[0].Schemes, own: sh.tables[segs[0].Schemes], proc: proc, me: proc.Rank(),
			store: map[elemID]float64{}, partials: map[elemID]float64{}, pending: map[elemID][]int{}}
		// Load owned (and replicated) elements from the input, free of
		// charge: the run does not price the initial distribution.
		for a, name := range lw.Names {
			for off, owners := range e.own[a] {
				if v, ok := input[name][sh.keys[a][off]]; ok && slices.Contains(owners, e.me) {
					e.store[mkElem(a, off)] = v
				}
			}
		}
		for it := 0; it < iters; it++ {
			for _, seg := range segs {
				if seg.Schemes != e.ss {
					e.change(seg.Schemes)
				}
				for t := seg.Start - 1; t < seg.Start-1+seg.Len; t++ {
					e.runNest(t)
				}
			}
		}
		if stores[e.me] = e.store; e.me == 0 {
			fin = e.own // every rank ends under the same set
		}
	})
	if err != nil {
		return Result{}, err
	}

	// Assemble the global state: each element from its first owner under
	// the last set run, the only ranks that hold it.
	out := ir.NewStorage(p)
	for a, name := range lw.Names {
		for off, owners := range fin[a] {
			el := mkElem(a, off)
			if i := slices.IndexFunc(owners, func(r int) bool { _, ok := stores[r][el]; return ok }); i >= 0 {
				out[name][sh.keys[a][off]] = stores[owners[i]][el]
			}
		}
	}
	return Result{Values: out, Stats: st, Transport: st}, nil
}

// engine is the per-processor interpreter state.
type engine struct {
	*shared
	ss   *core.SchemeSet
	own  [][][]int // tables[ss]
	proc *machine.Proc
	me   int
	// store holds the owned elements this processor has a value for, and
	// partials its running partial sums of reductions, by accumulator.
	store, partials map[elemID]float64
	// pending maps an accumulator to the sorted ranks whose partials are
	// not combined yet, the same at every processor (the walk is lockstep).
	pending map[elemID][]int
	// t is the nest walking and iv its loop vector, slot k loop k's index.
	t  int
	iv []int
	// The instance executing: its read elements, the operands it received,
	// and its operand values in Reads order.
	reads []elemID
	vals  []elemVal
	ops   []float64
}

type elemVal struct {
	elem elemID
	val  float64
}

func (e *engine) owners(el elemID) []int { return e.own[el.arr()][el.off()] }

// elemAt is the element r names at loop vector iv, and whether it lies
// inside its array's extents (ir.LRef.Offset).
func elemAt(r *ir.LRef, iv []int) (elemID, bool) {
	off, ok := r.Offset(iv)
	return mkElem(r.Array, off), ok
}

// at is the element r names at the current loop vector. validate checked
// every subscript against its extent, so it lies inside them.
func (e *engine) at(r *ir.LRef) elemID {
	el, _ := elemAt(r, e.iv)
	return el
}

// change crosses a scheme change to the set to, element by element —
// arrays in Lowered order, each row-major — in lockstep with every other
// processor: the element's first owner under the current set sends it, as
// its own one-word message, to each owner under to that lacks it; an owner
// under both keeps its copy, and one under the current set alone drops it.
func (e *engine) change(to *core.SchemeSet) {
	dsts := e.tables[to]
	for a := range e.own {
		for off, src := range e.own[a] {
			el, dst := mkElem(a, off), dsts[a][off]
			for _, d := range dst {
				if slices.Contains(src, d) {
					continue
				}
				switch e.me {
				case src[0]:
					e.proc.SendValue(d, e.store[el])
				case d:
					e.store[el] = e.proc.RecvValue(src[0])
				}
			}
			if !slices.Contains(dst, e.me) {
				delete(e.store, el)
			}
		}
	}
	e.ss, e.own = to, dsts
}

// runNest walks nest t in lockstep with every other processor, executing
// owned statement instances, then combines the reductions still pending.
func (e *engine) runNest(t int) {
	e.t, e.iv = t, make([]int, len(e.lw.Nests[t].Loops))
	e.lw.Nests[t].Walk(e.iv, e.instance)
	pend := make([]elemID, 0, len(e.pending))
	for el := range e.pending {
		pend = append(pend, el)
	}
	slices.SortFunc(pend, func(x, y elemID) int {
		return cmp.Or(x.arr()-y.arr(), cmp.Compare(e.keys[x.arr()][x.off()], e.keys[y.arr()][y.off()]))
	})
	for _, el := range pend {
		e.finalize(el)
	}
}

// instance executes one dynamic statement instance, of statement si of
// the current nest.
func (e *engine) instance(si int) error {
	st, ls := e.lw.Program.Nests[e.t].Stmts[si], &e.lw.Nests[e.t].Stmts[si]
	// Executor set: anchor owners for reductions, LHS owners otherwise. A
	// reduction's accumulator is no operand to ship or finalize.
	lhs := e.at(&ls.LHS)
	executors := e.owners(lhs)
	e.reads = e.reads[:0]
	for k := range ls.Reads {
		rd := e.at(&ls.Reads[k])
		if k == ls.Anchor {
			executors = e.owners(rd)
		}
		e.reads = append(e.reads, rd)
	}
	acc := func(rd elemID) bool { return st.Reduce && rd == lhs }

	// Any pending reduction read by this instance (other than the
	// statement's own accumulator) must be combined first; a write to a
	// pending element also forces combining.
	for _, rd := range e.reads {
		if _, pend := e.pending[rd]; pend && !acc(rd) {
			e.finalize(rd)
		}
	}
	if _, pend := e.pending[lhs]; pend && !st.Reduce {
		e.finalize(lhs)
	}

	// Ship remote operands: for each read element and each executor that
	// lacks it, the element's first owner sends one word. (The reduce
	// accumulator is never shipped; it lives in the partial store.) An
	// executor holding an operand reads it from its store.
	e.vals = e.vals[:0]
	for _, rd := range e.reads {
		if acc(rd) {
			continue
		}
		owners := e.owners(rd)
		for _, ex := range executors {
			if slices.Contains(owners, ex) {
				continue
			}
			switch e.me {
			case owners[0]:
				e.proc.SendValue(ex, e.store[rd])
			case ex:
				e.vals = append(e.vals, elemVal{rd, e.proc.RecvValue(owners[0])})
			}
		}
	}

	if st.Reduce {
		// Record the contributor (identically at every processor), the one
		// executor, which sums into the accumulator's partial.
		contrib := executors[0]
		if i, ok := slices.BinarySearch(e.pending[lhs], contrib); !ok {
			e.pending[lhs] = slices.Insert(e.pending[lhs], i, contrib)
		}
		executors = executors[:1]
	}
	if !slices.Contains(executors, e.me) {
		return nil
	}
	// Evaluate the RHS over each operand from vals, or else the local
	// store, and the accumulator's partial.
	e.ops = e.ops[:0]
	for _, rd := range e.reads {
		e.ops = append(e.ops, e.load(rd, acc(rd)))
	}
	switch v := ls.Eval(e.ops, e.scalars); {
	case st.Reduce:
		e.partials[lhs] = v
	case math.IsNaN(v):
		panic(fmt.Sprintf("exec: NaN at %s line %d", st.LHS, st.Line))
	default:
		e.store[lhs] = v
	}
	e.proc.Compute(st.Flops)
	return nil
}

// load is an operand's value at this processor: a reduction's partial for
// its accumulator, else the value received, else the local store's.
func (e *engine) load(el elemID, acc bool) float64 {
	if acc {
		return e.partials[el]
	}
	for _, ev := range e.vals {
		if ev.elem == el {
			return ev.val
		}
	}
	return e.store[el]
}

// finalize combines a pending reduction: contributors send their partials
// to the accumulator's first owner, which folds them into the stored
// value and redistributes the total to all owners.
func (e *engine) finalize(el elemID) {
	contribs, owners := e.pending[el], e.owners(el)
	root := owners[0]
	delete(e.pending, el)
	if e.me == root {
		total := e.store[el]
		for _, c := range contribs {
			part := e.partials[el]
			if c != root {
				part = e.proc.RecvValue(c)
			}
			total += part
			e.proc.Compute(1)
		}
		e.store[el] = total
		for _, o := range owners[1:] {
			e.proc.SendValue(o, total)
		}
	} else {
		if slices.Contains(contribs, e.me) {
			e.proc.SendValue(root, e.partials[el])
		}
		if slices.Contains(owners, e.me) {
			e.store[el] = e.proc.RecvValue(root)
		}
	}
	delete(e.partials, el)
}
