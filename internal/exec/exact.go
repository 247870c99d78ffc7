// The per-element reference engine: the original naive backend kept as
// the oracle behind RunExact, mirroring the CountNestOptsExact
// discipline. Every remote operand crosses the network as its own
// one-word message, exactly as a 1993 naive compiler would emit it, so
// its Stats are the Section 6 naive figure. The batched engine in
// schedule.go/executor.go must reproduce its Values and flops bit for
// bit and never move more messages or words (TestBatchedMatchesExact).

package exec

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"dmcc/internal/core"
	"dmcc/internal/dist"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
)

// RunExact executes the program with the per-element reference engine:
// the one-segment plan, through the same engine a compiled plan runs
// (Case.RunExact).
//
// Unlike Run it performs no message batching: a processor may emit a
// full boundary row (m one-word messages, plus reduction traffic) before
// its peer drains any of it, and every one of them is a scheduler event.
// Use RunExact as the differential oracle and for the naive figure, not
// to execute programs.
func RunExact(p *ir.Program, ss *core.SchemeSet, bind map[string]int, scalars map[string]float64,
	iters int, cfg machine.Config, input ir.Storage) (Result, error) {
	return runExact(p, wholeProgram(p, ss), bind, scalars, iters, cfg, input)
}

// runExact executes a plan's segments in order, as run does, crossing
// each scheme change with one message per (element, owner that lacks it).
func runExact(p *ir.Program, segs []core.Segment, bind map[string]int, scalars map[string]float64,
	iters int, cfg machine.Config, input ir.Storage) (Result, error) {

	lw, err := validate(p, segs, bind, input)
	if err != nil {
		return Result{}, err
	}
	if !p.Iterative {
		iters = 1
	}

	nprocs := segs[0].Schemes.Grid.Size()
	locals := make([]ir.Storage, nprocs)
	mach, err := machine.New(segs[0].Schemes.Grid, cfg)
	if err != nil {
		return Result{}, err
	}

	st, err := mach.Run(func(proc *machine.Proc) {
		e := &engine{
			p: p, ss: segs[0].Schemes, bind: bind, scalars: scalars,
			proc:     proc,
			store:    ir.NewStorage(p),
			partials: map[string]float64{},
			pending:  map[string][]int{},
		}
		// Load owned (and replicated) elements from the input, free of
		// charge: input distribution cost is measured separately by
		// package data.
		for name, elems := range input {
			for key, v := range elems {
				idx, _ := ir.ParseKey(nil, key) // validate refused every malformed key
				if e.owns(name, idx) {
					e.store[name][key] = v
				}
			}
		}
		for it := 0; it < iters; it++ {
			for _, seg := range segs {
				if seg.Schemes != e.ss {
					e.change(lw, seg.Schemes)
				}
				for _, nest := range p.Nests[seg.Start-1 : seg.Start-1+seg.Len] {
					e.runNest(nest)
				}
			}
		}
		locals[proc.Rank()] = e.store
	})
	if err != nil {
		return Result{}, err
	}

	// Assemble the global state: each element from its first owner.
	out := ir.NewStorage(p)
	for r := 0; r < nprocs; r++ {
		for name, elems := range locals[r] {
			for key, v := range elems {
				if _, done := out[name][key]; !done {
					out[name][key] = v
				}
			}
		}
	}
	return Result{Values: out, Stats: st, Transport: st}, nil
}

// engine is the per-processor interpreter state.
type engine struct {
	p       *ir.Program
	ss      *core.SchemeSet
	bind    map[string]int
	scalars map[string]float64
	proc    *machine.Proc
	store   ir.Storage
	// partials holds this processor's running partial sums for reduce
	// statements, keyed by array!elem.
	partials map[string]float64
	// pending maps array!elem to the sorted contributor ranks whose
	// partials have not been combined yet. Maintained identically at
	// every processor (the walk is lockstep and deterministic).
	pending map[string][]int
}

func (e *engine) owns(arr string, idx []int) bool {
	return e.ss.Schemes[arr].IsOwner(e.ss.Grid, e.proc.Rank(), idx...)
}

func (e *engine) owners(arr string, idx []int) []int {
	return e.ss.Schemes[arr].Owners(e.ss.Grid, idx...)
}

// change crosses a scheme change to the set to, element by element —
// arrays in lw's order, each row-major — in lockstep with every other
// processor: the element's first owner under the current set sends it, as
// its own one-word message, to each owner under to that lacks it; an owner
// under both keeps its copy, and one under the current set alone drops it.
func (e *engine) change(lw *ir.Lowered, to *core.SchemeSet) {
	me := e.proc.Rank()
	for a, name := range lw.Names {
		sf, st, store := e.ss.Schemes[name], to.Schemes[name], e.store[name]
		dist.ForEachIndex(lw.Shapes[a], func(idx []int) {
			src, dst := sf.Owners(e.ss.Grid, idx...), st.Owners(to.Grid, idx...)
			key := ir.Key(idx)
			for _, d := range dst {
				if slices.Contains(src, d) {
					continue
				}
				switch me {
				case src[0]:
					e.proc.SendValue(d, store[key])
				case d:
					store[key] = e.proc.RecvValue(src[0])
				}
			}
			if !slices.Contains(dst, me) {
				delete(store, key)
			}
		})
	}
	e.ss = to
}

// runNest walks the nest's iteration space in lockstep with every other
// processor, executing owned statement instances.
func (e *engine) runNest(nest *ir.Nest) {
	nest.Walk(e.bind, func(stmt *ir.Stmt, env map[string]int) error {
		e.instance(stmt, env)
		return nil
	})
	// Combine any reductions still pending at nest end.
	var keys []string
	for k := range e.pending {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.finalize(k)
	}
}

// instance executes one dynamic statement instance.
func (e *engine) instance(stmt *ir.Stmt, env map[string]int) {
	lhsIdx := make([]int, len(stmt.LHS.Subs))
	for k, s := range stmt.LHS.Subs {
		lhsIdx[k] = s.Eval(env)
	}
	lhsKey := pkey(stmt.LHS.Array, lhsIdx)

	// Resolve read elements.
	type readElem struct {
		ref ir.Ref
		idx []int
		key string
	}
	var reads []readElem
	for _, rd := range stmt.Reads {
		idx := make([]int, len(rd.Subs))
		for k, s := range rd.Subs {
			idx[k] = s.Eval(env)
		}
		reads = append(reads, readElem{ref: rd, idx: idx, key: pkey(rd.Array, idx)})
	}

	// Any pending reduction read by this instance (other than the
	// statement's own accumulator) must be combined first; a write to a
	// pending element also forces combining.
	for _, rd := range reads {
		if stmt.Reduce && rd.key == lhsKey {
			continue
		}
		if _, pend := e.pending[rd.key]; pend {
			e.finalize(rd.key)
		}
	}
	if _, pend := e.pending[lhsKey]; pend && !stmt.Reduce {
		e.finalize(lhsKey)
	}

	// Executor set: anchor owners for reductions, LHS owners otherwise.
	var executors []int
	if stmt.Reduce {
		if anchor := stmt.Anchor(); anchor >= 0 {
			executors = e.owners(reads[anchor].ref.Array, reads[anchor].idx)
		} else {
			executors = e.owners(stmt.LHS.Array, lhsIdx)
		}
	} else {
		executors = e.owners(stmt.LHS.Array, lhsIdx)
	}

	// Ship remote operands: for each read element and each executor that
	// lacks it, the element's first owner sends one word. (The reduce
	// accumulator is never shipped; it lives in the partial store.)
	values := map[string]float64{}
	me := e.proc.Rank()
	amExec := slices.Contains(executors, me)
	for _, rd := range reads {
		if stmt.Reduce && rd.key == lhsKey {
			continue
		}
		owners := e.owners(rd.ref.Array, rd.idx)
		src := owners[0]
		for _, ex := range executors {
			if slices.Contains(owners, ex) {
				if ex == me {
					values[rd.key] = e.store[rd.ref.Array][rd.key[len(rd.ref.Array)+1:]]
				}
				continue
			}
			switch me {
			case src:
				e.proc.SendValue(ex, e.store[rd.ref.Array][rd.key[len(rd.ref.Array)+1:]])
			case ex:
				values[rd.key] = e.proc.RecvValue(src)
			}
		}
	}

	if stmt.Reduce {
		// Record the contributor (identically at every processor).
		contrib := executors[0]
		list := e.pending[lhsKey]
		if i, ok := slices.BinarySearch(list, contrib); !ok {
			e.pending[lhsKey] = slices.Insert(list, i, contrib)
		}
		if !amExec || me != contrib {
			return
		}
		// Evaluate with the accumulator redirected to the partial store.
		v := e.eval(stmt, env, values, lhsKey, true)
		e.partials[lhsKey] = v
		e.proc.Compute(stmt.Flops)
		return
	}

	if !amExec {
		return
	}
	v := e.eval(stmt, env, values, lhsKey, false)
	if math.IsNaN(v) {
		panic(fmt.Sprintf("exec: NaN at %s line %d", stmt.LHS, stmt.Line))
	}
	e.store[stmt.LHS.Array][lhsKey[len(stmt.LHS.Array)+1:]] = v
	e.proc.Compute(stmt.Flops)
}

// eval evaluates a statement's RHS with remote values spliced in and,
// for reductions, the accumulator read from the partial store.
func (e *engine) eval(stmt *ir.Stmt, env map[string]int, remote map[string]float64, accKey string, reduce bool) float64 {
	load := func(r ir.Ref, idx []int) float64 {
		key := pkey(r.Array, idx)
		if reduce && key == accKey {
			return e.partials[accKey]
		}
		if v, ok := remote[key]; ok {
			return v
		}
		return e.store[r.Array][key[len(r.Array)+1:]]
	}
	return stmt.RHS.Eval(env, load, e.scalars)
}

// finalize combines a pending reduction: contributors send their partials
// to the accumulator's first owner, which folds them into the stored
// value and redistributes the total to all owners.
func (e *engine) finalize(key string) {
	contribs := e.pending[key]
	delete(e.pending, key)
	arr, idx := splitKey(key)
	owners := e.owners(arr, idx)
	root := owners[0]
	me := e.proc.Rank()
	ekey := key[len(arr)+1:]

	if me == root {
		total := e.store[arr][ekey]
		for _, c := range contribs {
			var part float64
			if c == root {
				part = e.partials[key]
			} else {
				part = e.proc.RecvValue(c)
			}
			total += part
			e.proc.Compute(1)
		}
		e.store[arr][ekey] = total
		for _, o := range owners {
			if o != root {
				e.proc.SendValue(o, total)
			}
		}
	} else {
		if slices.Contains(contribs, me) {
			e.proc.SendValue(root, e.partials[key])
		}
		if slices.Contains(owners, me) {
			e.store[arr][ekey] = e.proc.RecvValue(root)
		}
	}
	delete(e.partials, key)
}
