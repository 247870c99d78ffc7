// Name resolution under a binding. Lower is the one place a program's
// names get their values: every array's shape, and every loop bound and
// subscript as an integer form over the nest's loop slots with the bound
// size parameters folded in. CheckRanges, core's scheme derivation, cost's
// closed forms and both of exec's engines read what it builds; none of them
// resolves a name itself. The reference walkers (Nest.Walk) still evaluate
// names from their environment, so they stay independent of this lowering.
//
// Every lowered constant is affine in the size parameter, so a lowering
// also records that parameter's coefficient in each form and extent:
// Rebind moves it to another size in O(forms), reading no Affine map.

package ir

import (
	"fmt"
	"sort"
)

// Lin is an affine form under a binding: K + Σ C[k]·(index of loop k),
// loops outermost first. Every bound variable is folded into K, and
// trailing zero coefficients are dropped.
type Lin struct {
	K int
	C []int
}

// At is the form's value at loop vector iv.
func (l *Lin) At(iv []int) int {
	v := l.K
	for k, c := range l.C {
		v += c * iv[k]
	}
	return v
}

// Lowered is a program under one binding.
type Lowered struct {
	Program *Program
	Bind    map[string]int
	// Names lists the arrays sorted; Shapes[a] is array Names[a]'s extents,
	// each at least 1. An LRef names its array by that index.
	Names  []string
	Shapes [][]int
	// Nests[t] is Program.Nests[t] lowered.
	Nests []LNest

	// size is the value Bind gives the program's size parameter
	// (Params[0]), 0 when it has none or Bind leaves it out; sizeC holds
	// its coefficient in every extent and form, in the order Rebind
	// visits them: Shapes, then per nest its loops' Lo and Hi and its
	// statements' subscripts, LHS before reads.
	size  int
	sizeC []int
}

// LNest is a lowered nest: its loops outermost first, its statements in
// source order.
type LNest struct {
	Loops []LLoop
	Stmts []LStmt
}

// LLoop is a lowered loop; its bounds are forms over the enclosing loops.
type LLoop struct {
	Lo, Hi Lin
	Step   int
}

// LStmt is a lowered statement: its written reference and its Reads.
type LStmt struct {
	LHS   LRef
	Reads []LRef
}

// LRef is a lowered reference: the array's index in Lowered.Names and one
// form per subscript, over the loops enclosing the statement.
type LRef struct {
	Array int
	Subs  []Lin
}

// Lower resolves every name of p under bind. A variable that is neither an
// enclosing loop's index nor bound, an extent below 1, and a reference
// Validate would refuse are errors naming where they occur; subscripts are
// not checked against the extents here (CheckRanges does that).
func (p *Program) Lower(bind map[string]int) (*Lowered, error) {
	lw := &Lowered{Program: p, Bind: bind, Names: make([]string, 0, len(p.Arrays))}
	for name := range p.Arrays {
		lw.Names = append(lw.Names, name)
	}
	sort.Strings(lw.Names)
	sl := slabs{size: lw.sizeParam()}
	lw.size = bind[sl.size]
	sl.sizeC = make([]int, 0, p.forms())
	lw.Shapes = make([][]int, len(lw.Names))
	for a, name := range lw.Names {
		lw.Shapes[a] = carve(&sl.ints, p.Arrays[name].Rank())
		for d, e := range p.Arrays[name].Extents {
			l, v := sl.lin(e, nil, bind)
			if v != "" {
				return nil, fmt.Errorf("ir: array %s: unbound variable %q in extent %s", name, v, e)
			}
			if l.K < 1 {
				return nil, fmt.Errorf("ir: array %s: extent %s is %d, below 1", name, e, l.K)
			}
			lw.Shapes[a][d] = l.K
		}
	}
	lw.Nests = make([]LNest, len(p.Nests))
	for t, nest := range p.Nests {
		ln := &lw.Nests[t]
		ln.Loops = make([]LLoop, len(nest.Loops))
		for d, l := range nest.Loops {
			lo, vLo := sl.lin(l.Lo, nest.Loops[:d], bind)
			hi, vHi := sl.lin(l.Hi, nest.Loops[:d], bind)
			switch {
			case vLo != "":
				return nil, fmt.Errorf("ir: %s loop %s: unbound variable %q in bound %s", nest.Label, l.Index, vLo, l.Lo)
			case vHi != "":
				return nil, fmt.Errorf("ir: %s loop %s: unbound variable %q in bound %s", nest.Label, l.Index, vHi, l.Hi)
			}
			ln.Loops[d] = LLoop{Lo: lo, Hi: hi, Step: l.Step}
		}
		ln.Stmts = make([]LStmt, len(nest.Stmts))
		for si, st := range nest.Stmts {
			if st.Depth < 1 || st.Depth > len(nest.Loops) {
				return nil, fmt.Errorf("ir: %s stmt line %d depth %d outside nest of %d loops", nest.Label, st.Line, st.Depth, len(nest.Loops))
			}
			ls := &ln.Stmts[si]
			ls.Reads = carve(&sl.refs, len(st.Reads))
			var err error
			if ls.LHS, err = sl.ref(lw, nest, st, st.LHS); err != nil {
				return nil, err
			}
			for ri, r := range st.Reads {
				if ls.Reads[ri], err = sl.ref(lw, nest, st, r); err != nil {
					return nil, err
				}
			}
		}
	}
	lw.sizeC = sl.sizeC
	return lw, nil
}

// sizeParam is the name Rebind moves, the program's first size
// parameter, or "" when it declares none.
func (lw *Lowered) sizeParam() string {
	if len(lw.Program.Params) == 0 {
		return ""
	}
	return lw.Program.Params[0]
}

// forms is the number of extents, loop bounds and subscripts a lowering
// of p holds.
func (p *Program) forms() int {
	n := 0
	for _, a := range p.Arrays {
		n += a.Rank()
	}
	for _, nest := range p.Nests {
		n += 2 * len(nest.Loops)
		for _, st := range nest.Stmts {
			n += len(st.LHS.Subs)
			for _, r := range st.Reads {
				n += len(r.Subs)
			}
		}
	}
	return n
}

// Rebind re-binds lw in place to bind, which must give every variable
// lw.Bind gives the same value except the program's size parameter
// (Params[0]), and must not be changed while lw holds it. Every extent,
// loop bound and subscript moves by its recorded coefficient of the
// parameter: O(forms), no Affine map read, nothing allocated. The result
// is what Lower(bind) returns — an extent below 1 is the same error,
// naming the first such array in name order, and leaves lw unusable until
// a Rebind succeeds.
func (lw *Lowered) Rebind(bind map[string]int) error {
	name := lw.sizeParam()
	if len(bind) != len(lw.Bind) {
		return fmt.Errorf("ir: Rebind binds %d variables, the lowering %d", len(bind), len(lw.Bind))
	}
	for v, x := range bind {
		if y, ok := lw.Bind[v]; !ok || x != y && v != name {
			return fmt.Errorf("ir: Rebind changes %s, not the size parameter %q", v, name)
		}
	}
	delta := bind[name] - lw.size
	lw.Bind, lw.size = bind, bind[name]
	c := lw.sizeC
	move := func(k *int) {
		*k += c[0] * delta
		c = c[1:]
	}
	for a := range lw.Shapes {
		for d := range lw.Shapes[a] {
			move(&lw.Shapes[a][d])
		}
	}
	for t := range lw.Nests {
		ln := &lw.Nests[t]
		for d := range ln.Loops {
			move(&ln.Loops[d].Lo.K)
			move(&ln.Loops[d].Hi.K)
		}
		for si := range ln.Stmts {
			ls := &ln.Stmts[si]
			for d := range ls.LHS.Subs {
				move(&ls.LHS.Subs[d].K)
			}
			for ri := range ls.Reads {
				for d := range ls.Reads[ri].Subs {
					move(&ls.Reads[ri].Subs[d].K)
				}
			}
		}
	}
	for a, shape := range lw.Shapes {
		for d, k := range shape {
			if k < 1 {
				return fmt.Errorf("ir: array %s: extent %s is %d, below 1", lw.Names[a], lw.Program.Arrays[lw.Names[a]].Extents[d], k)
			}
		}
	}
	return nil
}

// Array is the named array's index in Names, or -1.
func (lw *Lowered) Array(name string) int {
	if a := sort.SearchStrings(lw.Names, name); a < len(lw.Names) && lw.Names[a] == name {
		return a
	}
	return -1
}

// slabs hold the backing arrays a lowering carves its slices from, so it
// costs a few allocations rather than one per form.
type slabs struct {
	ints []int
	lins []Lin
	refs []LRef
	// size is the size parameter's name and sizeC its coefficient in
	// every form lowered so far, in lowering order.
	size  string
	sizeC []int
}

// carve cuts n elements off the front of *slab, starting a new backing
// array when too few are left.
func carve[T any](slab *[]T, n int) []T {
	if n > len(*slab) {
		*slab = make([]T, max(n, 64))
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

func (sl *slabs) ref(lw *Lowered, nest *Nest, st *Stmt, r Ref) (LRef, error) {
	out := LRef{Array: lw.Array(r.Array), Subs: carve(&sl.lins, len(r.Subs))}
	if out.Array < 0 {
		return out, fmt.Errorf("ir: %s line %d references undeclared array %q", nest.Label, st.Line, r.Array)
	}
	if len(r.Subs) != len(lw.Shapes[out.Array]) {
		return out, fmt.Errorf("ir: %s line %d: %s has %d subscripts, array is %d-D", nest.Label, st.Line, r, len(r.Subs), len(lw.Shapes[out.Array]))
	}
	for d, sub := range r.Subs {
		var v string
		if out.Subs[d], v = sl.lin(sub, nest.Loops[:st.Depth], lw.Bind); v != "" {
			return out, fmt.Errorf("ir: %s line %d: unbound variable %q in %s", nest.Label, st.Line, v, r)
		}
	}
	return out, nil
}

// lin lowers a over the loops in scope (innermost first, though Validate
// admits no repeated index) and bind; unbound is the least variable that is
// neither, if a has one.
func (sl *slabs) lin(a Affine, scope []Loop, bind map[string]int) (l Lin, unbound string) {
	l = Lin{K: a.Const, C: carve(&sl.ints, len(scope))}
	sizeC := 0
vars:
	for v, c := range a.Coeff {
		if c == 0 {
			continue
		}
		for k := len(scope) - 1; k >= 0; k-- {
			if scope[k].Index == v {
				l.C[k] += c
				continue vars
			}
		}
		if val, ok := bind[v]; ok {
			l.K += c * val
			if v == sl.size {
				sizeC = c
			}
		} else if unbound == "" || v < unbound {
			unbound = v
		}
	}
	sl.sizeC = append(sl.sizeC, sizeC)
	for len(l.C) > 0 && l.C[len(l.C)-1] == 0 {
		l.C = l.C[:len(l.C)-1]
	}
	return l, unbound
}
