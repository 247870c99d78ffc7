// Name resolution under a binding. Lower is the one place a program's
// names get their values: every array's shape, every loop bound and
// subscript as an integer form over the nest's loop slots with the bound
// size parameters folded in, and every right-hand side as a postfix form
// over the statement's Reads, its constants and scalar slots. RangeAt,
// core's scheme derivation, cost's counters, EvalProgram and both of exec's
// engines read what it builds, walk a nest's instances with LNest.Walk and
// name an element by LRef.Offset; none of them resolves a name itself. The tree
// walk over Expr that the lowering replaced survives only as the tests'
// oracle.
//
// Every lowered constant is affine in the size parameter, so each form
// and extent also carries that parameter's coefficient: RangeAt reads any
// size off one lowering, and Rebind moves it there in O(forms), reading no
// Affine map.

package ir

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Lin is an affine form under a binding: K + Σ C[k]·(index of loop k),
// loops outermost first. Every bound variable is folded into K, and
// trailing zero coefficients are dropped. M is the size parameter's
// coefficient, so at size m the constant is K + M·(m − Lowered.Size()).
type Lin struct {
	K, M int
	C    []int
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
	// each at least 1, and shapeM[a] their coefficients of the size
	// parameter. An LRef names its array by that index.
	Names  []string
	Shapes [][]int
	shapeM [][]int
	// Nests[t] is Program.Nests[t] lowered.
	Nests []LNest
	// scalars names the free scalars the right-hand sides read, in order of
	// first use; a scalar's slot is its index here (ScalarValues).
	scalars []string
	// size is the value Bind gives the program's size parameter
	// (Params[0]), 0 when it has none or Bind leaves it out.
	size int
	// checks are every subscript's bounds as functions of the size, and
	// [minM, maxM] the sizes at which every extent is at least 1: what
	// RangeAt reads (deriveRanges).
	checks     []rangeCheck
	minM, maxM int
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

// LStmt is a lowered statement: its written reference, its Reads, its
// right-hand side over them, and where the walk visits it.
type LStmt struct {
	LHS   LRef
	Reads []LRef
	// Depth is Stmt.Depth, and Post is Nest.IsPost: whether the statement
	// runs after the deeper inner loop rather than before it.
	Depth int
	Post  bool
	// Anchor is Stmt.Anchor for a reduction, -1 for any other statement.
	Anchor int
	// rhs is the right-hand side in postfix order, empty for a statement
	// without one (which assigns 0), and depth the most values it stacks.
	rhs   []lop
	depth int
}

// lop is one step of a lowered right-hand side, run in order on a stack
// of values: opNum pushes val, opRead operand arg (the value of Reads[arg]),
// opScalar scalar slot arg, opNeg negates the top, and opAdd, opSub, opMul
// and opDiv replace the top two, left below right, by their result. A
// binary operator whose right operand is a leaf takes it in the same step,
// with the leaf's val or arg: opAddNum + 3k + j is BinOp "+-*/"[k] on the
// top and what push j (opNum, opRead, opScalar) would have pushed, the
// top its left operand as before.
type lop struct {
	op  byte
	arg int32
	val float64
}

const (
	opNum byte = iota
	opRead
	opScalar
	opNeg
	opAdd // opAdd + k is BinOp "+-*/"[k]
	opSub
	opMul
	opDiv
	opAddNum
	opAddRead
	opAddScalar
	opSubNum
	opSubRead
	opSubScalar
	opMulNum
	opMulRead
	opMulScalar
	opDivNum
	opDivRead
	opDivScalar
)

// Eval is the statement's right-hand side over its operands, vals[k] the
// value of Reads[k], and the scalar values ScalarValues resolved.
func (ls *LStmt) Eval(vals, scalars []float64) float64 {
	var buf [8]float64
	stack, sp := buf[:], -1
	if ls.depth > len(buf) {
		stack = make([]float64, ls.depth)
	}
	for i := range ls.rhs {
		switch o := &ls.rhs[i]; o.op {
		case opNum:
			sp++
			stack[sp] = o.val
		case opRead:
			sp++
			stack[sp] = vals[o.arg]
		case opScalar:
			sp++
			stack[sp] = scalars[o.arg]
		case opNeg:
			stack[sp] = -stack[sp]
		case opAdd:
			sp--
			stack[sp] += stack[sp+1]
		case opSub:
			sp--
			stack[sp] -= stack[sp+1]
		case opMul:
			sp--
			stack[sp] *= stack[sp+1]
		case opDiv:
			sp--
			stack[sp] /= stack[sp+1]
		case opAddNum:
			stack[sp] += o.val
		case opAddRead:
			stack[sp] += vals[o.arg]
		case opAddScalar:
			stack[sp] += scalars[o.arg]
		case opSubNum:
			stack[sp] -= o.val
		case opSubRead:
			stack[sp] -= vals[o.arg]
		case opSubScalar:
			stack[sp] -= scalars[o.arg]
		case opMulNum:
			stack[sp] *= o.val
		case opMulRead:
			stack[sp] *= vals[o.arg]
		case opMulScalar:
			stack[sp] *= scalars[o.arg]
		case opDivNum:
			stack[sp] /= o.val
		case opDivRead:
			stack[sp] /= vals[o.arg]
		case opDivScalar:
			stack[sp] /= scalars[o.arg]
		}
	}
	return stack[0] // 0 for a statement without a right-hand side
}

// ScalarValues resolves the scalars the program's right-hand sides read
// under vals, in slot order; a scalar vals leaves unbound is an error
// naming it.
func (lw *Lowered) ScalarValues(vals map[string]float64) ([]float64, error) {
	out := make([]float64, len(lw.scalars))
	for i, name := range lw.scalars {
		v, ok := vals[name]
		if !ok {
			return nil, fmt.Errorf("ir: program %s: unbound scalar %q", lw.Program.Name, name)
		}
		out[i] = v
	}
	return out, nil
}

// Walk visits the nest's statement instances in program order, calling
// visit with each one's index in Stmts: at each loop level the statements
// before the inner loop, the loop, then the statements after it (Post).
// iv is the loop vector, at least as long as Loops; while visit runs, iv[k]
// is loop k's index for each loop enclosing the statement. An error from
// visit ends the walk and is returned.
func (ln *LNest) Walk(iv []int, visit func(si int) error) error {
	return ln.walk(0, iv, visit)
}

func (ln *LNest) walk(level int, iv []int, visit func(si int) error) error {
	for _, post := range [2]bool{false, true} {
		if post && level < len(ln.Loops) {
			l := &ln.Loops[level]
			for v, hi := l.Lo.At(iv), l.Hi.At(iv); (hi-v)*l.Step >= 0; v += l.Step {
				iv[level] = v
				if err := ln.walk(level+1, iv, visit); err != nil {
					return err
				}
			}
		}
		for si := range ln.Stmts {
			if st := &ln.Stmts[si]; st.Depth == level && st.Post == post {
				if err := visit(si); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Offset is the row-major offset, in its array, of the element r names at
// loop vector iv, and whether each subscript lies inside its extent; when
// one does not, Lowered.Outside is the error.
func (r *LRef) Offset(iv []int) (off int, ok bool) {
	for d := range r.Subs {
		v := r.Subs[d].At(iv) - 1
		if uint(v) >= uint(r.ext[d]) { // v < 0 or v ≥ extent
			return 0, false
		}
		off = off*r.ext[d] + v
	}
	return off, true
}

// Ref is read ri of the statement, or its LHS when ri is -1.
func (ls *LStmt) Ref(ri int) *LRef {
	if ri < 0 {
		return &ls.LHS
	}
	return &ls.Reads[ri]
}

// ref is read ri of the statement, or its LHS when ri is -1.
func (st *Stmt) ref(ri int) Ref {
	if ri < 0 {
		return st.LHS
	}
	return st.Reads[ri]
}

// Outside is the error of an element LRef.Offset refuses, named by read ri of
// nest t's statement si at loop vector iv, or by its LHS when ri is -1:
// the line, the reference and its subscripts.
func (lw *Lowered) Outside(t, si, ri int, iv []int) error {
	st := lw.Program.Nests[t].Stmts[si]
	ref, lr := st.ref(ri), lw.Nests[t].Stmts[si].Ref(ri)
	idx := make([]int, len(lr.Subs))
	for d := range lr.Subs {
		idx[d] = lr.Subs[d].At(iv)
	}
	return fmt.Errorf("ir: %s line %d: %s at subscripts %v, outside the extents %v", lw.Program.Nests[t].Label, st.Line, ref, idx, lw.Shapes[lr.Array])
}

// Elem is the row-major offset of the element of array a that key names,
// and whether key is canonical subscripts (ParseKey) of the array's rank,
// inside its extents.
func (lw *Lowered) Elem(a int, key string) (int, bool) {
	var buf [4]int
	idx, ok := ParseKey(buf[:0], key)
	ext := lw.Shapes[a]
	if !ok || len(idx) != len(ext) {
		return 0, false
	}
	off := 0
	for d, v := range idx {
		if v < 1 || v > ext[d] {
			return 0, false
		}
		off = off*ext[d] + v - 1
	}
	return off, true
}

// Index appends to idx the subscripts of the element at offset off of
// array a: Offset's and Elem's inverse.
func (lw *Lowered) Index(a, off int, idx []int) []int {
	ext := lw.Shapes[a]
	n := len(idx)
	idx = append(idx, ext...)
	for d := len(ext) - 1; d >= 0; d-- {
		idx[n+d] = off%ext[d] + 1
		off /= ext[d]
	}
	return idx
}

// CheckInput checks every element of input: its key must be canonical
// subscripts of a declared array, of its rank and inside its extents. An
// undeclared array may only be empty. A key no evaluator can place would
// alias another element or be lost.
func (lw *Lowered) CheckInput(input Storage) error {
	for name, elems := range input {
		a := lw.Array(name)
		if a < 0 {
			if len(elems) > 0 {
				return fmt.Errorf("ir: input for undeclared array %s", name)
			}
			continue
		}
		for key := range elems {
			if _, ok := lw.Elem(a, key); !ok {
				return fmt.Errorf("ir: input key %q of array %s is not %d canonical subscripts inside its extents %v",
					key, name, len(lw.Shapes[a]), lw.Shapes[a])
			}
		}
	}
	return nil
}

// LRef is a lowered reference: the array's index in Lowered.Names and one
// form per subscript, over the loops enclosing the statement.
type LRef struct {
	Array int
	Subs  []Lin
	// ext is the array's extents, Shapes[Array], which Rebind moves in
	// place.
	ext []int
}

// lowerings counts Lower calls, so tests pin how often an operation
// lowers a program.
var lowerings atomic.Int64

// LowerCalls returns the number of Lower calls so far.
func LowerCalls() int64 { return lowerings.Load() }

// LowerChecked is the checked lowering every consumer of a program under a
// binding starts from: p validated (Validate), lowered under bind (Lower),
// and its subscripts checked inside their extents at the bound size
// (RangeAt).
func (p *Program) LowerChecked(bind map[string]int) (*Lowered, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	lw, err := p.Lower(bind)
	if err == nil {
		err = lw.RangeAt(lw.Size())
	}
	if err != nil {
		return nil, err
	}
	return lw, nil
}

// Lower resolves every name of p under bind. A variable that is neither an
// enclosing loop's index nor bound, an extent below 1, a reference Validate
// would refuse and a right-hand side reading a reference missing from its
// statement's Reads are errors naming where they occur; subscripts are not
// checked against the extents here (RangeAt does that). Scalars are
// named, not bound: an evaluation binds them (ScalarValues).
func (p *Program) Lower(bind map[string]int) (*Lowered, error) {
	lowerings.Add(1)
	lw := &Lowered{Program: p, Bind: bind, Names: make([]string, 0, len(p.Arrays))}
	for name := range p.Arrays {
		lw.Names = append(lw.Names, name)
	}
	sort.Strings(lw.Names)
	sl := slabs{size: lw.sizeParam()}
	lw.size = bind[sl.size]
	lw.Shapes, lw.shapeM = make([][]int, len(lw.Names)), make([][]int, len(lw.Names))
	for a, name := range lw.Names {
		lw.Shapes[a], lw.shapeM[a] = carve(&sl.ints, p.Arrays[name].Rank()), carve(&sl.ints, p.Arrays[name].Rank())
		for d, e := range p.Arrays[name].Extents {
			l, v := sl.lin(e, nil, bind)
			if v != "" {
				return nil, fmt.Errorf("ir: array %s: unbound variable %q in extent %s", name, v, e)
			}
			lw.Shapes[a][d], lw.shapeM[a][d] = l.K, l.M
		}
	}
	if err := lw.extentsAt(0); err != nil {
		return nil, err
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
			ls.Depth, ls.Post, ls.Anchor = st.Depth, nest.IsPost(st), -1
			if st.Reduce {
				ls.Anchor = st.Anchor()
			}
			if st.RHS != nil {
				at := len(sl.ops)
				if sl.ops, err = lw.lowerExpr(sl.ops, st.RHS, nest, st); err != nil {
					return nil, err
				}
				ls.rhs = sl.ops[at:len(sl.ops):len(sl.ops)]
				n := 0
				for _, o := range ls.rhs {
					if o.op < opNeg {
						n++ // a push
					} else if o.op > opNeg && o.op <= opDiv {
						n-- // a binary operator on two stacked values
					}
					ls.depth = max(ls.depth, n)
				}
			}
		}
	}
	lw.deriveRanges()
	return lw, nil
}

// lowerExpr appends e's steps to out in postfix order. A reference must be
// one of the statement's Reads, to the same subscripts: only Reads are
// shipped to an executor, so an operand missing from them would be read
// from a store that does not hold it.
func (lw *Lowered) lowerExpr(out []lop, e Expr, nest *Nest, st *Stmt) ([]lop, error) {
	var err error
	switch v := e.(type) {
	case Num:
		return append(out, lop{op: opNum, val: float64(v)}), nil
	case Scalar:
		slot := slices.Index(lw.scalars, string(v))
		if slot < 0 {
			slot = len(lw.scalars)
			lw.scalars = append(lw.scalars, string(v))
		}
		return append(out, lop{op: opScalar, arg: int32(slot)}), nil
	case RefE:
		ri := slices.IndexFunc(st.Reads, v.Ref.Equal)
		if ri < 0 {
			return out, fmt.Errorf("ir: %s line %d reads %s, which is not in its Reads %v", nest.Label, st.Line, v.Ref, st.Reads)
		}
		return append(out, lop{op: opRead, arg: int32(ri)}), nil
	case NegE:
		out, err = lw.lowerExpr(out, v.E, nest, st)
		return append(out, lop{op: opNeg}), err
	case BinOp:
		k := strings.IndexByte("+-*/", v.Op)
		if k < 0 {
			return out, fmt.Errorf("ir: %s line %d: unknown operator %q", nest.Label, st.Line, v.Op)
		}
		if out, err = lw.lowerExpr(out, v.L, nest, st); err == nil {
			out, err = lw.lowerExpr(out, v.R, nest, st)
		}
		if last := &out[len(out)-1]; err == nil && last.op < opNeg { // a leaf: the operator takes it
			last.op = opAddNum + 3*byte(k) + last.op
			return out, nil
		}
		return append(out, lop{op: opAdd + byte(k)}), err
	}
	return out, fmt.Errorf("ir: %s line %d: unsupported right-hand side node %T", nest.Label, st.Line, e)
}

// sizeParam is the name Rebind moves, the program's first size
// parameter, or "" when it declares none.
func (lw *Lowered) sizeParam() string {
	if len(lw.Program.Params) == 0 {
		return ""
	}
	return lw.Program.Params[0]
}

// Size is the value the lowering's binding gives the size parameter.
func (lw *Lowered) Size() int { return lw.size }

// extentsAt is the error of the first extent, in name order, that is below
// 1 at delta sizes past the lowering's own, or nil.
func (lw *Lowered) extentsAt(delta int) error {
	for a, shape := range lw.Shapes {
		for d, k := range shape {
			if k += lw.shapeM[a][d] * delta; k < 1 {
				return fmt.Errorf("ir: array %s: extent %s is %d, below 1", lw.Names[a], lw.Program.Arrays[lw.Names[a]].Extents[d], k)
			}
		}
	}
	return nil
}

// Rebind re-binds lw in place to bind, which must give every variable
// lw.Bind gives the same value except the program's size parameter
// (Params[0]), and must not be changed while lw holds it. Every extent,
// loop bound and subscript moves by its own coefficient of the parameter:
// O(forms), no Affine map read, nothing allocated. The result is what
// Lower(bind) returns — an extent below 1 is the same error, naming the
// first such array in name order, and leaves lw unusable until a Rebind
// succeeds.
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
	move := func(l *Lin) { l.K += l.M * delta }
	for a, shape := range lw.Shapes {
		for d := range shape {
			shape[d] += lw.shapeM[a][d] * delta
		}
	}
	for t := range lw.Nests {
		ln := &lw.Nests[t]
		for d := range ln.Loops {
			move(&ln.Loops[d].Lo)
			move(&ln.Loops[d].Hi)
		}
		for si := range ln.Stmts {
			for ri := -1; ri < len(ln.Stmts[si].Reads); ri++ {
				subs := ln.Stmts[si].Ref(ri).Subs
				for d := range subs {
					move(&subs[d])
				}
			}
		}
	}
	return lw.extentsAt(0)
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
	// ops holds every right-hand side, appended in place: a statement's
	// steps are a capped slice of it, so a later append never writes them.
	ops []lop
	// size is the size parameter's name, whose coefficient lin records.
	size string
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
	out.ext = lw.Shapes[out.Array]
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
// admits no repeated index) and bind; unbound is the first (least)
// variable that is neither, if a has one.
func (sl *slabs) lin(a Affine, scope []Loop, bind map[string]int) (l Lin, unbound string) {
	l = Lin{K: a.Const, C: carve(&sl.ints, len(scope))}
terms:
	for _, t := range a.Terms {
		for k := len(scope) - 1; k >= 0; k-- {
			if scope[k].Index == t.Var {
				l.C[k] += t.Coeff
				continue terms
			}
		}
		if val, ok := bind[t.Var]; ok {
			l.K += t.Coeff * val
			if t.Var == sl.size {
				l.M = t.Coeff
			}
		} else if unbound == "" {
			unbound = t.Var
		}
	}
	for len(l.C) > 0 && l.C[len(l.C)-1] == 0 {
		l.C = l.C[:len(l.C)-1]
	}
	return l, unbound
}
