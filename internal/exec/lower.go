// The per-nest lowering of the batched engine: every affine form,
// reference and right-hand side of a nest is resolved once against the
// binding and the nest's loop slots, so neither the inspector nor the
// executor touches a name or an ir.Expr per dynamic statement instance.

package exec

import (
	"fmt"

	"dmcc/internal/ir"
)

// laff is an ir.Affine lowered against a binding: c carries the constant
// with every bound parameter folded in, coef[k] multiplies loop slot k.
type laff struct {
	c    int
	coef []int
}

// eval is the integer dot product with the loop vector iv.
func (a *laff) eval(iv []int) int {
	v := a.c
	for k, c := range a.coef {
		v += c * iv[k]
	}
	return v
}

// lref is a reference with its array id resolved and its subscripts
// lowered; ref and line are kept for diagnostics only.
type lref struct {
	arr  int
	subs []laff
	ref  ir.Ref
	line int
}

// lexpr is a lowered right-hand side, a tree over the five ir.Expr node
// types: op is lNum (a literal or a scalar folded to its bound value),
// lRef, lNeg, or a BinOp's '+', '-', '*', '/'.
type lexpr struct {
	op   byte
	val  float64
	ref  lref
	l, r *lexpr
}

const lNum, lRef, lNeg byte = 'n', 'r', '~'

// lstmt is one statement of a lowered nest.
type lstmt struct {
	*ir.Stmt
	post   bool // runs after the deeper inner loop (ir.Nest.IsPost)
	anchor int  // anchorOf, for reductions
	lhs    lref
	reads  []lref
	rhs    *lexpr
}

// lloop is one lowered Do loop; its bounds may reference outer slots.
type lloop struct {
	lo, hi laff
	down   bool
}

// lowerAffine resolves each variable of a to a loop in scope (innermost
// first: a loop index shadows a parameter of the same name) or folds its
// bound value into the constant.
func (s *progSchedule) lowerAffine(a ir.Affine, scope []ir.Loop) (laff, error) {
	out := laff{c: a.Const, coef: make([]int, len(scope))}
vars:
	for _, v := range a.Vars() {
		for k := len(scope) - 1; k >= 0; k-- {
			if scope[k].Index == v {
				out.coef[k] += a.Coeff[v]
				continue vars
			}
		}
		val, ok := s.bind[v]
		if !ok {
			return out, fmt.Errorf("unbound variable %q in %s", v, a)
		}
		out.c += a.Coeff[v] * val
	}
	return out, nil
}

func (s *progSchedule) lowerRef(r ir.Ref, scope []ir.Loop, line int) (lref, error) {
	a, ok := s.aid[r.Array]
	if !ok {
		return lref{}, fmt.Errorf("exec: line %d: reference %s to undeclared array", line, r)
	}
	out := lref{arr: a, subs: make([]laff, len(r.Subs)), ref: r, line: line}
	for d, sub := range r.Subs {
		var err error
		if out.subs[d], err = s.lowerAffine(sub, scope); err != nil {
			return out, fmt.Errorf("exec: line %d: %s: %w", line, r, err)
		}
	}
	return out, nil
}

func (s *progSchedule) lowerExpr(e ir.Expr, scope []ir.Loop, line int) (*lexpr, error) {
	out, err := &lexpr{}, error(nil)
	switch v := e.(type) {
	case ir.Num:
		out.op, out.val = lNum, float64(v)
	case ir.Scalar:
		val, ok := s.scalars[string(v)]
		if !ok {
			err = fmt.Errorf("exec: line %d: unbound scalar %q", line, string(v))
		}
		out.op, out.val = lNum, val
	case ir.RefE:
		out.op = lRef
		out.ref, err = s.lowerRef(v.Ref, scope, line)
	case ir.NegE:
		out.op = lNeg
		out.l, err = s.lowerExpr(v.E, scope, line)
	case ir.BinOp:
		if out.op = v.Op; v.Op != '+' && v.Op != '-' && v.Op != '*' && v.Op != '/' {
			return nil, fmt.Errorf("exec: line %d: unknown operator %q", line, v.Op)
		}
		if out.l, err = s.lowerExpr(v.L, scope, line); err == nil {
			out.r, err = s.lowerExpr(v.R, scope, line)
		}
	default:
		err = fmt.Errorf("exec: line %d: unsupported RHS node %T", line, e)
	}
	return out, err
}

// lowerNest lowers the nest's loop bounds and statements into ns.
func (s *progSchedule) lowerNest(nest *ir.Nest, ns *nestSchedule) error {
	ns.loops = make([]lloop, len(nest.Loops))
	for k, l := range nest.Loops {
		ll, outer := &ns.loops[k], nest.Loops[:k]
		var err error
		if ll.lo, err = s.lowerAffine(l.Lo, outer); err == nil {
			ll.hi, err = s.lowerAffine(l.Hi, outer)
		}
		if err != nil {
			return fmt.Errorf("exec: %s: bound of loop %s: %w", nest.Label, l.Index, err)
		}
		ll.down = l.Step < 0
	}
	ns.stmts = make([]lstmt, len(nest.Stmts))
	for si, st := range nest.Stmts {
		scope := nest.Loops[:st.Depth]
		ls := &ns.stmts[si]
		*ls = lstmt{Stmt: st, post: nest.IsPost(st), anchor: anchorOf(st), reads: make([]lref, len(st.Reads))}
		var err error
		if ls.lhs, err = s.lowerRef(st.LHS, scope, st.Line); err != nil {
			return err
		}
		for ri, rd := range st.Reads {
			if ls.reads[ri], err = s.lowerRef(rd, scope, st.Line); err != nil {
				return err
			}
		}
		if ls.rhs, err = s.lowerExpr(st.RHS, scope, st.Line); err != nil {
			return err
		}
	}
	return nil
}

// elemAt returns the element r names at loop vector iv. The subscripts
// live in a stack buffer; the error path copies them, because handing
// idx itself to fmt would move the buffer to the heap on every call.
func (s *progSchedule) elemAt(r *lref, iv []int) (elemID, error) {
	var buf [4]int
	idx := buf[:0]
	for d := range r.subs {
		idx = append(idx, r.subs[d].eval(iv))
	}
	e, ok := s.elemOf(r.arr, idx)
	if !ok {
		return 0, fmt.Errorf("exec: line %d: %s subscript %v outside extents %v",
			r.line, r.ref, append([]int(nil), idx...), s.arrays[r.arr].ext)
	}
	return e, nil
}
