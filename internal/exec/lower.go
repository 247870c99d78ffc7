// The per-nest lowering of the batched engine: every affine form,
// reference and right-hand side of a nest is resolved once against the
// binding and the nest's loop slots, so neither the inspector nor the
// executor touches a name or an ir.Expr per dynamic statement instance.
// A reference lowers to a row-major offset form the inspector evaluates
// once per instance; a right-hand side names its operands by their index
// in Stmt.Reads, which the inspector resolves to local addresses.

package exec

import (
	"fmt"
	"slices"

	"dmcc/internal/ir"
)

// laff is an ir.Affine lowered against a binding: c carries the constant
// with every bound parameter folded in, coef[k] multiplies loop slot k
// (trailing zero coefficients are dropped).
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
// lowered beside the array's extents; ref and line are kept for
// diagnostics only.
type lref struct {
	arr  int
	subs []laff
	ext  []int
	ref  ir.Ref
	line int
}

// elemAt returns the element r names at loop vector iv: each subscript is
// evaluated, checked against its extent and folded row-major into the
// offset, with no intermediate slice.
func (r *lref) elemAt(iv []int) (elemID, error) {
	off := 0
	for d := range r.subs {
		v := r.subs[d].eval(iv)
		if v < 1 || v > r.ext[d] {
			return 0, r.outside(iv)
		}
		off = off*r.ext[d] + v - 1
	}
	return mkElem(r.arr, off), nil
}

// outside is elemAt's error: the subscripts at iv and the extents.
func (r *lref) outside(iv []int) error {
	idx := make([]int, len(r.subs))
	for d := range r.subs {
		idx[d] = r.subs[d].eval(iv)
	}
	return fmt.Errorf("exec: line %d: %s subscript %v outside extents %v", r.line, r.ref, idx, r.ext)
}

// lexpr is a lowered right-hand side, a tree over the five ir.Expr node
// types: op is lNum (a literal or a scalar folded to its bound value),
// lRef (operand read of the statement's Reads), lNeg, or a BinOp's '+',
// '-', '*', '/'.
type lexpr struct {
	op   byte
	val  float64
	read int
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
	for len(out.coef) > 0 && out.coef[len(out.coef)-1] == 0 {
		out.coef = out.coef[:len(out.coef)-1]
	}
	return out, nil
}

func (s *progSchedule) lowerRef(r ir.Ref, scope []ir.Loop, line int) (lref, error) {
	a, ok := s.aid[r.Array]
	if !ok {
		return lref{}, fmt.Errorf("exec: line %d: reference %s to undeclared array", line, r)
	}
	out := lref{arr: a, subs: make([]laff, len(r.Subs)), ext: s.arrays[a].ext, ref: r, line: line}
	for d, sub := range r.Subs {
		var err error
		if out.subs[d], err = s.lowerAffine(sub, scope); err != nil {
			return out, fmt.Errorf("exec: line %d: %s: %w", line, r, err)
		}
	}
	return out, nil
}

// lowerExpr lowers a right-hand side whose references are all among
// reads (validate checks that), each to its index there.
func (s *progSchedule) lowerExpr(e ir.Expr, reads []ir.Ref, line int) (*lexpr, error) {
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
		out.op, out.read = lRef, slices.IndexFunc(reads, func(r ir.Ref) bool { return r.String() == v.Ref.String() })
		if out.read < 0 {
			err = fmt.Errorf("exec: line %d: reads %s, which is not in its Reads %v", line, v.Ref, reads)
		}
	case ir.NegE:
		out.op = lNeg
		out.l, err = s.lowerExpr(v.E, reads, line)
	case ir.BinOp:
		if out.op = v.Op; v.Op != '+' && v.Op != '-' && v.Op != '*' && v.Op != '/' {
			return nil, fmt.Errorf("exec: line %d: unknown operator %q", line, v.Op)
		}
		if out.l, err = s.lowerExpr(v.L, reads, line); err == nil {
			out.r, err = s.lowerExpr(v.R, reads, line)
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
		if ls.rhs, err = s.lowerExpr(st.RHS, st.Reads, st.Line); err != nil {
			return err
		}
	}
	return nil
}
