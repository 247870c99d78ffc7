// The per-nest lowering of the batched engine: every reference and
// right-hand side of a nest is resolved once — its loop bounds and
// subscripts are ir.Program.Lower's forms over the nest's loop slots — so
// neither the inspector nor the executor touches a name or an ir.Expr per
// dynamic statement instance. A reference evaluates to a row-major offset
// once per instance; a right-hand side names its operands by their index
// in Stmt.Reads, which the inspector resolves to local addresses.

package exec

import (
	"fmt"
	"slices"

	"dmcc/internal/ir"
)

// lref is a lowered reference beside its array's extents; ref and line
// are kept for diagnostics only.
type lref struct {
	ir.LRef
	ext  []int
	ref  ir.Ref
	line int
}

// elemAt returns the element r names at loop vector iv: each subscript is
// evaluated, checked against its extent and folded row-major into the
// offset, with no intermediate slice.
func (r *lref) elemAt(iv []int) (elemID, error) {
	off := 0
	for d := range r.Subs {
		v := r.Subs[d].At(iv)
		if v < 1 || v > r.ext[d] {
			return 0, r.outside(iv)
		}
		off = off*r.ext[d] + v - 1
	}
	return mkElem(r.Array, off), nil
}

// outside is elemAt's error: the subscripts at iv and the extents.
func (r *lref) outside(iv []int) error {
	idx := make([]int, len(r.Subs))
	for d := range r.Subs {
		idx[d] = r.Subs[d].At(iv)
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
	anchor int  // ir.Stmt.Anchor, for reductions
	lhs    lref
	reads  []lref
	rhs    *lexpr
}

// lowerRef puts a lowered reference beside its array's extents.
func (s *progSchedule) lowerRef(r ir.LRef, ref ir.Ref, line int) lref {
	return lref{LRef: r, ext: s.arrays[r.Array].ext, ref: ref, line: line}
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

// lowerNest takes nest t's loops and references from the program's
// lowering and lowers its right-hand sides into ns.
func (s *progSchedule) lowerNest(t int, ns *nestSchedule) error {
	nest, ln := s.lw.Program.Nests[t], &s.lw.Nests[t]
	ns.loops = ln.Loops
	ns.stmts = make([]lstmt, len(nest.Stmts))
	for si, st := range nest.Stmts {
		ls := &ns.stmts[si]
		*ls = lstmt{Stmt: st, post: nest.IsPost(st), anchor: st.Anchor(), reads: make([]lref, len(st.Reads)),
			lhs: s.lowerRef(ln.Stmts[si].LHS, st.LHS, st.Line)}
		for ri, rd := range st.Reads {
			ls.reads[ri] = s.lowerRef(ln.Stmts[si].Reads[ri], rd, st.Line)
		}
		var err error
		if ls.rhs, err = s.lowerExpr(st.RHS, st.Reads, st.Line); err != nil {
			return err
		}
	}
	return nil
}
