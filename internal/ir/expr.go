// Expression trees: the executable right-hand sides of statements. The
// analyses (alignment, dependence, cost) only need the Reads list; the
// evaluators — EvalProgram below and both of exec's engines — read the
// postfix form Lower makes of each tree (LStmt.Eval).
package ir

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Expr is a right-hand-side expression: Num, Scalar, RefE, BinOp or NegE.
type Expr interface {
	String() string
}

// Num is a literal constant.
type Num float64

func (n Num) String() string { return fmt.Sprintf("%g", float64(n)) }

// Scalar is a free scalar variable (replicated on all processors per
// Section 2).
type Scalar string

func (s Scalar) String() string { return string(s) }

// RefE is an array reference expression.
type RefE struct{ Ref Ref }

func (r RefE) String() string { return r.Ref.String() }

// BinOp is a binary arithmetic expression.
type BinOp struct {
	Op   byte // '+', '-', '*', '/'
	L, R Expr
}

func (b BinOp) String() string {
	return fmt.Sprintf("(%s %c %s)", b.L, b.Op, b.R)
}

// NegE is unary negation.
type NegE struct{ E Expr }

func (n NegE) String() string { return fmt.Sprintf("(-%s)", n.E) }

// Convenience constructors for hand-built programs.

// Add returns l + r.
func Add(l, r Expr) Expr { return BinOp{Op: '+', L: l, R: r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return BinOp{Op: '-', L: l, R: r} }

// MulE returns l * r.
func MulE(l, r Expr) Expr { return BinOp{Op: '*', L: l, R: r} }

// Rd wraps a reference as an expression.
func Rd(r Ref) Expr { return RefE{Ref: r} }

// ExprReads collects the array references of an expression tree in
// left-to-right order (the canonical Reads list of a statement).
func ExprReads(e Expr) []Ref {
	var out []Ref
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case RefE:
			out = append(out, v.Ref)
		case BinOp:
			walk(v.L)
			walk(v.R)
		case NegE:
			walk(v.E)
		}
	}
	walk(e)
	return out
}

// ExprFlops counts the arithmetic operations of an expression tree.
func ExprFlops(e Expr) int {
	switch v := e.(type) {
	case BinOp:
		return 1 + ExprFlops(v.L) + ExprFlops(v.R)
	case NegE:
		return 1 + ExprFlops(v.E)
	default:
		return 0
	}
}

// Storage holds a program's array values during interpretation, indexed
// by 1-based subscripts.
type Storage map[string]map[string]float64

// Key renders a subscript tuple as Storage keys an element: "3,-1,12".
func Key(idx []int) string {
	var buf [32]byte
	return string(AppendKey(buf[:0], idx))
}

// AppendKey appends Key(idx) to b: a caller formatting many keys writes
// them into one buffer and slices the strings from one copy of it.
func AppendKey(b []byte, idx []int) []byte {
	for i, v := range idx {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// ParseKey appends the subscripts of key to idx (a caller's stack buffer,
// typically). ok is false unless every component is a canonical base-10
// integer — exactly what Key writes — so ParseKey(nil, Key(idx)) round-trips
// and a malformed key (stray bytes, empty components, non-canonical digits)
// is refused rather than folded into the subscripts.
func ParseKey(idx []int, key string) (_ []int, ok bool) {
	for key != "" {
		part, rest, more := strings.Cut(key, ",")
		digits := strings.TrimPrefix(part, "-")
		v, err := strconv.Atoi(part)
		if err != nil || part[0] == '+' || part == "-0" || (len(digits) > 1 && digits[0] == '0') || (more && rest == "") {
			return idx, false
		}
		idx, key = append(idx, v), rest
	}
	return idx, true
}

// NewStorage allocates zeroed storage for every array of the program.
func NewStorage(p *Program) Storage {
	st := Storage{}
	for name := range p.Arrays {
		st[name] = map[string]float64{}
	}
	return st
}

// Load reads an element (zero if never written).
func (st Storage) Load(r Ref, idx []int) float64 {
	return st[r.Array][Key(idx)]
}

// Store writes an element.
func (st Storage) Store(arr string, idx []int, v float64) {
	st[arr][Key(idx)] = v
}

// EvalProgram interprets the whole program sequentially: the reference
// semantics for any IR program with RHS expressions. iters is the trip
// count of the implicit outer iterative loop (1 for non-iterative
// programs). Statements without an RHS default to assigning 0 (the
// "V(i) = 0.0" initializers can also carry Num(0) explicitly).
//
// It runs the program on one dense slice per array, loaded from st and
// written back to it: st gains or changes exactly the elements a statement
// writes. Every key of st must name an element (Lowered.CheckInput), every
// scalar the program reads must be bound, and every element an instance
// touches must lie inside its array's extents; each is an error naming the
// culprit, and leaves st as it was.
func EvalProgram(p *Program, bind map[string]int, st Storage, scalars map[string]float64, iters int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	lw, err := p.Lower(bind)
	if err != nil {
		return err
	}
	return lw.Eval(st, scalars, iters)
}

// Eval is EvalProgram on the program lw lowers, under lw's binding.
func (lw *Lowered) Eval(st Storage, scalars map[string]float64, iters int) error {
	p := lw.Program
	if err := lw.CheckInput(st); err != nil {
		return err
	}
	sv, err := lw.ScalarValues(scalars)
	if err != nil {
		return err
	}
	vals, written := make([][]float64, len(lw.Names)), make([][]bool, len(lw.Names))
	for a, name := range lw.Names {
		n := 1
		for _, e := range lw.Shapes[a] {
			n *= e
		}
		vals[a], written[a] = make([]float64, n), make([]bool, n)
		for key, v := range st[name] {
			off, _ := lw.Elem(a, key)
			vals[a][off] = v
		}
	}
	var ops []float64
	if !p.Iterative {
		iters = 1
	}
	for it := 0; it < iters; it++ {
		for t := range lw.Nests {
			ln, iv := &lw.Nests[t], make([]int, len(lw.Nests[t].Loops))
			err := ln.Walk(iv, func(si int) error {
				ls := &ln.Stmts[si]
				off, ok := ls.LHS.Offset(iv)
				if !ok {
					return lw.Outside(t, si, -1, iv)
				}
				ops = ops[:0]
				for ri := range ls.Reads {
					at, ok := ls.Reads[ri].Offset(iv)
					if !ok {
						return lw.Outside(t, si, ri, iv)
					}
					ops = append(ops, vals[ls.Reads[ri].Array][at])
				}
				v := ls.Eval(ops, sv)
				if math.IsNaN(v) {
					stmt := p.Nests[t].Stmts[si]
					return fmt.Errorf("ir: NaN at %s line %d", stmt.LHS, stmt.Line)
				}
				vals[ls.LHS.Array][off], written[ls.LHS.Array][off] = v, true
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	var idx []int
	for a, name := range lw.Names {
		for off, w := range written[a] {
			if w {
				if st[name] == nil {
					st[name] = map[string]float64{}
				}
				idx = lw.Index(a, off, idx[:0])
				st[name][Key(idx)] = vals[a][off]
			}
		}
	}
	return nil
}
