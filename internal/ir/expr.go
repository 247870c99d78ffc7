// Expression trees: the executable right-hand sides of statements. The
// analyses (alignment, dependence, cost) only need the Reads list, but
// the interpreters — the sequential reference evaluator below and the
// parallel executor in package exec — need real semantics.
package ir

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Expr is an evaluable right-hand-side expression.
type Expr interface {
	// Eval computes the expression's value. env binds loop indices and
	// parameters; load resolves array references at the current indices;
	// scalars binds free scalar names (OMEGA and friends).
	Eval(env map[string]int, load func(Ref, []int) float64, scalars map[string]float64) float64
	String() string
}

// Num is a literal constant.
type Num float64

// Eval returns the literal.
func (n Num) Eval(map[string]int, func(Ref, []int) float64, map[string]float64) float64 {
	return float64(n)
}

func (n Num) String() string { return fmt.Sprintf("%g", float64(n)) }

// Scalar is a free scalar variable (replicated on all processors per
// Section 2).
type Scalar string

// Eval looks the scalar up, panicking on unbound names (an IR
// construction or parse bug).
func (s Scalar) Eval(env map[string]int, load func(Ref, []int) float64, scalars map[string]float64) float64 {
	v, ok := scalars[string(s)]
	if !ok {
		panic(fmt.Sprintf("ir: unbound scalar %q", string(s)))
	}
	return v
}

func (s Scalar) String() string { return string(s) }

// RefE is an array reference expression.
type RefE struct{ Ref Ref }

// Eval resolves the subscripts under env and loads the element.
func (r RefE) Eval(env map[string]int, load func(Ref, []int) float64, scalars map[string]float64) float64 {
	idx := make([]int, len(r.Ref.Subs))
	for k, s := range r.Ref.Subs {
		idx[k] = s.Eval(env)
	}
	return load(r.Ref, idx)
}

func (r RefE) String() string { return r.Ref.String() }

// BinOp is a binary arithmetic expression.
type BinOp struct {
	Op   byte // '+', '-', '*', '/'
	L, R Expr
}

// Eval applies the operator.
func (b BinOp) Eval(env map[string]int, load func(Ref, []int) float64, scalars map[string]float64) float64 {
	l := b.L.Eval(env, load, scalars)
	r := b.R.Eval(env, load, scalars)
	switch b.Op {
	case '+':
		return l + r
	case '-':
		return l - r
	case '*':
		return l * r
	case '/':
		return l / r
	}
	panic(fmt.Sprintf("ir: unknown operator %q", b.Op))
}

func (b BinOp) String() string {
	return fmt.Sprintf("(%s %c %s)", b.L, b.Op, b.R)
}

// NegE is unary negation.
type NegE struct{ E Expr }

// Eval negates.
func (n NegE) Eval(env map[string]int, load func(Ref, []int) float64, scalars map[string]float64) float64 {
	return -n.E.Eval(env, load, scalars)
}

func (n NegE) String() string { return fmt.Sprintf("(-%s)", n.E) }

// Convenience constructors for hand-built programs.

// Add returns l + r.
func Add(l, r Expr) Expr { return BinOp{Op: '+', L: l, R: r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return BinOp{Op: '-', L: l, R: r} }

// MulE returns l * r.
func MulE(l, r Expr) Expr { return BinOp{Op: '*', L: l, R: r} }

// DivE returns l / r.
func DivE(l, r Expr) Expr { return BinOp{Op: '/', L: l, R: r} }

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
func EvalProgram(p *Program, bind map[string]int, st Storage, scalars map[string]float64, iters int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if !p.Iterative {
		iters = 1
	}
	for it := 0; it < iters; it++ {
		for _, nest := range p.Nests {
			if err := evalNest(nest, bind, st, scalars); err != nil {
				return err
			}
		}
	}
	return nil
}

func evalNest(nest *Nest, bind map[string]int, st Storage, scalars map[string]float64) error {
	return nest.Walk(bind, func(stmt *Stmt, env map[string]int) error {
		idx := make([]int, len(stmt.LHS.Subs))
		for k, s := range stmt.LHS.Subs {
			idx[k] = s.Eval(env)
		}
		v := 0.0
		if stmt.RHS != nil {
			v = stmt.RHS.Eval(env, st.Load, scalars)
		}
		if math.IsNaN(v) {
			return fmt.Errorf("ir: NaN at %s line %d", stmt.LHS, stmt.Line)
		}
		st.Store(stmt.LHS.Array, idx, v)
		return nil
	})
}
