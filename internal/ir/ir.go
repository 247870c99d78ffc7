// Package ir is the compiler's intermediate representation: sequential
// Fortran-style Do-loop programs with affine loop bounds and affine array
// subscripts — the program class the paper's method applies to.
//
// A Program is an optional outer iterative loop (DO k = 1, MAX_ITERATION)
// whose body is a sequence of loop nests; each nest is a list of loops
// (outermost first) and statements at given nesting depths. Loop bounds
// and subscripts are affine expressions over loop indices and symbolic
// size parameters (typically "m"), so both alignment analysis (Section 3)
// and dependence analysis (Section 6) are exact.
//
// The package owns both halves of the text form, the notation of the
// paper's listings: Parse reads it (parse.go) and Print writes it
// (print.go). The paper's programs are their listings, parsed
// (Builtin).
package ir

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Affine is an affine expression, Const + Σ t.Coeff·t.Var, where the
// variables are loop indices or size parameters. It has one form: Terms
// sorted by Var, no Var twice and no zero Coeff, so equal expressions
// are equal values and the zero value is the constant 0. Only NewAffine,
// V, Const, Plus and PlusConst write Terms; each clips its result, so no
// two Affines share spare capacity and none is written after it is built.
type Affine struct {
	Terms []Term
	Const int
}

// Term is one linear term of an affine expression.
type Term struct {
	Var   string
	Coeff int
}

// NewAffine builds an affine expression from variable/coefficient pairs,
// in any order, with repeats and zeros.
func NewAffine(c int, terms ...Term) Affine { return canon(c, slices.Clone(terms)) }

// canon sorts ts by variable in place, sums each variable's
// coefficients and drops the zero sums: the canonical form of c + ts.
func canon(c int, ts []Term) Affine {
	slices.SortFunc(ts, func(x, y Term) int { return strings.Compare(x.Var, y.Var) })
	out := ts[:0]
	for _, t := range ts {
		if n := len(out); n > 0 && out[n-1].Var == t.Var {
			out[n-1].Coeff += t.Coeff
		} else {
			out = append(out, t)
		}
	}
	out = slices.DeleteFunc(out, func(t Term) bool { return t.Coeff == 0 })
	if len(out) == 0 {
		return Affine{Const: c}
	}
	return Affine{Terms: slices.Clip(out), Const: c}
}

// V is shorthand for a unit term: the bare variable v.
func V(v string) Affine { return Affine{Terms: []Term{{Var: v, Coeff: 1}}} }

// Const is shorthand for a constant affine expression.
func Const(c int) Affine { return Affine{Const: c} }

// Plus returns a + b.
func (a Affine) Plus(b Affine) Affine {
	if len(b.Terms) == 0 {
		return a.PlusConst(b.Const)
	}
	if len(a.Terms) == 0 {
		return b.PlusConst(a.Const)
	}
	return canon(a.Const+b.Const, slices.Concat(a.Terms, b.Terms))
}

// PlusConst returns a + c.
func (a Affine) PlusConst(c int) Affine { return Affine{Terms: a.Terms, Const: a.Const + c} }

// Eval evaluates the expression under a variable binding; it panics on
// unbound variables (an analysis bug).
func (a Affine) Eval(bind map[string]int) int {
	v := a.Const
	for _, t := range a.Terms {
		val, ok := bind[t.Var]
		if !ok {
			panic(fmt.Sprintf("ir: unbound variable %q in %s", t.Var, a))
		}
		v += t.Coeff * val
	}
	return v
}

// IsConst reports whether the expression has no variable terms.
func (a Affine) IsConst() bool { return len(a.Terms) == 0 }

// ConstDiff returns a-b and true when a-b is a constant, i.e. the two
// expressions have identical variable parts — the paper's
// affinity-relation condition ("the difference of the two subscripts ...
// is a constant value", Section 3).
func (a Affine) ConstDiff(b Affine) (int, bool) {
	if !slices.Equal(a.Terms, b.Terms) {
		return 0, false
	}
	return a.Const - b.Const, true
}

// equal reports whether a and b are the same expression.
func (a Affine) equal(b Affine) bool { return a.Const == b.Const && slices.Equal(a.Terms, b.Terms) }

// String renders the expression, e.g. "i-1" or "m-j+2".
func (a Affine) String() string {
	var b strings.Builder
	a.writeTo(&b)
	return b.String()
}

func (a Affine) writeTo(b *strings.Builder) {
	for i, t := range a.Terms {
		switch {
		case t.Coeff == 1:
			if i > 0 {
				b.WriteByte('+')
			}
		case t.Coeff == -1:
			b.WriteByte('-')
		default:
			if t.Coeff > 0 && i > 0 {
				b.WriteByte('+')
			}
			writeInt(b, t.Coeff)
		}
		b.WriteString(t.Var)
	}
	if a.Const != 0 || len(a.Terms) == 0 {
		if a.Const >= 0 && len(a.Terms) > 0 {
			b.WriteByte('+')
		}
		writeInt(b, a.Const)
	}
}

// Array declares a data array with symbolic per-dimension extents.
type Array struct {
	Name string
	// Extents holds one affine expression per dimension, typically V("m").
	Extents []Affine
}

// Rank returns the array's dimensionality.
func (a *Array) Rank() int { return len(a.Extents) }

// Ref is an array reference with one affine subscript per dimension.
type Ref struct {
	Array string
	Subs  []Affine
}

// R builds a reference.
func R(array string, subs ...Affine) Ref { return Ref{Array: array, Subs: subs} }

// Equal reports whether r and o are the same reference: one array, and
// equal subscripts.
func (r Ref) Equal(o Ref) bool {
	return r.Array == o.Array && slices.EqualFunc(r.Subs, o.Subs, Affine.equal)
}

func (r Ref) String() string {
	var b strings.Builder
	r.writeTo(&b)
	return b.String()
}

func (r Ref) writeTo(b *strings.Builder) {
	b.WriteString(r.Array)
	b.WriteByte('(')
	for i, s := range r.Subs {
		if i > 0 {
			b.WriteByte(',')
		}
		s.writeTo(b)
	}
	b.WriteByte(')')
}

// Stmt is an assignment statement inside a loop nest.
type Stmt struct {
	// Line is the source line number in the paper's listing, used in
	// reports (the affinity-graph edge annotations cite lines).
	Line int
	// Depth is the number of enclosing loops of the nest the statement
	// sits under (1 = directly under the outermost loop).
	Depth int
	// LHS is the written reference; Reads are the array references read.
	// Scalar reads/writes are omitted — scalars are replicated (Section 2).
	LHS   Ref
	Reads []Ref
	// RHS is the executable right-hand side (nil means "assign 0"). The
	// analyses use Reads/Flops; the interpreters use RHS.
	RHS Expr
	// Flops is the floating point operation count per execution.
	Flops int
	// Reduce marks a reduction statement (LHS appears among Reads with
	// identical subscripts, combined with an associative operator).
	Reduce bool
	// Text is the statement's source text for listings.
	Text string
}

// Anchor is the index in Reads of a reduction's anchoring operand, where
// its partial sums accumulate: the read of another array than the
// accumulator's with the most distinct subscript variables (A(i,j) in
// Jacobi's line 5), the first on a tie; -1 when every read is of the
// accumulator's array.
func (s *Stmt) Anchor() int {
	best, bestVars := -1, -1
	var buf [8]string
	for i, rd := range s.Reads {
		if rd.Array == s.LHS.Array {
			continue
		}
		vars := buf[:0]
		for _, sub := range rd.Subs {
			for _, t := range sub.Terms {
				if !slices.Contains(vars, t.Var) {
					vars = append(vars, t.Var)
				}
			}
		}
		if len(vars) > bestVars {
			best, bestVars = i, len(vars)
		}
	}
	return best
}

// Loop is one Do loop: DO Index = Lo, Hi with Step 1, or Step -1 for
// downward loops like the back-substitution in Gauss elimination.
// Validate refuses any other step.
type Loop struct {
	Index string
	Lo    Affine
	Hi    Affine
	Step  int
}

// Nest is a perfect or imperfect loop nest: Loops outermost-first, with
// statements at arbitrary depths.
type Nest struct {
	Label string
	Loops []Loop
	Stmts []*Stmt
}

// IsPost reports whether a statement at depth d executes after the
// deeper inner loop rather than before it: true when some deeper
// statement precedes it in source order (SOR's X update at line 7 runs
// after the inner product loop).
func (n *Nest) IsPost(stmt *Stmt) bool {
	for _, other := range n.Stmts {
		if other == stmt {
			return false
		}
		if other.Depth > stmt.Depth {
			return true
		}
	}
	return false
}

// Loop returns the loop with the given index name.
func (n *Nest) Loop(index string) (Loop, bool) {
	for _, l := range n.Loops {
		if l.Index == index {
			return l, true
		}
	}
	return Loop{}, false
}

// Program is a sequence of loop nests, optionally wrapped in an outer
// iterative (convergence) loop.
type Program struct {
	Name   string
	Arrays map[string]*Array
	Nests  []*Nest
	// Iterative marks programs wrapped in DO k = 1, MAX_ITERATION; the
	// loop-carried dependences across its iterations contribute the
	// CTime2 term of Section 4.
	Iterative bool
	// Params are the symbolic size parameters (e.g. "m").
	Params []string
}

// Array returns the named array, panicking if it is undeclared (an IR
// construction bug).
func (p *Program) Array(name string) *Array {
	a, ok := p.Arrays[name]
	if !ok {
		panic(fmt.Sprintf("ir: undeclared array %q in program %s", name, p.Name))
	}
	return a
}

// Validate checks that every loop steps by ±1 and has an index of its own —
// neither a size parameter nor an enclosing loop's index — and that every
// reference matches its array's rank and uses only loop indices visible at
// its statement's depth (or size parameters).
func (p *Program) Validate() error {
	params := map[string]bool{}
	for _, s := range p.Params {
		params[s] = true
	}
	for _, nest := range p.Nests {
		for d, l := range nest.Loops {
			if l.Step != 1 && l.Step != -1 {
				return fmt.Errorf("ir: %s loop %s has step %d; a loop steps by 1 or -1", nest.Label, l.Index, l.Step)
			}
			if params[l.Index] {
				return fmt.Errorf("ir: %s loop %s at depth %d: its index is the size parameter %s", nest.Label, l.Index, d+1, l.Index)
			}
			for e, outer := range nest.Loops[:d] {
				if outer.Index == l.Index {
					return fmt.Errorf("ir: %s loop %s at depth %d: its index is the index of the enclosing loop at depth %d", nest.Label, l.Index, d+1, e+1)
				}
			}
		}
		for _, st := range p.StmtsOf(nest) {
			if st.Depth < 1 || st.Depth > len(nest.Loops) {
				return fmt.Errorf("ir: %s stmt line %d depth %d outside nest of %d loops",
					nest.Label, st.Line, st.Depth, len(nest.Loops))
			}
			inScope := map[string]bool{}
			for i := 0; i < st.Depth; i++ {
				inScope[nest.Loops[i].Index] = true
			}
			for ri := -1; ri < len(st.Reads); ri++ {
				r := st.ref(ri)
				arr, ok := p.Arrays[r.Array]
				if !ok {
					return fmt.Errorf("ir: %s line %d references undeclared array %q", nest.Label, st.Line, r.Array)
				}
				if len(r.Subs) != arr.Rank() {
					return fmt.Errorf("ir: %s line %d: %s has %d subscripts, array is %d-D",
						nest.Label, st.Line, r, len(r.Subs), arr.Rank())
				}
				for _, sub := range r.Subs {
					for _, t := range sub.Terms {
						if !inScope[t.Var] && !params[t.Var] {
							return fmt.Errorf("ir: %s line %d: subscript %s uses out-of-scope variable %q",
								nest.Label, st.Line, sub, t.Var)
						}
					}
				}
			}
		}
	}
	return nil
}

// BindSize binds the program's one size parameter to v. A program with
// none binds nothing; one with more is an error naming them.
func (p *Program) BindSize(v int) (map[string]int, error) {
	switch len(p.Params) {
	case 0:
		return map[string]int{}, nil
	case 1:
		return map[string]int{p.Params[0]: v}, nil
	}
	return nil, fmt.Errorf("ir: program %s has size parameters %s; a run binds one", p.Name, strings.Join(p.Params, ", "))
}

// StmtsOf returns a nest's statements (helper so Program methods read
// uniformly).
func (p *Program) StmtsOf(n *Nest) []*Stmt { return n.Stmts }

// DimID identifies one dimension of one array — a node of the component
// affinity graph.
type DimID struct {
	Array string
	Dim   int // 0-based
}

func (d DimID) String() string { return fmt.Sprintf("%s%d", d.Array, d.Dim+1) }

// AllDims lists every (array, dimension) pair of the program, sorted by
// array name then dimension.
func (p *Program) AllDims() []DimID {
	var out []DimID
	names := make([]string, 0, len(p.Arrays))
	for n := range p.Arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for d := 0; d < p.Arrays[n].Rank(); d++ {
			out = append(out, DimID{Array: n, Dim: d})
		}
	}
	return out
}
