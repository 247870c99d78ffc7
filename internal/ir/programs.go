// The paper's example programs. The four builtins and Stencil are their
// listings in testdata/, parsed: line numbers match Sections 2.1, 3, 5 and
// 6, so reports can cite them. Synthetic is built here, and Corpus lists
// them all.
package ir

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"dmcc"
)

// builtins are the paper programs the tools compile by name, in the order
// they list them.
var builtins = []struct {
	name   string
	parsed func() *Program
}{
	{"jacobi", parseOnce("jacobi", "L")}, {"sor", parseOnce("sor", "S")},
	{"gauss", parseOnce("gauss", "G")}, {"matmul", parseOnce("matmul", "M")},
}

// stencil and manyArrays are the listings no tool compiles by name:
// Stencil's, and testdata/manyarrays.f, its nests labelled L1, L2, ... as
// Parse labels them.
var stencil, manyArrays = parseOnce("stencil", "S"), parseOnce("manyarrays", "L")

// Listing returns the text of testdata/<name>.f, one of the listings the
// root package embeds.
func Listing(name string) (string, error) {
	src, err := dmcc.Listings.ReadFile("testdata/" + name + ".f")
	return string(src), err
}

// parseOnce returns the parse of testdata/<name>.f, made on the first
// call in the process, with its nests labelled letter1, letter2, ... as the
// paper labels them.
func parseOnce(name, letter string) func() *Program {
	return sync.OnceValue(func() *Program {
		src, err := Listing(name)
		if err != nil {
			panic(err)
		}
		p, err := Parse(src)
		if err != nil {
			panic(fmt.Sprintf("ir: listing %s.f: %v", name, err))
		}
		for k, nest := range p.Nests {
			nest.Label = letter + strconv.Itoa(k+1)
		}
		return p
	})
}

// Builtin returns the paper program a tool names — jacobi, sor, gauss or
// matmul, parsed from its listing — as a copy the caller may edit. ok is
// false for any other name.
func Builtin(name string) (p *Program, ok bool) {
	for _, b := range builtins {
		if b.name == name {
			return b.parsed().clone(), true
		}
	}
	return nil, false
}

// Corpus returns every program the tree compiles, each a fresh copy named
// by Program.Name: the four builtins as Builtin returns them,
// testdata/manyarrays.f, Stencil and Synthetic(4..8). It is the one list
// the layouts sweep and the tests that check a fast path against its
// oracle over every program run over.
func Corpus() []*Program {
	progs := make([]*Program, 0, len(builtins)+7)
	for _, b := range builtins {
		progs = append(progs, b.parsed().clone())
	}
	progs = append(progs, manyArrays().clone(), Stencil())
	for s := 4; s <= 8; s++ {
		progs = append(progs, Synthetic(s))
	}
	return progs
}

// clone copies p down to every slice, map and expression an edit can
// reach. The copy shares only its Affines' Terms: an Affine is a value,
// and only ir's constructors write Terms, each into a clipped slice of its
// own, so nothing writes them after an Affine is built.
func (p *Program) clone() *Program {
	q := *p
	q.Params = slices.Clone(p.Params)
	q.Arrays = make(map[string]*Array, len(p.Arrays))
	for name, a := range p.Arrays {
		q.Arrays[name] = &Array{Name: a.Name, Extents: slices.Clone(a.Extents)}
	}
	q.Nests = make([]*Nest, len(p.Nests))
	for i, n := range p.Nests {
		c := &Nest{Label: n.Label, Loops: slices.Clone(n.Loops), Stmts: make([]*Stmt, len(n.Stmts))}
		for k, st := range n.Stmts {
			s := *st
			s.LHS = st.LHS.clone()
			s.Reads = slices.Clone(st.Reads)
			for r, rd := range s.Reads {
				s.Reads[r] = rd.clone()
			}
			s.RHS = cloneExpr(st.RHS)
			c.Stmts[k] = &s
		}
		q.Nests[i] = c
	}
	return &q
}

func (r Ref) clone() Ref { return Ref{Array: r.Array, Subs: slices.Clone(r.Subs)} }

func cloneExpr(e Expr) Expr {
	switch v := e.(type) {
	case RefE:
		return RefE{Ref: v.Ref.clone()}
	case NegE:
		return NegE{E: cloneExpr(v.E)}
	case BinOp:
		return BinOp{Op: v.Op, L: cloneExpr(v.L), R: cloneExpr(v.R)}
	}
	return e // Num, Scalar and nil hold nothing to share
}

// BuiltinNames lists the names Builtin knows.
func BuiltinNames() []string {
	names := make([]string, len(builtins))
	for i, b := range builtins {
		names[i] = b.name
	}
	return names
}

// Jacobi returns Jacobi's iterative algorithm for linear systems A x = b
// (Section 3, testdata/jacobi.f): nests L1 and L2.
func Jacobi() *Program { p, _ := Builtin("jacobi"); return p }

// SOR returns the successive over-relaxation algorithm (Section 5,
// testdata/sor.f): nest S1. Unlike Jacobi, the update of X(i) sits inside
// the i loop, so iteration i+1's inner product already sees the new
// X(1..i) — the data dependence that both forces sequentiality and
// enables pipelining.
func SOR() *Program { p, _ := Builtin("sor"); return p }

// Gauss returns the Gauss elimination algorithm (Section 6,
// testdata/gauss.f): triangularization G1, V's initialization G2 and back
// substitution G3.
func Gauss() *Program { p, _ := Builtin("gauss"); return p }

// Synthetic returns a sequence of s single-loop nests over two vectors
// and the diagonals of four m x m matrices, cycling through scaled
// updates, diagonal extractions and axpys. The design isolates the DP's
// redistribution costing: every nest's iteration space is O(m), but a
// scheme change must still move O(m²) matrix elements, so Algorithm 1's
// cost(P, P') term dominates compile time exactly as it does for long
// realistic loop sequences over large arrays. The benchmark harness
// uses it to scale the DP's input size s independently of the paper's
// fixed examples.
func Synthetic(s int) *Program {
	m := V("m")
	p := &Program{
		Name:   fmt.Sprintf("synth%d", s),
		Params: []string{"m"},
		Arrays: map[string]*Array{
			"A": {Name: "A", Extents: []Affine{m, m}},
			"B": {Name: "B", Extents: []Affine{m, m}},
			"C": {Name: "C", Extents: []Affine{m, m}},
			"D": {Name: "D", Extents: []Affine{m, m}},
			"X": {Name: "X", Extents: []Affine{m}},
			"Y": {Name: "Y", Extents: []Affine{m}},
		},
	}
	iLoop := []Loop{{Index: "i", Lo: Const(1), Hi: m, Step: 1}}
	di := func(name string) Ref { return R(name, V("i"), V("i")) }
	patterns := []func(label string, line int) *Nest{
		func(label string, line int) *Nest { // diagonal-scaled update of X
			return &Nest{Label: label, Loops: iLoop, Stmts: []*Stmt{
				{Line: line, Depth: 1, LHS: R("X", V("i")),
					Reads: []Ref{R("X", V("i")), di("A"), R("Y", V("i"))},
					RHS:   Add(Rd(R("X", V("i"))), MulE(Rd(di("A")), Rd(R("Y", V("i"))))),
					Flops: 2,
					Text:  "X(i) = X(i) + A(i,i) * Y(i)"},
			}}
		},
		func(label string, line int) *Nest { // diagonal-scaled update of Y
			return &Nest{Label: label, Loops: iLoop, Stmts: []*Stmt{
				{Line: line, Depth: 1, LHS: R("Y", V("i")),
					Reads: []Ref{R("Y", V("i")), di("B"), R("X", V("i"))},
					RHS:   Add(Rd(R("Y", V("i"))), MulE(Rd(di("B")), Rd(R("X", V("i"))))),
					Flops: 2,
					Text:  "Y(i) = Y(i) + B(i,i) * X(i)"},
			}}
		},
		func(label string, line int) *Nest { // diagonal combine
			return &Nest{Label: label, Loops: iLoop, Stmts: []*Stmt{
				{Line: line, Depth: 1, LHS: di("C"),
					Reads: []Ref{di("A"), di("B")},
					RHS:   Add(Rd(di("A")), Rd(di("B"))),
					Flops: 1,
					Text:  "C(i,i) = A(i,i) + B(i,i)"},
			}}
		},
		func(label string, line int) *Nest { // diagonal accumulate
			return &Nest{Label: label, Loops: iLoop, Stmts: []*Stmt{
				{Line: line, Depth: 1, LHS: di("D"),
					Reads: []Ref{di("C"), R("X", V("i")), R("Y", V("i"))},
					RHS:   Add(Rd(di("C")), MulE(Rd(R("X", V("i"))), Rd(R("Y", V("i"))))),
					Flops: 2,
					Text:  "D(i,i) = C(i,i) + X(i) * Y(i)"},
			}}
		},
		func(label string, line int) *Nest { // vector axpy
			return &Nest{Label: label, Loops: iLoop, Stmts: []*Stmt{
				{Line: line, Depth: 1, LHS: R("X", V("i")),
					Reads: []Ref{R("X", V("i")), R("Y", V("i"))},
					RHS:   Add(Rd(R("X", V("i"))), Rd(R("Y", V("i")))),
					Flops: 1,
					Text:  "X(i) = X(i) + Y(i)"},
			}}
		},
		func(label string, line int) *Nest { // diagonal difference into Y
			return &Nest{Label: label, Loops: iLoop, Stmts: []*Stmt{
				{Line: line, Depth: 1, LHS: R("Y", V("i")),
					Reads: []Ref{di("C"), di("D")},
					RHS:   Sub(Rd(di("C")), Rd(di("D"))),
					Flops: 1,
					Text:  "Y(i) = C(i,i) - D(i,i)"},
			}}
		},
	}
	for t := 0; t < s; t++ {
		p.Nests = append(p.Nests, patterns[t%len(patterns)](fmt.Sprintf("T%d", t+1), t+1))
	}
	return p
}

// Stencil returns the five-point relaxation of testdata/stencil.f, the
// Section 1 case where "dependent data only influence neighboring data":
// nest S1 relaxes U into W, S2 copies W back.
func Stencil() *Program { return stencil().clone() }
