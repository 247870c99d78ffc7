// The paper's example programs as IR values. Line numbers match the
// listings in Sections 3, 5 and 6 so reports can cite them.
package ir

import "fmt"

// builtins are the paper programs the tools compile by name, in the order
// they list them.
var builtins = []struct {
	name  string
	build func() *Program
}{{"jacobi", Jacobi}, {"sor", SOR}, {"gauss", Gauss}, {"matmul", Cannon}}

// Builtin builds the paper program a tool names: jacobi, sor, gauss or
// matmul (Cannon's multiplication). ok is false for any other name.
func Builtin(name string) (p *Program, ok bool) {
	for _, b := range builtins {
		if b.name == name {
			return b.build(), true
		}
	}
	return nil, false
}

// BuiltinNames lists the names Builtin knows.
func BuiltinNames() []string {
	names := make([]string, len(builtins))
	for i, b := range builtins {
		names[i] = b.name
	}
	return names
}

// Jacobi returns Jacobi's iterative algorithm for linear systems
// A x = b (Section 3):
//
//	1  DO 10 k = 1, MAX_ITERATION
//	2    DO 6 i = 1, m                 (nest L1)
//	3      V(i) = 0.0
//	4      DO 6 j = 1, m
//	5        V(i) = V(i) + A(i,j) * X(j)
//	6    CONTINUE
//	7    DO 9 i = 1, m                 (nest L2)
//	8      X(i) = X(i) + (B(i) - V(i)) / A(i,i)
//	9    CONTINUE
//	10 CONTINUE
func Jacobi() *Program {
	m := V("m")
	p := &Program{
		Name:      "jacobi",
		Iterative: true,
		Params:    []string{"m"},
		Arrays: map[string]*Array{
			"A": {Name: "A", Extents: []Affine{m, m}},
			"V": {Name: "V", Extents: []Affine{m}},
			"B": {Name: "B", Extents: []Affine{m}},
			"X": {Name: "X", Extents: []Affine{m}},
		},
	}
	l1 := &Nest{
		Label: "L1",
		Loops: []Loop{
			{Index: "i", Lo: Const(1), Hi: m, Step: 1},
			{Index: "j", Lo: Const(1), Hi: m, Step: 1},
		},
		Stmts: []*Stmt{
			{Line: 3, Depth: 1, LHS: R("V", V("i")), Flops: 0,
				RHS:  Num(0),
				Text: "V(i) = 0.0"},
			{Line: 5, Depth: 2, LHS: R("V", V("i")),
				Reads:  []Ref{R("V", V("i")), R("A", V("i"), V("j")), R("X", V("j"))},
				RHS:    Add(Rd(R("V", V("i"))), MulE(Rd(R("A", V("i"), V("j"))), Rd(R("X", V("j"))))),
				Flops:  2,
				Reduce: true,
				Text:   "V(i) = V(i) + A(i,j) * X(j)"},
		},
	}
	l2 := &Nest{
		Label: "L2",
		Loops: []Loop{
			{Index: "i", Lo: Const(1), Hi: m, Step: 1},
		},
		Stmts: []*Stmt{
			{Line: 8, Depth: 1, LHS: R("X", V("i")),
				Reads: []Ref{R("X", V("i")), R("B", V("i")), R("V", V("i")), R("A", V("i"), V("i"))},
				RHS: Add(Rd(R("X", V("i"))),
					DivE(Sub(Rd(R("B", V("i"))), Rd(R("V", V("i")))), Rd(R("A", V("i"), V("i"))))),
				Flops: 3,
				Text:  "X(i) = X(i) + (B(i) - V(i)) / A(i,i)"},
		},
	}
	p.Nests = []*Nest{l1, l2}
	return p
}

// SOR returns the successive over-relaxation algorithm (Section 5):
//
//	1  DO 9 k = 1, MAX_ITERATION
//	2    DO 8 i = 1, m
//	3      V(i) = 0.0
//	4      DO 6 j = 1, m
//	5        V(i) = V(i) + A(i,j) * X(j)
//	6      CONTINUE
//	7      X(i) = X(i) + OMEGA * (B(i) - V(i)) / A(i,i)
//	8    CONTINUE
//	9  CONTINUE
//
// Unlike Jacobi, the update of X(i) sits inside the i loop, so iteration
// i+1's inner product already sees the new X(1..i) — the data dependence
// that both forces sequentiality and enables pipelining.
func SOR() *Program {
	m := V("m")
	p := &Program{
		Name:      "sor",
		Iterative: true,
		Params:    []string{"m"},
		Arrays: map[string]*Array{
			"A": {Name: "A", Extents: []Affine{m, m}},
			"V": {Name: "V", Extents: []Affine{m}},
			"B": {Name: "B", Extents: []Affine{m}},
			"X": {Name: "X", Extents: []Affine{m}},
		},
	}
	nest := &Nest{
		Label: "S1",
		Loops: []Loop{
			{Index: "i", Lo: Const(1), Hi: m, Step: 1},
			{Index: "j", Lo: Const(1), Hi: m, Step: 1},
		},
		Stmts: []*Stmt{
			{Line: 3, Depth: 1, LHS: R("V", V("i")), Flops: 0,
				RHS:  Num(0),
				Text: "V(i) = 0.0"},
			{Line: 5, Depth: 2, LHS: R("V", V("i")),
				Reads:  []Ref{R("V", V("i")), R("A", V("i"), V("j")), R("X", V("j"))},
				RHS:    Add(Rd(R("V", V("i"))), MulE(Rd(R("A", V("i"), V("j"))), Rd(R("X", V("j"))))),
				Flops:  2,
				Reduce: true,
				Text:   "V(i) = V(i) + A(i,j) * X(j)"},
			{Line: 7, Depth: 1, LHS: R("X", V("i")),
				Reads: []Ref{R("X", V("i")), R("B", V("i")), R("V", V("i")), R("A", V("i"), V("i"))},
				RHS: Add(Rd(R("X", V("i"))),
					DivE(MulE(Scalar("OMEGA"), Sub(Rd(R("B", V("i"))), Rd(R("V", V("i"))))),
						Rd(R("A", V("i"), V("i"))))),
				Flops: 4,
				Text:  "X(i) = X(i) + OMEGA * (B(i) - V(i)) / A(i,i)"},
		},
	}
	p.Nests = []*Nest{nest}
	return p
}

// Gauss returns the Gauss elimination algorithm (Section 6):
//
//	2   DO 8 k = 1, m                      (nest G1, triangularization)
//	3     DO 8 i = k+1, m
//	4       L(i,k) = A(i,k) / A(k,k)
//	5       B(i)   = B(i) - L(i,k) * B(k)
//	6       DO 8 j = k+1, m
//	7         A(i,j) = A(i,j) - L(i,k) * A(k,j)
//	10  DO 12 i = m, 1, -1                 (nest G2, V init)
//	11    V(i) = 0.0
//	13  DO 17 j = m, 1, -1                 (nest G3, back substitution)
//	14    X(j) = (B(j) - V(j)) / A(j,j)
//	15    DO 17 i = j-1, 1, -1
//	16      V(i) = V(i) + A(i,j) * X(j)
func Gauss() *Program {
	m := V("m")
	p := &Program{
		Name:   "gauss",
		Params: []string{"m"},
		Arrays: map[string]*Array{
			"A": {Name: "A", Extents: []Affine{m, m}},
			"L": {Name: "L", Extents: []Affine{m, m}},
			"V": {Name: "V", Extents: []Affine{m}},
			"B": {Name: "B", Extents: []Affine{m}},
			"X": {Name: "X", Extents: []Affine{m}},
		},
	}
	g1 := &Nest{
		Label: "G1",
		Loops: []Loop{
			{Index: "k", Lo: Const(1), Hi: m, Step: 1},
			{Index: "i", Lo: V("k").PlusConst(1), Hi: m, Step: 1},
			{Index: "j", Lo: V("k").PlusConst(1), Hi: m, Step: 1},
		},
		Stmts: []*Stmt{
			{Line: 4, Depth: 2, LHS: R("L", V("i"), V("k")),
				Reads: []Ref{R("A", V("i"), V("k")), R("A", V("k"), V("k"))},
				RHS:   DivE(Rd(R("A", V("i"), V("k"))), Rd(R("A", V("k"), V("k")))),
				Flops: 1,
				Text:  "L(i,k) = A(i,k) / A(k,k)"},
			{Line: 5, Depth: 2, LHS: R("B", V("i")),
				Reads: []Ref{R("B", V("i")), R("L", V("i"), V("k")), R("B", V("k"))},
				RHS:   Sub(Rd(R("B", V("i"))), MulE(Rd(R("L", V("i"), V("k"))), Rd(R("B", V("k"))))),
				Flops: 2,
				Text:  "B(i) = B(i) - L(i,k) * B(k)"},
			{Line: 7, Depth: 3, LHS: R("A", V("i"), V("j")),
				Reads: []Ref{R("A", V("i"), V("j")), R("L", V("i"), V("k")), R("A", V("k"), V("j"))},
				RHS:   Sub(Rd(R("A", V("i"), V("j"))), MulE(Rd(R("L", V("i"), V("k"))), Rd(R("A", V("k"), V("j"))))),
				Flops: 2,
				Text:  "A(i,j) = A(i,j) - L(i,k) * A(k,j)"},
		},
	}
	g2 := &Nest{
		Label: "G2",
		Loops: []Loop{
			{Index: "i", Lo: m, Hi: Const(1), Step: -1},
		},
		Stmts: []*Stmt{
			{Line: 11, Depth: 1, LHS: R("V", V("i")), Flops: 0, RHS: Num(0), Text: "V(i) = 0.0"},
		},
	}
	g3 := &Nest{
		Label: "G3",
		Loops: []Loop{
			{Index: "j", Lo: m, Hi: Const(1), Step: -1},
			{Index: "i", Lo: V("j").PlusConst(-1), Hi: Const(1), Step: -1},
		},
		Stmts: []*Stmt{
			{Line: 14, Depth: 1, LHS: R("X", V("j")),
				Reads: []Ref{R("B", V("j")), R("V", V("j")), R("A", V("j"), V("j"))},
				RHS: DivE(Sub(Rd(R("B", V("j"))), Rd(R("V", V("j")))),
					Rd(R("A", V("j"), V("j")))),
				Flops: 2,
				Text:  "X(j) = (B(j) - V(j)) / A(j,j)"},
			{Line: 16, Depth: 2, LHS: R("V", V("i")),
				Reads:  []Ref{R("V", V("i")), R("A", V("i"), V("j")), R("X", V("j"))},
				RHS:    Add(Rd(R("V", V("i"))), MulE(Rd(R("A", V("i"), V("j"))), Rd(R("X", V("j"))))),
				Flops:  2,
				Reduce: true,
				Text:   "V(i) = V(i) + A(i,j) * X(j)"},
		},
	}
	p.Nests = []*Nest{g1, g2, g3}
	return p
}

// Cannon returns the three-nested-loop matrix multiplication A = B * C,
// the Section 2.1 example whose data layouts under Cannon's algorithm are
// the rotated distributions of Fig 1 (b) and (c).
func Cannon() *Program {
	m := V("m")
	p := &Program{
		Name:   "matmul",
		Params: []string{"m"},
		Arrays: map[string]*Array{
			"A": {Name: "A", Extents: []Affine{m, m}},
			"B": {Name: "B", Extents: []Affine{m, m}},
			"C": {Name: "C", Extents: []Affine{m, m}},
		},
	}
	nest := &Nest{
		Label: "M1",
		Loops: []Loop{
			{Index: "i", Lo: Const(1), Hi: m, Step: 1},
			{Index: "j", Lo: Const(1), Hi: m, Step: 1},
			{Index: "k", Lo: Const(1), Hi: m, Step: 1},
		},
		Stmts: []*Stmt{
			{Line: 3, Depth: 3, LHS: R("A", V("i"), V("j")),
				Reads:  []Ref{R("A", V("i"), V("j")), R("B", V("i"), V("k")), R("C", V("k"), V("j"))},
				RHS:    Add(Rd(R("A", V("i"), V("j"))), MulE(Rd(R("B", V("i"), V("k"))), Rd(R("C", V("k"), V("j"))))),
				Flops:  2,
				Reduce: true,
				Text:   "A(i,j) = A(i,j) + B(i,k) * C(k,j)"},
		},
	}
	p.Nests = []*Nest{nest}
	return p
}

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

// Stencil returns the five-point relaxation
//
//	DO 3 i = 2, m-1
//	  DO 3 j = 2, m-1
//	3   W(i,j) = (U(i-1,j) + U(i+1,j) + U(i,j-1) + U(i,j+1)) / 4
//
// the Section 1 case where "dependent data only influence neighboring
// data": every affinity edge has a constant subscript offset, so
// component alignment co-locates U and W dimension-wise and all
// communication is nearest-neighbour.
func Stencil() *Program {
	m := V("m")
	p := &Program{
		Name:      "stencil",
		Iterative: true,
		Params:    []string{"m"},
		Arrays: map[string]*Array{
			"U": {Name: "U", Extents: []Affine{m, m}},
			"W": {Name: "W", Extents: []Affine{m, m}},
		},
	}
	nest := &Nest{
		Label: "S1",
		Loops: []Loop{
			{Index: "i", Lo: Const(2), Hi: m.PlusConst(-1), Step: 1},
			{Index: "j", Lo: Const(2), Hi: m.PlusConst(-1), Step: 1},
		},
		Stmts: []*Stmt{
			{Line: 3, Depth: 2, LHS: R("W", V("i"), V("j")),
				Reads: []Ref{
					R("U", V("i").PlusConst(-1), V("j")),
					R("U", V("i").PlusConst(1), V("j")),
					R("U", V("i"), V("j").PlusConst(-1)),
					R("U", V("i"), V("j").PlusConst(1)),
				},
				RHS: DivE(Add(Add(Rd(R("U", V("i").PlusConst(-1), V("j"))), Rd(R("U", V("i").PlusConst(1), V("j")))),
					Add(Rd(R("U", V("i"), V("j").PlusConst(-1))), Rd(R("U", V("i"), V("j").PlusConst(1))))),
					Num(4)),
				Flops: 4,
				Text:  "W(i,j) = (U(i-1,j) + U(i+1,j) + U(i,j-1) + U(i,j+1)) / 4"},
		},
	}
	copyBack := &Nest{
		Label: "S2",
		Loops: []Loop{
			{Index: "i", Lo: Const(2), Hi: m.PlusConst(-1), Step: 1},
			{Index: "j", Lo: Const(2), Hi: m.PlusConst(-1), Step: 1},
		},
		Stmts: []*Stmt{
			{Line: 5, Depth: 2, LHS: R("U", V("i"), V("j")),
				Reads: []Ref{R("W", V("i"), V("j"))},
				RHS:   Rd(R("W", V("i"), V("j"))),
				Flops: 0,
				Text:  "U(i,j) = W(i,j)"},
		},
	}
	p.Nests = []*Nest{nest, copyBack}
	return p
}
