package ir

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestAffineArithmetic(t *testing.T) {
	a := V("i").PlusConst(-1) // i-1
	b := V("i").Plus(V("j"))  // i+j
	if a.Eval(map[string]int{"i": 5}) != 4 {
		t.Fatal("Eval wrong")
	}
	if b.Eval(map[string]int{"i": 2, "j": 3}) != 5 {
		t.Fatal("Eval wrong")
	}
	s := a.Plus(b) // 2i+j-1
	if coeffOf(s, "i") != 2 || coeffOf(s, "j") != 1 || s.Const != -1 {
		t.Fatalf("Plus: %s", s)
	}
	d := minus(a, V("i")) // -1
	if !d.IsConst() || d.Const != -1 {
		t.Fatalf("Minus: %s", d)
	}
	n := neg(b)
	if coeffOf(n, "i") != -1 || coeffOf(n, "j") != -1 {
		t.Fatalf("Neg: %s", n)
	}
}

func TestAffineCancellation(t *testing.T) {
	a := V("i").Plus(neg(V("i")))
	if !a.IsConst() || a.Const != 0 {
		t.Fatalf("i + (-i) = %s", a)
	}
	if a.Terms != nil {
		t.Fatalf("terms not cancelled: %v", a.Terms)
	}
}

func TestAffineEvalUnboundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	V("i").Eval(map[string]int{})
}

func TestConstDiff(t *testing.T) {
	a := V("i").PlusConst(2)
	b := V("i").PlusConst(-1)
	if d, ok := a.ConstDiff(b); !ok || d != 3 {
		t.Fatalf("ConstDiff = %d, %v", d, ok)
	}
	if _, ok := a.ConstDiff(V("j")); ok {
		t.Fatal("i+2 vs j should not have constant difference")
	}
	// Same variable, different coefficient.
	if _, ok := NewAffine(0, Term{"i", 2}).ConstDiff(V("i")); ok {
		t.Fatal("2i vs i should not have constant difference")
	}
}

func TestAffineString(t *testing.T) {
	cases := map[string]Affine{
		"i-1":  V("i").PlusConst(-1),
		"i+j":  V("i").Plus(V("j")),
		"-i+5": neg(V("i")).PlusConst(5),
		"0":    Const(0),
		"2i":   NewAffine(0, Term{"i", 2}),
		"i":    V("i"),
	}
	for want, a := range cases {
		if got := a.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

// Property: Eval is linear: eval(a+b) = eval(a)+eval(b).
func TestAffineEvalLinearQuick(t *testing.T) {
	f := func(c1, c2, k1, k2 int8, x int8) bool {
		a := NewAffine(int(k1), Term{"x", int(c1)})
		b := NewAffine(int(k2), Term{"x", int(c2)})
		bind := map[string]int{"x": int(x)}
		return a.Plus(b).Eval(bind) == a.Eval(bind)+b.Eval(bind)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRefString(t *testing.T) {
	r := R("A", V("i"), V("j").PlusConst(-1))
	if r.String() != "A(i,j-1)" {
		t.Fatalf("String = %q", r.String())
	}
}

func TestProgramsValidate(t *testing.T) {
	for _, p := range Corpus() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestJacobiShape(t *testing.T) {
	p := Jacobi()
	if len(p.Nests) != 2 {
		t.Fatalf("nests = %d", len(p.Nests))
	}
	if !p.Iterative {
		t.Fatal("Jacobi must be iterative")
	}
	l1 := p.Nests[0]
	if l1.Label != "L1" || len(l1.Loops) != 2 || len(l1.Stmts) != 2 {
		t.Fatalf("L1 shape wrong: %+v", l1)
	}
	if !l1.Stmts[1].Reduce {
		t.Fatal("line 5 must be a reduction")
	}
	if _, ok := l1.Loop("j"); !ok {
		t.Fatal("loop j missing")
	}
	if _, ok := l1.Loop("z"); ok {
		t.Fatal("phantom loop z")
	}
	dims := p.AllDims()
	// A(2) + B + V + X = 5 dims.
	if len(dims) != 5 {
		t.Fatalf("dims = %v", dims)
	}
	if dims[0].String() != "A1" || dims[1].String() != "A2" {
		t.Fatalf("dims order: %v", dims)
	}
}

func TestGaussShape(t *testing.T) {
	p := Gauss()
	if p.Iterative {
		t.Fatal("Gauss is not iterative")
	}
	if len(p.Nests) != 3 {
		t.Fatalf("nests = %d", len(p.Nests))
	}
	g1 := p.Nests[0]
	if len(g1.Loops) != 3 {
		t.Fatalf("G1 loops = %d", len(g1.Loops))
	}
	// Triangular bound: i runs from k+1.
	if coeffOf(g1.Loops[1].Lo, "k") != 1 || g1.Loops[1].Lo.Const != 1 {
		t.Fatalf("G1 i lower bound = %s", g1.Loops[1].Lo)
	}
	g3 := p.Nests[2]
	if g3.Loops[0].Step != -1 {
		t.Fatal("back substitution must run downward")
	}
	// 5 arrays: A,L 2-D; V,B,X 1-D -> 7 dims.
	if len(p.AllDims()) != 7 {
		t.Fatalf("dims = %v", p.AllDims())
	}
}

func TestValidateCatchesBrokenPrograms(t *testing.T) {
	p := Jacobi()
	// Undeclared array.
	p.Nests[0].Stmts = append(p.Nests[0].Stmts, &Stmt{
		Line: 99, Depth: 1, LHS: R("Z", V("i")),
	})
	if err := p.Validate(); err == nil {
		t.Fatal("undeclared array not caught")
	}

	p2 := Jacobi()
	// Wrong rank.
	p2.Nests[0].Stmts[0].LHS = R("A", V("i"))
	if err := p2.Validate(); err == nil {
		t.Fatal("rank mismatch not caught")
	}

	p3 := Jacobi()
	// Out-of-scope index: j used at depth 1.
	p3.Nests[0].Stmts[0].LHS = R("V", V("j"))
	if err := p3.Validate(); err == nil {
		t.Fatal("out-of-scope index not caught")
	}

	p4 := Jacobi()
	p4.Nests[0].Stmts[0].Depth = 7
	if err := p4.Validate(); err == nil {
		t.Fatal("bad depth not caught")
	}
}

// TestValidateRefusesNonUnitSteps: the parser admits steps of 1 and -1
// only, and every consumer reads a loop as one of the two, so Validate
// refuses any other step, naming the nest, the loop and the step.
func TestValidateRefusesNonUnitSteps(t *testing.T) {
	for _, step := range []int{0, 2, -2} {
		p := Jacobi()
		p.Nests[0].Loops[1].Step = step
		want := fmt.Sprintf("ir: L1 loop j has step %d", step)
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("step %d: Validate returned %v, want an error with %q", step, err, want)
		}
	}
}

func TestArrayLookupPanics(t *testing.T) {
	p := Jacobi()
	if p.Array("A").Rank() != 2 {
		t.Fatal("A rank")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Array("nope")
}

func TestPrintRendersAllPrograms(t *testing.T) {
	for _, p := range Corpus() {
		src := Print(p)
		for _, want := range []string{"PROGRAM " + p.Name, "PARAM m", "REAL", "END"} {
			if !strings.Contains(src, want) {
				t.Errorf("%s: printed source missing %q\n%s", p.Name, want, src)
			}
		}
		if p.Iterative && !strings.Contains(src, "MAX_ITERATION") {
			t.Errorf("%s: iterative wrapper missing", p.Name)
		}
	}
}

func TestPrintPreservesStatementPositions(t *testing.T) {
	// SOR's line 7 must print after the inner loop's CONTINUE.
	src := Print(SOR())
	i5 := strings.Index(src, "V(i) + (A(i,j) * X(j))")
	i7 := strings.Index(src, "OMEGA")
	cont := strings.Index(src[i5:], "CONTINUE")
	if !(i5 >= 0 && i7 > i5 && i5+cont < i7) {
		t.Fatalf("statement order wrong:\n%s", src)
	}
}

// printFmt is Print as it was written with fmt, kept as the reference the
// builder version must match byte for byte: the printed form is digested
// into every stored plan's key.
func printFmt(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "PROGRAM %s\n", p.Name)
	if len(p.Params) > 0 {
		fmt.Fprintf(&b, "PARAM %s\n", strings.Join(p.Params, ", "))
	}
	names := make([]string, 0, len(p.Arrays))
	for n := range p.Arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	var decls []string
	for _, n := range names {
		ext := make([]string, 0, p.Arrays[n].Rank())
		for _, e := range p.Arrays[n].Extents {
			ext = append(ext, affineFmt(e))
		}
		decls = append(decls, fmt.Sprintf("%s(%s)", n, strings.Join(ext, ",")))
	}
	fmt.Fprintf(&b, "REAL %s\n", strings.Join(decls, ", "))
	label := 100
	if p.Iterative {
		fmt.Fprintf(&b, "DO %d k0 = 1, MAX_ITERATION\n", label)
	}
	for _, nest := range p.Nests {
		labels := make([]int, len(nest.Loops))
		for i := range labels {
			label++
			labels[i] = label
		}
		ind := func(d int) string { return strings.Repeat("  ", d) }
		stmt := func(st *Stmt, level int) {
			rhs := "0.0"
			if st.RHS != nil {
				rhs = exprFmt(st.RHS)
			}
			if st.Line > 0 {
				fmt.Fprintf(&b, "%d %s%s = %s\n", st.Line, ind(level), refFmt(st.LHS), rhs)
			} else {
				fmt.Fprintf(&b, "%s%s = %s\n", ind(level), refFmt(st.LHS), rhs)
			}
		}
		var walk func(level int)
		walk = func(level int) {
			for _, st := range nest.Stmts {
				if st.Depth == level && !nest.IsPost(st) {
					stmt(st, level)
				}
			}
			if level < len(nest.Loops) {
				l := nest.Loops[level]
				if l.Step == -1 {
					fmt.Fprintf(&b, "%sDO %d %s = %s, %s, -1\n", ind(level), labels[level], l.Index, affineFmt(l.Lo), affineFmt(l.Hi))
				} else {
					fmt.Fprintf(&b, "%sDO %d %s = %s, %s\n", ind(level), labels[level], l.Index, affineFmt(l.Lo), affineFmt(l.Hi))
				}
				walk(level + 1)
				fmt.Fprintf(&b, "%s%d CONTINUE\n", ind(level), labels[level])
			}
			for _, st := range nest.Stmts {
				if st.Depth == level && nest.IsPost(st) {
					stmt(st, level)
				}
			}
		}
		walk(0)
	}
	if p.Iterative {
		fmt.Fprintf(&b, "100 CONTINUE\n")
	}
	b.WriteString("END\n")
	return b.String()
}

func affineFmt(a Affine) string {
	var b strings.Builder
	for _, t := range a.Terms {
		switch v, c := t.Var, t.Coeff; {
		case c == 1:
			if b.Len() > 0 {
				b.WriteByte('+')
			}
			b.WriteString(v)
		case c == -1:
			b.WriteByte('-')
			b.WriteString(v)
		case c > 0:
			if b.Len() > 0 {
				b.WriteByte('+')
			}
			fmt.Fprintf(&b, "%d%s", c, v)
		default:
			fmt.Fprintf(&b, "%d%s", c, v)
		}
	}
	if a.Const != 0 || b.Len() == 0 {
		if a.Const >= 0 && b.Len() > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%d", a.Const)
	}
	return b.String()
}

func refFmt(r Ref) string {
	parts := make([]string, len(r.Subs))
	for i, s := range r.Subs {
		parts[i] = affineFmt(s)
	}
	return fmt.Sprintf("%s(%s)", r.Array, strings.Join(parts, ","))
}

func exprFmt(e Expr) string {
	switch v := e.(type) {
	case Num:
		return fmt.Sprintf("%g", float64(v))
	case Scalar:
		return string(v)
	case RefE:
		return refFmt(v.Ref)
	case NegE:
		return fmt.Sprintf("(-%s)", exprFmt(v.E))
	case BinOp:
		return fmt.Sprintf("(%s %c %s)", exprFmt(v.L), v.Op, exprFmt(v.R))
	}
	return "0.0"
}

// TestPrintMatchesFmt: Print, Affine.String and Ref.String write what
// their fmt versions wrote, for the corpus, Synthetic(1..3) and
// Synthetic(9..12) and for the number and subscript forms the programs do
// not reach.
func TestPrintMatchesFmt(t *testing.T) {
	progs := Corpus()
	for _, s := range []int{1, 2, 3, 9, 10, 11, 12} {
		progs = append(progs, Synthetic(s))
	}
	for _, p := range progs {
		if got, want := Print(p), printFmt(p); got != want {
			t.Errorf("%s:\n got %q\nwant %q", p.Name, got, want)
		}
	}
	var exprs []Expr
	for _, f := range []float64{0, math.Copysign(0, -1), 0.1, -2.5, 1e20, 1e21, 123456789, 1e-4, 1e-5, 5e-324, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		exprs = append(exprs, Num(f))
	}
	sub := NewAffine(-4, Term{"i", -3}, Term{"j", 1}, Term{"k", 7})
	exprs = append(exprs,
		NegE{Num(1)}, BinOp{'*', Scalar("OMEGA"), RefE{R("A", sub, V("m"), Const(0))}},
		BinOp{0xe9, Num(1), Num(2)}, nil)
	for _, e := range exprs {
		var b strings.Builder
		writeExpr(&b, e)
		if got, want := b.String(), exprFmt(e); got != want {
			t.Errorf("%#v: got %q, want %q", e, got, want)
		}
	}
	for _, a := range []Affine{Const(0), Const(-2), sub, NewAffine(5, Term{"i", 2}), NewAffine(0, Term{"i", -1}, Term{"m", -2})} {
		if got, want := a.String(), affineFmt(a); got != want {
			t.Errorf("%#v: got %q, want %q", a, got, want)
		}
	}
}
