package exec

import (
	"strings"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

// vecProgram is DO i = lo, hi: A(i) = <rhs> over 1-D arrays A and B of
// extent m, with the given Reads; the small base the error tests mutate.
func vecProgram(lo, hi ir.Affine, rhs ir.Expr, reads []ir.Ref) *ir.Program {
	m := ir.V("m")
	return &ir.Program{
		Name: "vec", Params: []string{"m", "q"},
		Arrays: map[string]*ir.Array{
			"A": {Name: "A", Extents: []ir.Affine{m}},
			"B": {Name: "B", Extents: []ir.Affine{m}},
		},
		Nests: []*ir.Nest{{
			Label: "L1",
			Loops: []ir.Loop{{Index: "i", Lo: lo, Hi: hi, Step: 1}},
			Stmts: []*ir.Stmt{{Line: 3, Depth: 1, LHS: ir.R("A", ir.V("i")), Reads: reads,
				RHS: rhs, Flops: ir.ExprFlops(rhs), Text: "A(i) = " + rhs.String()}},
		}},
	}
}

// TestRunRejectsUnlistedRead: an RHS operand missing from Stmt.Reads is
// never shipped, so the executor used to load it from its local store and
// return wrong values with a nil error (A = 0…0 where the sequential
// interpreter gives 8…1). Run, and the checked lowering both engines
// take, now refuse the program.
func TestRunRejectsUnlistedRead(t *testing.T) {
	const m, n = 8, 4
	i, one := ir.V("i"), ir.Const(1)
	mirrored := ir.R("B", ir.NewAffine(1, ir.Term{Var: "m", Coeff: 1}, ir.Term{Var: "i", Coeff: -1}))
	good := vecProgram(one, ir.V("m"), ir.Rd(mirrored), []ir.Ref{mirrored})
	bad := vecProgram(one, ir.V("m"), ir.Rd(mirrored), []ir.Ref{ir.R("B", i)})
	ss := fuzzSchemes(t, good, m, n)
	input := ir.NewStorage(good)
	for k := 1; k <= m; k++ {
		input.Store("B", []int{k}, float64(k))
	}
	bind := map[string]int{"m": m}

	res, err := Run(good, ss, bind, nil, 1, machine.DefaultConfig(), input)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= m; k++ {
		if got := res.Values.Load(ir.R("A", i), []int{k}); got != float64(m+1-k) {
			t.Errorf("consistent Reads: A(%d) = %v, want %d", k, got, m+1-k)
		}
	}
	_, err = Run(bad, ss, bind, nil, 1, machine.DefaultConfig(), input)
	_, errLower := bad.LowerChecked(bind)
	for engine, err := range map[string]error{"Run": err, "the checked lowering both engines take": errLower} {
		if err == nil || !strings.Contains(err.Error(), "B(-i+m+1)") || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("%s: got %v, want an error naming the unlisted read B(-i+m+1) and line 3", engine, err)
		}
	}
}

// TestRunErrorsNotPanics: what a program or a binding can get wrong comes
// back from Run as an error that names the culprit, never as a panic in
// the caller's goroutine.
func TestRunErrorsNotPanics(t *testing.T) {
	const m, n = 8, 4
	i, one, mm := ir.V("i"), ir.Const(1), ir.V("m")
	ref := func(arr string, sub ir.Affine) (ir.Expr, []ir.Ref) {
		r := ir.R(arr, sub)
		return ir.Rd(r), []ir.Ref{r}
	}
	good, goodReads := ref("B", i)
	ss := fuzzSchemes(t, vecProgram(one, mm, good, goodReads), m, n)

	shifted, shiftedReads := ref("B", i.PlusConst(1))
	unbound, unboundReads := ref("B", i.Plus(ir.V("q")))
	undeclared, undeclaredReads := ref("Z", i)
	stepped := vecProgram(one, mm, good, goodReads)
	stepped.Nests[0].Loops[0].Step = 2
	cases := []struct {
		name string
		p    *ir.Program
		bind map[string]int
		want []string
	}{
		{"subscript outside extents", vecProgram(one, mm, shifted, shiftedReads), map[string]int{"m": m},
			[]string{"B(i+1)", "ranges over [2, 9]", "outside the declared [1, 8]", "line 3"}},
		{"unbound variable in a subscript", vecProgram(one, mm, unbound, unboundReads), map[string]int{"m": m},
			[]string{`unbound variable "q"`, "B(i+q)", "line 3"}},
		{"unbound variable in a loop bound", vecProgram(one, ir.V("q"), good, goodReads), map[string]int{"m": m},
			[]string{`unbound variable "q"`, "loop i"}},
		{"unbound variable in an extent", vecProgram(one, mm, good, goodReads), map[string]int{},
			[]string{`unbound variable "m"`, "array A"}},
		{"undeclared array", vecProgram(one, mm, undeclared, undeclaredReads), map[string]int{"m": m},
			[]string{"undeclared array", "Z"}},
		{"loop step other than 1 or -1", stepped, map[string]int{"m": m},
			[]string{"L1 loop i has step 2"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Run(c.p, ss, c.bind, nil, 1, machine.DefaultConfig(), ir.NewStorage(c.p))
			if err == nil {
				t.Fatal("Run accepted the program")
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}

	// Input keys the stores cannot place, on jacobi's 2-D A: "5" used to
	// land on A(1,5) (which value won was map order), "1,2,3" to panic
	// with an index out of range, "1,x" and "01,2" to panic naming the key.
	jac := ir.Jacobi()
	jss := wholeProgramSchemes(t, jac, m, n)
	a, b, _ := matrix.DiagonallyDominant(m, 1)
	for _, c := range []struct {
		name, arr, key string
		want           []string
	}{
		{"input key of too few subscripts", "A", "5", []string{"array A", `"5"`, "2 canonical subscripts"}},
		{"input key of too many subscripts", "A", "1,2,3", []string{"array A", `"1,2,3"`}},
		{"input key not a number", "A", "1,x", []string{"array A", `"1,x"`}},
		{"input key not canonical", "A", "01,2", []string{"array A", `"01,2"`}},
		{"input key outside the extents", "A", "9,1", []string{"array A", `"9,1"`, "[8 8]"}},
		{"input of an undeclared array", "Z", "1", []string{"undeclared array Z"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			input := loadLinearSystem(jac, a, b, make([]float64, m))
			if input[c.arr] == nil {
				input[c.arr] = map[string]float64{}
			}
			input[c.arr][c.key] = 2
			lw := mustLower(t, jac, map[string]int{"m": m})
			for _, engine := range []struct {
				name string
				run  func(*ir.Lowered, []core.Segment, map[string]float64, int, machine.Config, ir.Storage) (Result, error)
			}{{"Run", run}, {"RunExact", runExact}} {
				_, err := engine.run(lw, wholeProgram(jac, jss), nil, 1, machine.DefaultConfig(), input)
				if err == nil {
					t.Fatalf("%s accepted the input", engine.name)
				}
				for _, w := range c.want {
					if !strings.Contains(err.Error(), w) {
						t.Errorf("%s: error %q does not mention %q", engine.name, err, w)
					}
				}
			}
		})
	}
}

// mustLower is p's checked lowering under bind, what run and runExact take.
func mustLower(tb testing.TB, p *ir.Program, bind map[string]int) *ir.Lowered {
	tb.Helper()
	lw, err := p.LowerChecked(bind)
	if err != nil {
		tb.Fatal(err)
	}
	return lw
}
