package exec

import (
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
	"dmcc/internal/kernels"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

// wholeProgramSchemes returns the compiler's M[1][s], Section 3's
// whole-program scheme set: the one-segment plan of the program.
func wholeProgramSchemes(t testing.TB, p *ir.Program, m, n int) *core.SchemeSet {
	t.Helper()
	bind, err := p.BindSize(m)
	if err != nil {
		t.Fatal(err)
	}
	_, ss, err := core.NewCompiler(p, cost.Unit(), bind, n).SegmentCost(1, len(p.Nests))
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// wholeSchedule is the schedule of the one-segment plan that runs every
// wholeProgram is the one-segment plan that runs every nest under ss.
func wholeProgram(p *ir.Program, ss *core.SchemeSet) []core.Segment {
	return []core.Segment{{Start: 1, Len: len(p.Nests), Schemes: ss}}
}

// nest under ss.
func wholeSchedule(lw *ir.Lowered, ss *core.SchemeSet, scalars map[string]float64, ws *workspace) (*progSchedule, error) {
	pl, err := buildPlan(lw, wholeProgram(lw.Program, ss), scalars, ws)
	if err != nil {
		return nil, err
	}
	return pl.segs[0], nil
}

func loadLinearSystem(p *ir.Program, a *matrix.Dense, b, x0 []float64) ir.Storage {
	st := ir.NewStorage(p)
	m := a.Rows
	for i := 1; i <= m; i++ {
		for j := 1; j <= m; j++ {
			st.Store("A", []int{i, j}, a.At(i-1, j-1))
		}
		st.Store("B", []int{i}, b[i-1])
		if x0 != nil {
			st.Store("X", []int{i}, x0[i-1])
		}
	}
	return st
}

func extractX(st ir.Storage, m int) []float64 {
	x := make([]float64, m)
	for i := 1; i <= m; i++ {
		x[i-1] = st.Load(ir.R("X", ir.Const(i)), []int{i})
	}
	return x
}

// TestExecJacobi: the executed program matches the sequential reference
// under the compiler-chosen schemes, for several processor counts.
func TestExecJacobi(t *testing.T) {
	m, iters := 16, 5
	a, b, _ := matrix.DiagonallyDominant(m, 301)
	x0 := make([]float64, m)
	p := ir.Jacobi()
	want := matrix.JacobiSeq(a, b, x0, iters)
	for _, n := range []int{1, 2, 4} {
		ss := wholeProgramSchemes(t, p, m, n)
		res, err := Run(p, ss, map[string]int{"m": m}, nil, iters, machine.DefaultConfig(),
			loadLinearSystem(p, a, b, x0))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := matrix.MaxAbsDiff(extractX(res.Values, m), want); d > 1e-9 {
			t.Errorf("n=%d: max diff %v", n, d)
		}
	}
}

// TestExecSOR: the interleaved reduce/update semantics survive parallel
// execution — SOR's Gauss-Seidel ordering is preserved by the
// finalize-on-read rule.
func TestExecSOR(t *testing.T) {
	m, iters, omega := 12, 4, 1.2
	a, b, _ := matrix.DiagonallyDominant(m, 307)
	x0 := make([]float64, m)
	p := ir.SOR()
	want := matrix.SORSeq(a, b, x0, omega, iters)
	for _, n := range []int{1, 2, 4} {
		ss := wholeProgramSchemes(t, p, m, n)
		res, err := Run(p, ss, map[string]int{"m": m}, map[string]float64{"OMEGA": omega},
			iters, machine.DefaultConfig(), loadLinearSystem(p, a, b, x0))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := matrix.MaxAbsDiff(extractX(res.Values, m), want); d > 1e-9 {
			t.Errorf("n=%d: max diff %v", n, d)
		}
	}
}

// TestExecGauss: the full three-nest Gauss program — including the
// in-nest pivot-row flow handled by per-element transfers — matches the
// sequential solver.
func TestExecGauss(t *testing.T) {
	m := 12
	a, b, _ := matrix.DiagonallyDominant(m, 311)
	p := ir.Gauss()
	want := matrix.GaussSeq(a, b)
	for _, n := range []int{1, 2, 3} {
		ss := wholeProgramSchemes(t, p, m, n)
		res, err := Run(p, ss, map[string]int{"m": m}, nil, 1, machine.DefaultConfig(),
			loadLinearSystem(p, a, b, nil))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := matrix.MaxAbsDiff(extractX(res.Values, m), want); d > 1e-9 {
			t.Errorf("n=%d: max diff %v", n, d)
		}
	}
}

// TestExecNaiveCostExceedsPipelinedKernel: the point of Sections 5-6,
// measured end to end — the naive backend's (RunExact's) simulated
// makespan is far above the hand-pipelined kernel computing the same
// values.
func TestExecNaiveCostExceedsPipelinedKernel(t *testing.T) {
	m, n := 32, 4
	a, b, _ := matrix.DiagonallyDominant(m, 313)
	p := ir.Gauss()
	ss := wholeProgramSchemes(t, p, m, n)
	res, err := runExact(mustLower(t, p, map[string]int{"m": m}), wholeProgram(p, ss), nil, 1, machine.DefaultConfig(),
		loadLinearSystem(p, a, b, nil))
	if err != nil {
		t.Fatal(err)
	}
	pp, err := kernels.GaussPipelined(machine.DefaultConfig(), a, b, n)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(extractX(res.Values, m), pp.X); d > 1e-9 {
		t.Fatalf("naive and pipelined disagree by %v", d)
	}
	if res.Stats.ParallelTime < 1.5*pp.Stats.ParallelTime {
		t.Errorf("naive makespan %v not well above pipelined %v",
			res.Stats.ParallelTime, pp.Stats.ParallelTime)
	}
	t.Logf("naive backend %v vs pipelined kernel %v (%.1fx)",
		res.Stats.ParallelTime, pp.Stats.ParallelTime,
		res.Stats.ParallelTime/pp.Stats.ParallelTime)
}

func matmul() *ir.Program { p, _ := ir.Builtin("matmul"); return p }

// TestExecCannon: the matmul IR executes correctly on a 2x2 grid.
func TestExecCannon(t *testing.T) {
	m := 8
	bm := matrix.RandomDense(m, m, 317)
	cm := matrix.RandomDense(m, m, 331)
	p := matmul()
	st := ir.NewStorage(p)
	for i := 1; i <= m; i++ {
		for j := 1; j <= m; j++ {
			st.Store("B", []int{i, j}, bm.At(i-1, j-1))
			st.Store("C", []int{i, j}, cm.At(i-1, j-1))
		}
	}
	ss := wholeProgramSchemes(t, p, m, 4)
	res, err := Run(p, ss, map[string]int{"m": m}, nil, 1, machine.DefaultConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	want := bm.Mul(cm)
	for i := 1; i <= m; i++ {
		for j := 1; j <= m; j++ {
			got := res.Values.Load(ir.R("A", ir.Const(i), ir.Const(j)), []int{i, j})
			if diff := got - want.At(i-1, j-1); diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("A(%d,%d) = %v, want %v", i, j, got, want.At(i-1, j-1))
			}
		}
	}
}

func TestExecValidation(t *testing.T) {
	p := ir.Jacobi()
	ss := wholeProgramSchemes(t, p, 8, 2)
	// Missing scheme.
	ssCopy := &core.SchemeSet{Grid: ss.Grid, Schemes: nil}
	if _, err := Run(p, ssCopy, map[string]int{"m": 8}, nil, 1, machine.DefaultConfig(), ir.NewStorage(p)); err == nil {
		t.Fatal("missing schemes accepted")
	}
	// Statement without RHS but with flops.
	p2 := ir.Jacobi()
	p2.Nests[0].Stmts[1].RHS = nil
	if _, err := Run(p2, ss, map[string]int{"m": 8}, nil, 1, machine.DefaultConfig(), ir.NewStorage(p2)); err == nil {
		t.Fatal("missing RHS accepted")
	}
}
