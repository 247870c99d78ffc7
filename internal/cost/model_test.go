package cost

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 17: 5}
	for n, want := range cases {
		if got := Log2Ceil(n); got != want {
			t.Errorf("Log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestTable1PrimitiveCosts(t *testing.T) {
	c := Model{Tf: 1, Tc: 2}
	if c.Transfer(10) != 20 || c.Shift(10) != 20 {
		t.Error("O(m) primitives wrong")
	}
	if c.OneToManyMulticast(10, 8) != 60 { // 10*3*2
		t.Errorf("OneToMany = %v", c.OneToManyMulticast(10, 8))
	}
	if c.Reduction(10, 8) != 60 || c.AffineTransform(10, 8) != 60 {
		t.Error("O(m log num) primitives wrong")
	}
	if c.Scatter(10, 8) != 160 || c.Gather(10, 8) != 160 || c.ManyToManyMulticast(10, 8) != 160 {
		t.Error("O(m num) primitives wrong")
	}
	// Degenerate single-processor collectives are free.
	if c.OneToManyMulticast(10, 1) != 0 || c.Reduction(10, 1) != 0 {
		t.Error("single-processor collectives must cost 0")
	}
}

// TestTable2JacobiGrids reproduces Table 2: computation and communication
// time of a Jacobi iteration on the three grids, for m=1024, N=16.
func TestTable2JacobiGrids(t *testing.T) {
	c := Unit()
	m, n := 1024, 16
	rows := c.Table2(m, n)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	logN := float64(Log2Ceil(n))

	// Row 1: N1=1, N2=N: comp (2m^2/N + 3m/N), comm 2m logN.
	r := rows[0]
	wantComp := 2*float64(m*m)/float64(n) + 3*float64(m)/float64(n)
	if math.Abs(r.Comp-wantComp) > 1e-9 {
		t.Errorf("row1 comp = %v, want %v", r.Comp, wantComp)
	}
	if math.Abs(r.Comm-2*float64(m)*logN) > 1e-9 {
		t.Errorf("row1 comm = %v, want %v", r.Comm, 2*float64(m)*logN)
	}

	// Row 2: N1=N, N2=1: comp (2m^2/N + 3m), comm (m + m logN).
	r = rows[1]
	wantComp = 2*float64(m*m)/float64(n) + 3*float64(m)
	if math.Abs(r.Comp-wantComp) > 1e-9 {
		t.Errorf("row2 comp = %v, want %v", r.Comp, wantComp)
	}
	if math.Abs(r.Comm-(float64(m)+float64(m)*logN)) > 1e-9 {
		t.Errorf("row2 comm = %v, want %v", r.Comm, float64(m)+float64(m)*logN)
	}

	// Row 3: sqrt(N) x sqrt(N): comp (2m^2/N + 3m/sqrt(N)).
	r = rows[2]
	rt := 4
	wantComp = 2*float64(m*m)/float64(n) + 3*float64(m)/float64(rt)
	if math.Abs(r.Comp-wantComp) > 1e-9 {
		t.Errorf("row3 comp = %v, want %v", r.Comp, wantComp)
	}

	// The paper's observation: row 1 has the best computation time but
	// worse communication than row 2.
	if !(rows[0].Comp < rows[1].Comp && rows[0].Comp < rows[2].Comp) {
		t.Error("row 1 must have the best computation time")
	}
	if !(rows[0].Comm > rows[1].Comm) {
		t.Error("row 1 must have worse communication than row 2")
	}
}

func TestTable2SkipsNonSquare(t *testing.T) {
	c := Unit()
	rows := c.Table2(64, 6)
	if len(rows) != 2 {
		t.Fatalf("rows = %d for N=6", len(rows))
	}
}

// TestSection4DPBeatsSection3: the DP scheme's per-iteration time
// (2m^2/N + 3m/N)tf + m tc must beat all three Table 2 variants.
func TestSection4DPBeatsSection3(t *testing.T) {
	c := Unit()
	for _, mn := range [][2]int{{256, 4}, {1024, 16}, {4096, 64}} {
		m, n := mn[0], mn[1]
		dp := c.JacobiDPIteration(m, n)
		wantComp := (2*float64(m*m)/float64(n) + 3*float64(m)/float64(n))
		if math.Abs(dp.Comp-wantComp) > 1e-9 {
			t.Errorf("m=%d N=%d: DP comp = %v, want %v", m, n, dp.Comp, wantComp)
		}
		if math.Abs(dp.Comm-float64(m)) > 1e-9 {
			t.Errorf("m=%d N=%d: DP comm = %v, want m=%d", m, n, dp.Comm, m)
		}
		for _, row := range c.Table2(m, n) {
			if dp.Total() >= row.Total() {
				t.Errorf("m=%d N=%d: DP total %v not better than %dx%d total %v",
					m, n, dp.Total(), row.N1, row.N2, row.Total())
			}
		}
	}
}

// TestSection5SORFormulas checks the naive and pipelined SOR iteration
// times and the paper's claim that pipelining wins for large m.
func TestSection5SORFormulas(t *testing.T) {
	c := Unit()
	m, n := 1024, 16
	naive := c.SORNaiveIteration(m, n)
	wantComp := 2*float64(m*m)/float64(n) + 4*float64(m)
	if math.Abs(naive.Comp-wantComp) > 1e-9 {
		t.Errorf("naive comp = %v, want %v", naive.Comp, wantComp)
	}
	logN := float64(Log2Ceil(n))
	if math.Abs(naive.Comm-float64(m)*(logN+1)) > 1e-9 {
		t.Errorf("naive comm = %v, want %v", naive.Comm, float64(m)*(logN+1))
	}
	pip := c.SORPipelinedIteration(m, n)
	wantPipComp := (2*float64(m*m)/float64(n) + 2*float64(m))
	if math.Abs(pip.Comp-wantPipComp) > 1e-9 {
		t.Errorf("pipelined comp = %v, want %v", pip.Comp, wantPipComp)
	}
	if math.Abs(pip.Comm-2*float64(m+n)) > 1e-9 {
		t.Errorf("pipelined comm = %v, want %v", pip.Comm, 2*float64(m+n))
	}
	if pip.Total() >= naive.Total() {
		t.Errorf("pipelined %v must beat naive %v at m=%d", pip.Total(), naive.Total(), m)
	}
}

// Property: pipelined SOR beats naive whenever m >= N >= 2 and tc
// dominates or equals tf (the regime the paper discusses); both formulas
// are monotone in m.
func TestSORPipelinedWinsQuick(t *testing.T) {
	f := func(mRaw, nRaw uint8) bool {
		n := 2 << (uint(nRaw) % 5) // 2..32
		m := n * (int(mRaw)%64 + 2)
		c := Unit()
		return c.SORPipelinedIteration(m, n).Total() < c.SORNaiveIteration(m, n).Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{Comp: 3, Comm: 4}
	if b.Total() != 7 {
		t.Fatal("Total wrong")
	}
}

// evalSymbolic evaluates a symbolic formula at concrete m, N under the
// model: the numeric value its tests hold it to.
func evalSymbolic(f SymbolicFormula, c Model, m, n int) float64 {
	total := 0.0
	logN := float64(Log2Ceil(n))
	for _, t := range f {
		v := t.Coef
		for i := 0; i < t.MPow; i++ {
			v *= float64(m)
		}
		for i := 0; i < t.NDiv; i++ {
			v /= float64(n)
		}
		for i := 0; i < t.LogPow; i++ {
			v *= logN
		}
		if t.Flop {
			v *= c.Tf
		} else {
			v *= c.Tc
		}
		total += v
	}
	return total
}

func TestSymbolicFormulasMatchNumeric(t *testing.T) {
	c := Unit()
	for _, mn := range [][2]int{{64, 4}, {256, 16}, {1024, 64}} {
		m, n := mn[0], mn[1]
		if got, want := evalSymbolic(SymbolicJacobiRow1(), c, m, n), c.JacobiIteration(m, 1, n).Total(); math.Abs(got-want) > 1e-9 {
			t.Errorf("row1 m=%d n=%d: symbolic %v != numeric %v", m, n, got, want)
		}
		if got, want := evalSymbolic(SymbolicJacobiRow2(), c, m, n), c.JacobiIteration(m, n, 1).Total(); math.Abs(got-want) > 1e-9 {
			t.Errorf("row2 m=%d n=%d: symbolic %v != numeric %v", m, n, got, want)
		}
		if got, want := evalSymbolic(SymbolicJacobiDP(), c, m, n), c.JacobiDPIteration(m, n).Total(); math.Abs(got-want) > 1e-9 {
			t.Errorf("dp m=%d n=%d: symbolic %v != numeric %v", m, n, got, want)
		}
		if got, want := evalSymbolic(SymbolicSORNaive(), c, m, n), c.SORNaiveIteration(m, n).Total(); math.Abs(got-want) > 1e-9 {
			t.Errorf("sor naive m=%d n=%d: symbolic %v != numeric %v", m, n, got, want)
		}
		// Pipelined: symbolic omits the 2N tc tail.
		want := c.SORPipelinedIteration(m, n).Total() - 2*float64(n)
		if got := evalSymbolic(SymbolicSORPipelined(), c, m, n); math.Abs(got-want) > 1e-9 {
			t.Errorf("sor pipelined m=%d n=%d: symbolic %v != numeric-2N %v", m, n, got, want)
		}
	}
}

func TestSymbolicStrings(t *testing.T) {
	cases := map[string]SymbolicFormula{
		"2*m^2/N*tf + 3*m/N*tf + m*tc": SymbolicJacobiDP(),
		"0":                            {},
	}
	for want, f := range cases {
		if got := f.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
	if s := SymbolicJacobiRow1().String(); !strings.Contains(s, "logN*tc") {
		t.Errorf("row1 string missing log term: %s", s)
	}
	one := SymbolicTerm{Coef: 2, Flop: false}
	if one.String() != "2*tc" {
		t.Errorf("constant term = %q", one.String())
	}
}
