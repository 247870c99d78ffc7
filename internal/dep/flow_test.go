package dep

import (
	"testing"

	"dmcc/internal/ir"
)

func gaussStmt(t *testing.T, nest *ir.Nest, line int) *ir.Stmt {
	t.Helper()
	for _, st := range nest.Stmts {
		if st.Line == line {
			return st
		}
	}
	t.Fatalf("no statement at line %d", line)
	return nil
}

// TestTable5GeneratedIndices verifies the "generated in index" column of
// Table 5: B(k) read in line 5 was generated at (k-1, k).
func TestTable5GeneratedIndices(t *testing.T) {
	p := ir.Gauss()
	g1, g3 := p.Nests[0], p.Nests[2]

	cases := []struct {
		nest    *ir.Nest
		line    int
		token   ir.Ref
		genIdx  string
		sameIt  bool
		depVect string
	}{
		// B(k) in line 5: generated by line 5 itself at (k-1, k).
		{g1, 5, ir.R("B", ir.V("k")), "(k-1,k)", false, "(1,*)"},
		// B(i) in line 5: the accumulator, from the previous k iteration.
		{g1, 5, ir.R("B", ir.V("i")), "(k-1,i)", false, "(1,0)"},
		// A(k,j) in line 7: the pivot row, updated at (k-1, k, j).
		{g1, 7, ir.R("A", ir.V("k"), ir.V("j")), "(k-1,k,j)", false, "(1,*,0)"},
		// A(i,j) in line 7: the accumulator.
		{g1, 7, ir.R("A", ir.V("i"), ir.V("j")), "(k-1,i,j)", false, "(1,0,0)"},
		// X(j) in line 16: generated by line 14 in the same j iteration.
		{g3, 16, ir.R("X", ir.V("j")), "(j)", true, "(0)"},
		// V(i) in line 16: the accumulator, from the previous j iteration.
		{g3, 16, ir.R("V", ir.V("i")), "(j-1,i)", false, "(1,0)"},
	}
	for _, c := range cases {
		reader := gaussStmt(t, c.nest, c.line)
		prod, err := FindProducer(p, c.nest, reader, c.token)
		if err != nil {
			t.Fatalf("%s line %d: %v", c.token, c.line, err)
		}
		if prod.GenIndex != c.genIdx {
			t.Errorf("%s line %d: generated at %s, want %s", c.token, c.line, prod.GenIndex, c.genIdx)
		}
		if prod.SameIteration != c.sameIt {
			t.Errorf("%s line %d: same-iteration = %v, want %v", c.token, c.line, prod.SameIteration, c.sameIt)
		}
		if v := DependenceVector(c.nest, reader, prod); v != c.depVect {
			t.Errorf("%s line %d: dependence %s, want %s", c.token, c.line, v, c.depVect)
		}
	}
}

func TestFindProducerInput(t *testing.T) {
	// X(j) read in Jacobi L1 is produced in L2 — outside the nest.
	p := ir.Jacobi()
	l1 := p.Nests[0]
	reader := l1.Stmts[1]
	prod, err := FindProducer(p, l1, reader, ir.R("X", ir.V("j")))
	if err != nil {
		t.Fatal(err)
	}
	if prod.Stmt != nil || prod.GenIndex != "(input)" {
		t.Fatalf("producer = %+v", prod)
	}
	if DependenceVector(l1, reader, prod) != "(input)" {
		t.Fatal("input vector")
	}
}

func TestSORProducerOfX(t *testing.T) {
	// X(j) read in SOR's line 5 is written by line 7 of the same nest
	// (later statement): the value comes from an earlier i iteration.
	p := ir.SOR()
	nest := p.Nests[0]
	var reader *ir.Stmt
	for _, st := range nest.Stmts {
		if st.Line == 5 {
			reader = st
		}
	}
	prod, err := FindProducer(p, nest, reader, ir.R("X", ir.V("j")))
	if err != nil {
		t.Fatal(err)
	}
	if prod.SameIteration {
		t.Fatalf("X(j) must be loop-carried in SOR: %+v", prod)
	}
	// Generated at i' = j by line 7 (the defining property of SOR: new X
	// for j < i, old X for j >= i).
	if prod.GenIndex != "(j)" {
		t.Fatalf("gen index = %s", prod.GenIndex)
	}
}
