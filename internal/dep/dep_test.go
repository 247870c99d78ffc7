package dep

import (
	"testing"

	"dmcc/internal/ir"
)

// gaussDistDims is the Section 6 distribution: every array partitioned
// (cyclically) along its first dimension.
func gaussDistDims() map[string]int {
	return map[string]int{"A": 0, "L": 0, "V": 0, "B": 0, "X": 0}
}

func gaussMappings(t *testing.T) (*ir.Program, Mapping, Mapping) {
	t.Helper()
	p := ir.Gauss()
	mu1, err := DeriveMapping(p, p.Nests[0], gaussDistDims())
	if err != nil {
		t.Fatal(err)
	}
	mu3, err := DeriveMapping(p, p.Nests[2], gaussDistDims())
	if err != nil {
		t.Fatal(err)
	}
	return p, mu1, mu3
}

func TestDeriveMappingGauss(t *testing.T) {
	_, mu1, mu3 := gaussMappings(t)
	// Section 6: "we want to map index (k,i)^t to be executed in the
	// virtual processor i": mu is the coefficient vector of i.
	if mu1.String() != "1*i" {
		t.Fatalf("G1 mapping = %v", mu1)
	}
	if mu3.String() != "1*i" {
		t.Fatalf("G3 mapping = %v", mu3)
	}
	if got := mu1.MuVector([]string{"k", "i", "j"}); got[0] != 0 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("mu vector = %v", got)
	}
}

func findToken(tokens []Token, ref string, line int) *Token {
	for i := range tokens {
		if tokens[i].Ref.String() == ref && tokens[i].Line == line {
			return &tokens[i]
		}
	}
	return nil
}

// TestTable5Dependence verifies every row of Table 5.
func TestTable5Dependence(t *testing.T) {
	p, mu1, mu3 := gaussMappings(t)
	g1 := Analyze(p, p.Nests[0], mu1)
	g3 := Analyze(p, p.Nests[2], mu3)

	rows := []struct {
		tokens    []Token
		ref       string
		line      int
		usedIn    string
		muDotD    []int
		class     Class
		usedInPEs string
	}{
		{g1, "B(i)", 5, "(0,i)+k(1,0)", []int{0}, Local, "(i-1) mod N"},
		{g1, "B(k)", 5, "(k,0)+i(0,1)", []int{1}, Pipeline, "all PEs"},
		{g1, "A(i,j)", 7, "(0,i,j)+k(1,0,0)", []int{0}, Local, "(i-1) mod N"},
		{g1, "L(i,k)", 7, "(k,i,0)+j(0,0,1)", []int{0}, Local, "(i-1) mod N"},
		{g1, "A(k,j)", 7, "(k,0,j)+i(0,1,0)", []int{1}, Pipeline, "all PEs"},
		{g3, "V(i)", 16, "(0,i)+j(1,0)", []int{0}, Local, "(i-1) mod N"},
		{g3, "X(j)", 16, "(j,0)+i(0,1)", []int{1}, Pipeline, "all PEs"},
	}
	for _, row := range rows {
		tok := findToken(row.tokens, row.ref, row.line)
		if tok == nil {
			t.Errorf("token %s line %d not found", row.ref, row.line)
			continue
		}
		if tok.UsedIn() != row.usedIn {
			t.Errorf("%s line %d: used-in %q, want %q", row.ref, row.line, tok.UsedIn(), row.usedIn)
		}
		if len(tok.MuDotD) != len(row.muDotD) {
			t.Errorf("%s line %d: mu.d = %v, want %v", row.ref, row.line, tok.MuDotD, row.muDotD)
		} else {
			for i := range row.muDotD {
				if tok.MuDotD[i] != row.muDotD[i] {
					t.Errorf("%s line %d: mu.d[%d] = %d, want %d", row.ref, row.line, i, tok.MuDotD[i], row.muDotD[i])
				}
			}
		}
		if tok.Class != row.class {
			t.Errorf("%s line %d: class %v, want %v", row.ref, row.line, tok.Class, row.class)
		}
		if tok.UsedInPEs() != row.usedInPEs {
			t.Errorf("%s line %d: used-in-PEs %q, want %q", row.ref, row.line, tok.UsedInPEs(), row.usedInPEs)
		}
	}
}

func TestPivotRowTokensArePipelinable(t *testing.T) {
	// A(k,k) in line 4 is part of the travelling pivot row: it must be
	// classified Pipeline, matching the Apipeline buffer of Fig 8.
	p, mu1, _ := gaussMappings(t)
	g1 := Analyze(p, p.Nests[0], mu1)
	tok := findToken(g1, "A(k,k)", 4)
	if tok == nil {
		t.Fatal("A(k,k) not analysed")
	}
	if tok.Class != Pipeline {
		t.Fatalf("A(k,k) class = %v", tok.Class)
	}
}

func TestDecidePipeliningGauss(t *testing.T) {
	p, mu1, mu3 := gaussMappings(t)
	d1 := DecidePipelining(p, p.Nests[0], mu1)
	if !d1.CanPipeline {
		t.Fatal("G1 must be pipelinable")
	}
	// Travelling tokens of G1: the pivot row A(k,*), A(k,k), A(i,k)?,
	// B(k). A(i,k) anchors both loops -> local; expect B(k), A(k,k),
	// A(k,j) among travellers.
	names := map[string]bool{}
	for _, r := range d1.TravellingTokens {
		names[r.String()] = true
	}
	for _, want := range []string{"B(k)", "A(k,k)", "A(k,j)"} {
		if !names[want] {
			t.Errorf("traveller %s missing (got %v)", want, names)
		}
	}
	if names["A(i,j)"] || names["L(i,k)"] {
		t.Errorf("local token classified travelling: %v", names)
	}
	d3 := DecidePipelining(p, p.Nests[2], mu3)
	if !d3.CanPipeline {
		t.Fatal("G3 must be pipelinable")
	}
}

func TestSORPipelinable(t *testing.T) {
	// Section 5: with column distribution, the iteration (i,j) executes
	// where A(.,j)/X(j) live, i.e. mapping mu = j. The accumulator V(i)
	// then travels one processor per j step: pipeline.
	p := ir.SOR()
	mu := Mapping{Nest: "S1", Terms: ir.V("j").Terms}
	toks := Analyze(p, p.Nests[0], mu)
	v := findToken(toks, "V(i)", 5)
	if v == nil || v.Class != Pipeline {
		t.Fatalf("V(i) = %+v", v)
	}
	x := findToken(toks, "X(j)", 5)
	if x == nil || x.Class != Local {
		t.Fatalf("X(j) = %+v", x)
	}
	dec := DecidePipelining(p, p.Nests[0], mu)
	if !dec.CanPipeline {
		t.Fatal("SOR must be pipelinable under column mapping")
	}
}

func TestMultiHopClassification(t *testing.T) {
	// A synthetic mapping with coefficient 2 makes the reuse jump two
	// processors per step: MultiHop, not pipelinable.
	p := ir.SOR()
	mu := Mapping{Nest: "S1", Terms: ir.NewAffine(0, ir.Term{Var: "j", Coeff: 2}).Terms}
	dec := DecidePipelining(p, p.Nests[0], mu)
	if dec.CanPipeline {
		t.Fatal("coefficient-2 mapping must not be pipelinable")
	}
	v := findToken(dec.Tokens, "V(i)", 5)
	if v.Class != MultiHop {
		t.Fatalf("V(i) class = %v", v.Class)
	}
}

func TestNegativeUnitIsPipeline(t *testing.T) {
	p := ir.SOR()
	mu := Mapping{Nest: "S1", Terms: ir.NewAffine(0, ir.Term{Var: "j", Coeff: -1}).Terms}
	toks := Analyze(p, p.Nests[0], mu)
	v := findToken(toks, "V(i)", 5)
	if v.Class != Pipeline {
		t.Fatalf("V(i) with mu=-1 class = %v", v.Class)
	}
}

func TestDeriveMappingErrors(t *testing.T) {
	p := ir.Gauss()
	// All arrays replicated: no distributed LHS.
	if _, err := DeriveMapping(p, p.Nests[0], map[string]int{}); err == nil {
		t.Fatal("expected error for no distributed LHS")
	}
	if _, err := DeriveMapping(p, p.Nests[0], map[string]int{"A": -1, "L": -1, "B": -1}); err == nil {
		t.Fatal("expected error for replicated-only LHS")
	}
}

func TestAnalyzeJacobiL1(t *testing.T) {
	// Row distribution of Jacobi L1 (mu = i): X(j) is reused over i and
	// travels; A(i,j) is local.
	p := ir.Jacobi()
	mu := Mapping{Nest: "L1", Terms: ir.V("i").Terms}
	toks := Analyze(p, p.Nests[0], mu)
	x := findToken(toks, "X(j)", 5)
	if x == nil || x.Class != Pipeline {
		t.Fatalf("X(j) = %+v", x)
	}
	a := findToken(toks, "A(i,j)", 5)
	if a == nil || a.Class != Local {
		t.Fatalf("A(i,j) = %+v", a)
	}
	if a.UsedIn() != "(i,j)" {
		t.Fatalf("A(i,j) used-in = %q", a.UsedIn())
	}
}

func TestMappingString(t *testing.T) {
	m := Mapping{Terms: ir.V("i").Terms}
	if m.String() != "1*i" {
		t.Fatalf("String = %q", m.String())
	}
	empty := Mapping{}
	if empty.String() != "0" {
		t.Fatalf("empty String = %q", empty.String())
	}
}

// TestMappingStringIsDeterministic: a mapping over two indices prints its
// terms in index order every time (it printed 1*j+1*i in some runs while
// it followed a map's order).
func TestMappingStringIsDeterministic(t *testing.T) {
	const src = "PROGRAM two\nPARAM m\nREAL A(2*m), B(m,m)\nDO 2 i = 1, m\nDO 2 j = 1, m\n1 A(i+j-1) = B(i,j) * 2.0\n2 CONTINUE\nEND\n"
	for range 100 {
		p, err := ir.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		mu, err := DeriveMapping(p, p.Nests[0], map[string]int{"A": 0, "B": 0})
		if err != nil {
			t.Fatal(err)
		}
		if mu.String() != "1*i+1*j" {
			t.Fatalf("mapping = %s, want 1*i+1*j", mu)
		}
	}
}

func TestClassString(t *testing.T) {
	if Local.String() != "local" || Pipeline.String() != "pipeline" || MultiHop.String() != "multi-hop" {
		t.Fatal("Class.String wrong")
	}
}
