package ir

import (
	"reflect"
	"strings"
	"testing"

	"dmcc"
	"dmcc/internal/matrix"
)

// listing reads a paper program's embedded listing, testdata/<name>.f.
func listing(t *testing.T, name string) string {
	t.Helper()
	src, err := dmcc.Listings.ReadFile("testdata/" + name + ".f")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// parsedListing parses a builtin's listing and labels its nests as the
// paper does.
func parsedListing(t *testing.T, name string) *Program {
	t.Helper()
	p, err := Parse(listing(t, name))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	labels := map[string][]string{
		"jacobi": {"L1", "L2"}, "sor": {"S1"}, "gauss": {"G1", "G2", "G3"}, "matmul": {"M1"},
	}[name]
	if len(labels) != len(p.Nests) {
		t.Fatalf("%s: %d nests, want %d", name, len(p.Nests), len(labels))
	}
	for k, nest := range p.Nests {
		nest.Label = labels[k]
	}
	return p
}

// TestBuiltinsAreTheirListings: every builtin is its listing, parsed,
// with the paper's nest labels — the listing is its only definition.
func TestBuiltinsAreTheirListings(t *testing.T) {
	for _, name := range BuiltinNames() {
		got, ok := Builtin(name)
		if want := parsedListing(t, name); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Builtin differs from its parsed listing\n got: %s\nwant: %s", name, Print(got), Print(want))
		}
	}
}

// TestBuiltinIsAFreshCopy: editing everything reachable from one Builtin
// result leaves the next one as parsed.
func TestBuiltinIsAFreshCopy(t *testing.T) {
	var scribble func(e Expr)
	scribble = func(e Expr) {
		switch v := e.(type) {
		case RefE:
			v.Ref.Subs[0] = Const(7)
		case NegE:
			scribble(v.E)
		case BinOp:
			scribble(v.L)
			scribble(v.R)
		}
	}
	for _, name := range BuiltinNames() {
		p, _ := Builtin(name)
		p.Name, p.Params[0] = "edited", "q"
		for a, arr := range p.Arrays {
			arr.Extents[0] = Const(1)
			delete(p.Arrays, a)
		}
		for _, nest := range p.Nests {
			nest.Label = "Z9"
			nest.Loops[0].Hi = Const(3)
			for _, st := range nest.Stmts {
				scribble(st.RHS)
				st.RHS = nil
				st.LHS.Subs[0] = Const(7)
				st.Reads = append(st.Reads[:0], R("Q", Const(1)))
				st.Line, st.Text = 0, ""
			}
			nest.Stmts = append(nest.Stmts[:0], &Stmt{Line: 99})
		}
		p.Nests = append(p.Nests[:0], &Nest{Label: "Z1"})
		if got, want := func() *Program { p, _ := Builtin(name); return p }(), parsedListing(t, name); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: an edit reached the next Builtin\n got: %s\nwant: %s", name, Print(got), Print(want))
		}
	}
}

func TestParseSOR(t *testing.T) {
	got, err := Parse(listing(t, "sor"))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Iterative || len(got.Nests) != 1 {
		t.Fatalf("shape: iterative=%v nests=%d", got.Iterative, len(got.Nests))
	}
	nest := got.Nests[0]
	if len(nest.Loops) != 2 || len(nest.Stmts) != 3 {
		t.Fatalf("nest: %d loops, %d stmts", len(nest.Loops), len(nest.Stmts))
	}
	// Line 7 sits at depth 1 (after the inner loop closed at label 6).
	s7 := nest.Stmts[2]
	if s7.Line != 7 || s7.Depth != 1 || s7.Flops != 4 {
		t.Fatalf("line-7 stmt: %+v", s7)
	}
}

func TestParseEnddoStyle(t *testing.T) {
	src := `
PROGRAM simple
PARAM n
REAL Y(n), Z(n)
DO 1 i = 1, n
  Y(i) = Z(i) + 1.0
ENDDO
END
`
	// ENDDO closes the loop; the label on DO is still required syntax.
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nests) != 1 || len(p.Nests[0].Stmts) != 1 {
		t.Fatalf("shape: %+v", p.Nests)
	}
	if p.Nests[0].Stmts[0].Flops != 1 {
		t.Fatalf("flops = %d", p.Nests[0].Stmts[0].Flops)
	}
}

func TestParseIterateKeyword(t *testing.T) {
	src := `
PROGRAM it
PARAM n
REAL Y(n)
ITERATE
DO 1 i = 1, n
  Y(i) = Y(i) * 2.0
1 CONTINUE
END
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Iterative {
		t.Fatal("ITERATE not honoured")
	}
}

func TestParseAffineForms(t *testing.T) {
	src := `
PROGRAM aff
PARAM n
REAL Y(n), Z(2*n)
DO 1 i = 2, n - 1
  Z(2*i) = Y(i - 1) + Y(i + 1)
1 CONTINUE
END
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Nests[0].Stmts[0]
	if st.LHS.Subs[0].CoeffOf("i") != 2 {
		t.Fatalf("LHS subscript: %s", st.LHS.Subs[0])
	}
	if d, ok := st.Reads[0].Subs[0].ConstDiff(st.Reads[1].Subs[0]); !ok || d != -2 {
		t.Fatalf("read subscripts: %s vs %s", st.Reads[0].Subs[0], st.Reads[1].Subs[0])
	}
	// Loop bound n-1.
	if p.Nests[0].Loops[0].Hi.Const != -1 || p.Nests[0].Loops[0].Hi.CoeffOf("n") != 1 {
		t.Fatalf("bound: %s", p.Nests[0].Loops[0].Hi)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no PROGRAM":       "PARAM m\nEND\n",
		"unterminated":     "PROGRAM x\nPARAM m\nREAL Y(m)\nDO 1 i = 1, m\n  Y(i) = 0.0\nEND\n",
		"bad char":         "PROGRAM x\nPARAM m\nREAL Y(m)\nDO 1 i = 1, m\n  Y(i) = 0.0 @\n1 CONTINUE\nEND\n",
		"undeclared array": "PROGRAM x\nPARAM m\nREAL Y(m)\nDO 1 i = 1, m\n  Y(i) = Q(i)\n1 CONTINUE\nEND\n",
		"bad step":         "PROGRAM x\nPARAM m\nREAL Y(m)\nDO 1 i = 1, m, 2\n  Y(i) = 0.0\n1 CONTINUE\nEND\n",
		"dup array":        "PROGRAM x\nPARAM m\nREAL Y(m), Y(m)\nEND\n",
		"missing END":      "PROGRAM x\nPARAM m\nREAL Y(m)\n",
		"stmt outside DO":  "PROGRAM x\nPARAM m\nREAL Y(m)\nY(1) = 0.0\nEND\n",
		"unterminated cmt": "PROGRAM x\nPARAM m { oops\nEND\n",
		"non-affine sub":   "PROGRAM x\nPARAM m\nREAL Y(m), Z(m)\nDO 1 i = 1, m\n  Y(i) = Z(i*i)\n1 CONTINUE\nEND\n",
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestParseSiblingInnerLoopsRejected(t *testing.T) {
	src := `
PROGRAM sib
PARAM n
REAL Y(n), Z(n,n)
DO 9 i = 1, n
  DO 2 j = 1, n
    Y(i) = Y(i) + Z(i,j)
2 CONTINUE
  DO 3 j = 1, n
    Y(i) = Y(i) + Z(j,i)
3 CONTINUE
9 CONTINUE
END
`
	if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "sibling") {
		t.Fatalf("sibling loops not rejected: %v", err)
	}
}

func TestParseCommentsAndCase(t *testing.T) {
	src := `
program mixed   ! trailing comment
param n
real Y(n)
{ a multi
  line comment }
do 1 i = 1, n
  Y(i) = 1.5
1 continue
end
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "mixed" || len(p.Nests) != 1 {
		t.Fatalf("parsed: %+v", p)
	}
}

func TestStripLabel(t *testing.T) {
	if stripLabel("5     V(i) = 0.0") != "V(i) = 0.0" {
		t.Fatal("label not stripped")
	}
	if stripLabel("V(i) = 0.0") != "V(i) = 0.0" {
		t.Fatal("unlabeled changed")
	}
}

// TestParsedProgramExecutes: the RHS trees built by the parser make the
// parsed program executable — interpreting the SOR listing matches the
// hand-written sequential solver exactly.
func TestParsedProgramExecutes(t *testing.T) {
	p, err := Parse(listing(t, "sor"))
	if err != nil {
		t.Fatal(err)
	}
	m, iters, omega := 12, 5, 1.3
	a, b, _ := matrix.DiagonallyDominant(m, 201)
	x0 := make([]float64, m)
	st := NewStorage(p)
	loadSystem(st, a, b, x0)
	if err := EvalProgram(p, map[string]int{"m": m}, st, map[string]float64{"OMEGA": omega}, iters); err != nil {
		t.Fatal(err)
	}
	want := matrix.SORSeq(a, b, x0, omega, iters)
	for i := 1; i <= m; i++ {
		if got := st.Load(R("X", Const(i)), []int{i}); got != want[i-1] {
			t.Fatalf("X(%d) = %v, want %v", i, got, want[i-1])
		}
	}
}

// TestPrintParseRoundTrip: Print output re-parses into a program that
// executes identically, every array element equal.
func TestPrintParseRoundTrip(t *testing.T) {
	const m = 10
	bind := map[string]int{"m": m}
	a, _, _ := matrix.DiagonallyDominant(m, 501)
	for _, orig := range builtinPrograms() {
		src := Print(orig)
		got, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: reparse failed: %v\n%s", orig.Name, err, src)
		}
		if len(got.Nests) != len(orig.Nests) || got.Iterative != orig.Iterative {
			t.Fatalf("%s: %d nests, iterative %v after round trip; want %d, %v",
				orig.Name, len(got.Nests), got.Iterative, len(orig.Nests), orig.Iterative)
		}
		// Execute both on the same inputs, every array seeded from a.
		run := func(p *Program) Storage {
			lw, err := p.Lower(bind)
			if err != nil {
				t.Fatal(err)
			}
			st := NewStorage(p)
			for k, name := range lw.Names {
				shape := lw.Shapes[k]
				for i := 1; i <= shape[0]; i++ {
					if len(shape) == 1 {
						st.Store(name, []int{i}, a.At(k, i-1))
					}
					for j := 1; len(shape) == 2 && j <= shape[1]; j++ {
						st.Store(name, []int{i, j}, a.At((k+i)%m, j-1))
					}
				}
			}
			if err := EvalProgram(p, bind, st, map[string]float64{"OMEGA": 1.2}, 3); err != nil {
				t.Fatal(err)
			}
			return st
		}
		if s1, s2 := run(orig), run(got); !reflect.DeepEqual(s1, s2) {
			t.Fatalf("%s: arrays differ after round trip", orig.Name)
		}
	}
}
