package ir_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dmcc/internal/ir"
)

// TestLowerShapes: Lower evaluates every extent under the binding, in
// array-name order, and refuses — naming the array and the extent — one
// it cannot evaluate or that is below 1. A zero extent used to pass
// exec (which refused only negative ones) while core and cost refused it.
func TestLowerShapes(t *testing.T) {
	lw, err := ir.Gauss().Lower(map[string]int{"m": 5})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"A", "B", "L", "V", "X"}; !reflect.DeepEqual(lw.Names, want) {
		t.Errorf("Names = %v, want %v", lw.Names, want)
	}
	if want := [][]int{{5, 5}, {5}, {5, 5}, {5}, {5}}; !reflect.DeepEqual(lw.Shapes, want) {
		t.Errorf("Shapes = %v, want %v", lw.Shapes, want)
	}
	if a := lw.Array("L"); a != 2 || lw.Array("Z") != -1 {
		t.Errorf("Array(L) = %d, Array(Z) = %d", a, lw.Array("Z"))
	}
	for _, c := range []struct {
		decl string
		m    int
		want string // "" = lowers
	}{
		{"A(m), B(m-1)", 2, ""},
		{"A(m), B(m-1)", 1, "ir: array B: extent m-1 is 0, below 1"},
		{"A(m), B(m-3)", 1, "ir: array B: extent m-3 is -2, below 1"},
		{"A(m), B(q)", 4, `ir: array B: unbound variable "q" in extent q`},
		{"A(m), B(40)", 4, ""},
	} {
		p, err := ir.Parse("PROGRAM t\nPARAM m\nREAL " + c.decl + "\nDO 9 i = 1, 1\n7   A(i) = B(i)\n9 CONTINUE\nEND\n")
		if err != nil {
			t.Fatal(err)
		}
		_, err = p.Lower(map[string]int{"m": c.m})
		if got := errText(err); got != c.want {
			t.Errorf("REAL %s at m=%d: Lower error %q, want %q", c.decl, c.m, got, c.want)
		}
		if cr := errText(checkRanges(p, map[string]int{"m": c.m})); cr != c.want {
			t.Errorf("REAL %s at m=%d: CheckRanges error %q, want Lower's %q", c.decl, c.m, cr, c.want)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestLowerErrors: what Validate would refuse, and variables the binding
// leaves unbound, are errors from Lower naming where they occur, never a
// panic.
func TestLowerErrors(t *testing.T) {
	bind := map[string]int{"m": 8}
	for _, c := range []struct {
		name   string
		mutate func(p *ir.Program)
		want   string
	}{
		{"undeclared array", func(p *ir.Program) { p.Nests[0].Stmts[0].LHS = ir.R("Z", ir.V("i")) },
			`ir: L1 line 3 references undeclared array "Z"`},
		{"rank mismatch", func(p *ir.Program) { p.Nests[0].Stmts[0].LHS = ir.R("A", ir.V("i")) },
			"ir: L1 line 3: A(i) has 1 subscripts, array is 2-D"},
		{"depth outside the nest", func(p *ir.Program) { p.Nests[0].Stmts[0].Depth = 3 },
			"ir: L1 stmt line 3 depth 3 outside nest of 2 loops"},
		{"unbound variable in a bound", func(p *ir.Program) { p.Nests[0].Loops[1].Hi = ir.V("q") },
			`ir: L1 loop j: unbound variable "q" in bound q`},
		{"inner index in a bound", func(p *ir.Program) { p.Nests[0].Loops[0].Hi = ir.V("j") },
			`ir: L1 loop i: unbound variable "j" in bound j`},
		{"index out of scope", func(p *ir.Program) { p.Nests[0].Stmts[0].LHS = ir.R("V", ir.V("j")) },
			`ir: L1 line 3: unbound variable "j" in V(j)`},
		{"least of two unbound variables", func(p *ir.Program) {
			p.Nests[1].Stmts[0].LHS = ir.R("X", ir.V("z").Plus(ir.V("y")).Plus(ir.V("i")))
		}, `ir: L2 line 8: unbound variable "y" in X(i+y+z)`},
	} {
		p := ir.Jacobi()
		c.mutate(p)
		if _, err := p.Lower(bind); errText(err) != c.want {
			t.Errorf("%s: Lower error %q, want %q", c.name, errText(err), c.want)
		}
	}
}

// TestValidateErrors: a loop's index is its own — Validate refuses one
// that names a size parameter or repeats an enclosing loop's index, naming
// the nest, the loop and the clash. Both used to validate: the first
// compiled with the parameter's value clobbered by the loop's (a panic
// inside pricing, a 500 from the daemon), and the reference walkers
// deleted the parameter with the loop index.
func TestValidateErrors(t *testing.T) {
	for _, c := range []struct {
		name, src, want string
	}{
		{"loop index is the size parameter",
			"PROGRAM t\nPARAM m\nREAL A(m), B(m)\nDO 6 i = 1, 2\nDO 4 m = 1, 2\n3 A(i+m) = B(i)\n4 CONTINUE\n5 B(i+m) = A(i)\n6 CONTINUE\nEND\n",
			"ir: L1 loop m at depth 2: its index is the size parameter m"},
		{"loop index is a second size parameter",
			"PROGRAM t\nPARAM m, n\nREAL A(m), B(n)\nDO 4 n = 1, m\n3 A(n) = 1.0\n4 CONTINUE\nDO 6 i = 1, n\n5 B(i) = 2.0\n6 CONTINUE\nEND\n",
			"ir: L1 loop n at depth 1: its index is the size parameter n"},
		{"loop index repeats an enclosing loop's",
			"PROGRAM t\nPARAM m\nREAL A(m), B(m)\nDO 6 i = 1, m\nDO 4 i = 1, m\n3 A(i) = B(i)\n4 CONTINUE\n6 CONTINUE\nEND\n",
			"ir: L1 loop i at depth 2: its index is the index of the enclosing loop at depth 1"},
	} {
		_, err := ir.Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error saying %q", c.name, err, c.want)
		}
	}
	// The same loops in separate nests, and an index that is a parameter's
	// name nowhere, are fine.
	if _, err := ir.Parse("PROGRAM t\nPARAM m\nREAL A(m)\nDO 4 i = 1, m\n3 A(i) = 1.0\n4 CONTINUE\nDO 6 i = 1, m\n5 A(i) = 2.0\n6 CONTINUE\nEND\n"); err != nil {
		t.Errorf("two nests over i: %v", err)
	}
}

// TestStmtAnchor: a reduction anchors on the read of another array with
// the most distinct subscript variables, the first on a tie, and has no
// anchor when it reads only its own array.
func TestStmtAnchor(t *testing.T) {
	jac := ir.Jacobi().Nests[0].Stmts[1] // V(i) = V(i) + A(i,j) * X(j)
	if a := jac.Anchor(); a != 1 {
		t.Errorf("jacobi line 5 anchors on read %d, want 1 (A(i,j))", a)
	}
	tie := &ir.Stmt{LHS: ir.R("V", ir.V("i")), Reads: []ir.Ref{ir.R("V", ir.V("i")), ir.R("X", ir.V("j")), ir.R("Y", ir.V("k"))}}
	if a := tie.Anchor(); a != 1 {
		t.Errorf("tie anchors on read %d, want the first, 1", a)
	}
	own := &ir.Stmt{LHS: ir.R("V", ir.V("i")), Reads: []ir.Ref{ir.R("V", ir.V("i"))}}
	if a := own.Anchor(); a != -1 {
		t.Errorf("a read of the accumulator alone anchors on %d, want -1", a)
	}
}

// TestParseKeyMalformed: ParseKey refuses what Key does not write — stray
// bytes, empty components, signs and leading zeros — instead of folding
// them into the subscripts ("1x2" used to parse).
func TestParseKeyMalformed(t *testing.T) {
	for _, key := range []string{"1x2", "a!1", " 1", "1,", ",1", "1,,2", "--3", "+5", "007", "1.5", "-0"} {
		if idx, ok := ir.ParseKey(nil, key); ok {
			t.Errorf("ParseKey(%q) accepted a malformed key as %v", key, idx)
		}
	}
}

// TestKeyRoundTripProperty: Key and ParseKey are inverse on random
// subscript vectors, appending to the buffer they are given.
func TestKeyRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		idx := make([]int, 1+rng.Intn(3))
		for i := range idx {
			idx[i] = rng.Intn(2001) - 1000
		}
		key := ir.Key(idx)
		got, ok := ir.ParseKey([]int{7}, key)
		if !ok || !reflect.DeepEqual(got[1:], idx) || got[0] != 7 || ir.Key(got[1:]) != key {
			t.Fatalf("ParseKey([7], Key(%v) = %q) = %v, %v", idx, key, got, ok)
		}
	}
}

// TestBuiltin: the tools' program names resolve to the paper programs, and
// nothing else resolves.
func TestBuiltin(t *testing.T) {
	names := ir.BuiltinNames()
	if !reflect.DeepEqual(names, []string{"jacobi", "sor", "gauss", "matmul"}) {
		t.Errorf("BuiltinNames = %v", names)
	}
	for _, name := range names {
		p, ok := ir.Builtin(name)
		if !ok || p.Name != name || p.Validate() != nil {
			t.Errorf("Builtin(%q) = %v, %v", name, p, ok)
		}
	}
	if p, ok := ir.Builtin("stencil"); ok || p != nil {
		t.Errorf("Builtin(stencil) = %v, %v; the tools do not name it", p, ok)
	}
}
