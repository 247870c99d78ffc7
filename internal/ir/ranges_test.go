package ir_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmcc/internal/ir"
)

// vec wraps loop headers and one statement into a program over 1-D
// arrays A(m), B(m).
func vec(loops, stmt string) string {
	return "PROGRAM t\nPARAM m\nREAL A(m), B(m)\n" + loops + "\n7   " + stmt + "\n9 CONTINUE\nEND\n"
}

// checkRanges lowers p under bind and checks its ranges at that size, the
// front door every consumer of a lowering passes.
func checkRanges(p *ir.Program, bind map[string]int) error {
	lw, err := p.Lower(bind)
	if err != nil {
		return err
	}
	return lw.RangeAt(lw.Size())
}

// wide is vec with B(2*m-1).
func wide(loops, stmt string) string {
	return strings.Replace(vec(loops, stmt), "B(m)", "B(2*m-1)", 1)
}

func TestCheckRanges(t *testing.T) {
	const tri = "DO 9 k = 1, m\n  DO 9 i = k + 1, m"
	for _, c := range []struct {
		name string
		src  string
		m    int
		want string // "" = in range; else what the *RangeError must say
	}{
		{"the ROADMAP repro", vec("DO 9 i = 1, m", "A(i) = B(i+5)"), 8,
			"L1 line 7: subscript i+5 of B(i+5) ranges over [6, 13], outside the declared [1, 8]"},
		{"below the extent", vec("DO 9 i = 1, m", "A(i) = B(i-1)"), 8, "B(i-1) ranges over [0, 7]"},
		{"the written side", vec("DO 9 i = 1, m", "A(i+1) = B(i)"), 8, "A(i+1) ranges over [2, 9]"},
		{"in range", vec("DO 9 i = 2, m - 1", "A(i) = B(i-1) + B(i+1)"), 8, ""},
		{"mirrored", vec("DO 9 i = 1, m", "A(i) = B(m+1-i)"), 8, ""},
		{"down loop", vec("DO 9 i = m, 1, -1", "A(i) = B(i)"), 8, ""},
		{"down loop, below", vec("DO 9 i = m, 1, -1", "A(i) = B(i-1)"), 8, "B(i-1) ranges over [0, 7]"},
		// i-k is 1..m-1 on the triangle; index by index it would be 2-m..m-1.
		{"triangular bound, correlated subscript", vec(tri, "A(i) = B(i-k)"), 8, ""},
		{"triangular bound, outside", vec(tri, "A(i) = B(i-k+m)"), 8, "B(i-k+m) ranges over [9, 15]"},
		{"triangular bound, inner index below the outer", vec("DO 9 k = 1, m\n  DO 9 i = 1, k - 1", "A(k) = B(k-i)"), 8, ""},
		{"a loop that never runs", vec("DO 9 i = 5, 4", "A(i+100) = B(i)"), 8, ""},
		{"an inner loop that never runs at m = 1", vec(tri, "A(i) = B(i)"), 1, ""},
		// At k = m the i loop is empty: the clipped k runs to m-1, so i+k
		// reaches 2m-1 = 15, not 16.
		{"triangular bound, the outer loop clipped", wide(tri, "A(k) = B(i+k)"), 8, ""},
		{"triangular bound, clipped and still outside", wide(tri, "A(k) = B(i+k+1)"), 8, "B(i+k+1) ranges over [4, 16]"},
		{"a down loop clipped from below", wide("DO 9 k = m, 1, -1\n  DO 9 i = m, k + 1, -1", "A(k) = B(i+k)"), 8, ""},
		// At k = 1, DO i = 1, k-1 runs nothing: k starts at 2.
		{"the outer loop clipped from below", vec("DO 9 k = 1, m\n  DO 9 i = 1, k - 1", "A(i) = B(k-1)"), 8, ""},
		{"clipped from below and still outside", vec("DO 9 k = 1, m\n  DO 9 i = 1, k - 1", "A(i) = B(k-2)"), 8, "B(k-2) ranges over [0, 6]"},
		// DO i = k, j runs iff k <= j: no clip reads one outer loop alone.
		{"an inner loop bounded by two outer loops", vec("DO 9 k = 1, m\n  DO 9 j = 1, m\n    DO 9 i = k, j", "A(i) = B(k+5)"), 8, "B(k+5) ranges over [6, 13]"},
		{"clipped from below by a down loop", vec("DO 9 k = 1, m\n  DO 9 i = k - 1, 1, -1", "A(i) = B(k-1)"), 8, ""},
	} {
		p, err := ir.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v\n%s", c.name, err, c.src)
		}
		err = checkRanges(p, map[string]int{"m": c.m})
		var re *ir.RangeError
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.want != "" && !errors.As(err, &re):
			t.Errorf("%s: got %v, want a *RangeError saying %q", c.name, err, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: got %q, want it to say %q", c.name, err, c.want)
		}
	}
}

// Everything the tree ships is in range at every size, degenerate ones
// included, and a binding that leaves a parameter out is an error naming
// where it is needed — not the panic Affine.Eval would raise.
func TestCheckRangesAcceptsTheTree(t *testing.T) {
	progs := []*ir.Program{ir.Jacobi(), ir.SOR(), ir.Gauss(), ir.Stencil(), ir.Synthetic(4), ir.Synthetic(32)}
	files, err := filepath.Glob("../../testdata/*.f")
	if err != nil || len(files) < 3 {
		t.Fatalf("testdata/*.f: %v, %v", files, err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		progs = append(progs, p)
	}
	for _, p := range progs {
		for _, m := range []int{1, 2, 3, 8, 64, 1 << 20} {
			if err := checkRanges(p, map[string]int{"m": m}); err != nil {
				t.Errorf("%s at m=%d: %v", p.Name, m, err)
			}
		}
		if err := checkRanges(p, nil); err == nil || !strings.Contains(err.Error(), `unbound variable "m"`) {
			t.Errorf("%s with no binding: %v", p.Name, err)
		}
	}
}
