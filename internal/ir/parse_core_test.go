package ir_test

import (
	"testing"

	"dmcc"
	"dmcc/internal/core"
	"dmcc/internal/ir"
)

func TestParseGauss(t *testing.T) {
	src, err := dmcc.Listings.ReadFile("testdata/gauss.f")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterative {
		t.Fatal("gauss must not be iterative")
	}
	if len(got.Nests) != 3 {
		t.Fatalf("nests = %d", len(got.Nests))
	}
	g1 := got.Nests[0]
	if len(g1.Loops) != 3 {
		t.Fatalf("G1 loops = %d", len(g1.Loops))
	}
	// Triangular bound i = k+1.
	if g1.Loops[1].Lo.CoeffOf("k") != 1 || g1.Loops[1].Lo.Const != 1 {
		t.Fatalf("G1 i bound: %s", g1.Loops[1].Lo)
	}
	if !core.Triangular(g1) {
		t.Fatal("G1 must be triangular")
	}
	// Downward loops.
	g2 := got.Nests[1]
	if g2.Loops[0].Step != -1 {
		t.Fatal("G2 must run downward")
	}
	g3 := got.Nests[2]
	if g3.Loops[1].Lo.CoeffOf("j") != 1 || g3.Loops[1].Lo.Const != -1 {
		t.Fatalf("G3 i bound: %s", g3.Loops[1].Lo)
	}
	// Statement depths: line 14 at depth 1, line 16 at depth 2.
	if g3.Stmts[0].Depth != 1 || g3.Stmts[1].Depth != 2 {
		t.Fatalf("G3 depths: %d %d", g3.Stmts[0].Depth, g3.Stmts[1].Depth)
	}
}
