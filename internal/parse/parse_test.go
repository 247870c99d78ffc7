package parse

import (
	"testing"

	"dmcc/internal/align"
	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
)

// parseJacobi parses the embedded Section 3 listing through this package.
func parseJacobi(t *testing.T) *ir.Program {
	t.Helper()
	src, err := ir.Listing("jacobi")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseJacobiMatchesBuiltin(t *testing.T) {
	got := parseJacobi(t)
	want := ir.Jacobi()
	if got.Name != "jacobi" || !got.Iterative {
		t.Fatalf("header: %+v", got)
	}
	if len(got.Nests) != len(want.Nests) {
		t.Fatalf("nests = %d, want %d", len(got.Nests), len(want.Nests))
	}
	// L1: loops i, j; statements at lines 3 and 5.
	l1 := got.Nests[0]
	if len(l1.Loops) != 2 || l1.Loops[0].Index != "i" || l1.Loops[1].Index != "j" {
		t.Fatalf("L1 loops: %+v", l1.Loops)
	}
	if len(l1.Stmts) != 2 {
		t.Fatalf("L1 stmts = %d", len(l1.Stmts))
	}
	if l1.Stmts[0].Line != 3 || l1.Stmts[0].Depth != 1 {
		t.Fatalf("line-3 stmt: %+v", l1.Stmts[0])
	}
	s5 := l1.Stmts[1]
	if s5.Line != 5 || s5.Depth != 2 || !s5.Reduce || s5.Flops != 2 {
		t.Fatalf("line-5 stmt: %+v", s5)
	}
	if s5.LHS.String() != "V(i)" {
		t.Fatalf("line-5 LHS: %s", s5.LHS)
	}
	if len(s5.Reads) != 3 {
		t.Fatalf("line-5 reads: %v", s5.Reads)
	}
	// L2: line 8 has 3 flops.
	s8 := got.Nests[1].Stmts[0]
	if s8.Line != 8 || s8.Flops != 3 || s8.Reduce {
		t.Fatalf("line-8 stmt: %+v", s8)
	}
	if s8.Text != "X(i) = X(i) + (B(i) - V(i)) / A(i,i)" {
		t.Fatalf("line-8 text: %q", s8.Text)
	}
}

// TestParsedProgramsCompileLikeBuiltins: the parsed Jacobi must drive the
// whole pipeline to the same DP outcome as the builtin.
func TestParsedProgramsCompileLikeBuiltins(t *testing.T) {
	parsed := parseJacobi(t)
	cParsed := core.NewCompiler(parsed, cost.Unit(), map[string]int{"m": 32}, 4)
	rParsed, err := cParsed.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cBuiltin := core.NewCompiler(ir.Jacobi(), cost.Unit(), map[string]int{"m": 32}, 4)
	rBuiltin, err := cBuiltin.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if rParsed.DP.MinimumCost != rBuiltin.DP.MinimumCost {
		t.Fatalf("parsed DP cost %v != builtin %v", rParsed.DP.MinimumCost, rBuiltin.DP.MinimumCost)
	}
}

// TestParsedAlignmentMatchesBuiltin: the affinity graph of the parsed
// source aligns identically.
func TestParsedAlignmentMatchesBuiltin(t *testing.T) {
	parsed := parseJacobi(t)
	g, err := align.BuildGraph(parsed, parsed.Nests, align.DefaultWeightParams())
	if err != nil {
		t.Fatal(err)
	}
	pt, err := align.ExactAlign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Assign[ir.DimID{Array: "V", Dim: 0}] != pt.Assign[ir.DimID{Array: "A", Dim: 0}] {
		t.Error("parsed V not aligned with A1")
	}
	if pt.Assign[ir.DimID{Array: "X", Dim: 0}] != pt.Assign[ir.DimID{Array: "A", Dim: 1}] {
		t.Error("parsed X not aligned with A2")
	}
}
