package core

import (
	"testing"

	"dmcc/internal/artifact"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
)

// TestSignatureGolden pins SchemeSet.Signature() for the paper's three
// programs to committed golden strings. Signatures are cache-key
// material (ChangeCost/LoopCarriedCost memoization and, through
// Compiler.CacheKey, the on-disk artifact store), so they must not
// drift silently across refactors: a signature that changes for an
// unchanged placement would split caches; one that changes because
// placement semantics changed would make stale artifacts read as
// current.
//
// If this test fails because Signature() legitimately changed (new
// scheme fields, different canonical encoding), update the golden
// strings AND bump artifact.SchemaVersion in the same commit, so every
// previously written artifact reads as a miss instead of as a wrong
// hit.
func TestSignatureGolden(t *testing.T) {
	// Guard the pairing described above: the goldens below were
	// last re-verified for schema version 3 (CacheKey lost its retired
	// ";collredist=false" fragment and the machine fingerprint its
	// "chancap="; the signatures themselves did not change). Whoever
	// bumps one must revisit the other.
	if artifact.SchemaVersion != 3 {
		t.Fatalf("artifact.SchemaVersion = %d: re-verify the golden signatures below were updated with it", artifact.SchemaVersion)
	}

	const m, n = 16, 4
	golden := map[string]struct {
		mk       func() *ir.Program
		segments []string // DP segments, in order
		whole    string   // SegmentCost(1, s) whole-program set
	}{
		"jacobi": {
			mk: ir.Jacobi,
			segments: []string{
				"gx4x1;A:[+1 -1 4 cfalse g0][+1 -1 16 cfalse g1];B:[+1 -1 4 cfalse g0]f1=-1;V:[+1 -1 4 cfalse g0]f1=-1;X:[+1 -1 16 cfalse g1]f0=-1",
				"gx4x1;A:[+1 -1 4 cfalse g0][+1 -1 16 cfalse g1];B:[+1 -1 4 cfalse g0]f1=-1;V:[+1 -1 4 cfalse g0]f1=-1;X:[+1 -1 4 cfalse g0]f1=-1",
			},
			whole: "gx1x4;A:[+1 -1 16 cfalse g0][+1 -1 4 cfalse g1];B:[+1 -1 4 cfalse g1]f0=-1;V:[+1 -1 16 cfalse g0]f1=-1;X:[+1 -1 4 cfalse g1]f0=-1",
		},
		"sor": {
			mk: ir.SOR,
			segments: []string{
				"gx1x4;A:[+1 -1 16 cfalse g0][+1 -1 4 cfalse g1];B:[+1 -1 4 cfalse g1]f0=-1;V:[+1 -1 16 cfalse g0]f1=-1;X:[+1 -1 4 cfalse g1]f0=-1",
			},
			whole: "gx1x4;A:[+1 -1 16 cfalse g0][+1 -1 4 cfalse g1];B:[+1 -1 4 cfalse g1]f0=-1;V:[+1 -1 16 cfalse g0]f1=-1;X:[+1 -1 4 cfalse g1]f0=-1",
		},
		"gauss": {
			mk: ir.Gauss,
			segments: []string{
				"gx2x2;A:[+1 -1 1 ctrue g0][+1 -1 1 ctrue g1];B:[+1 -1 1 ctrue g0]f1=-1;L:[+1 -1 1 ctrue g0][+1 -1 1 ctrue g1];V:[+1 -1 1 ctrue g0]f1=-1;X:[+1 -1 1 ctrue g1]f0=-1",
			},
			whole: "gx2x2;A:[+1 -1 1 ctrue g0][+1 -1 1 ctrue g1];B:[+1 -1 1 ctrue g0]f1=-1;L:[+1 -1 1 ctrue g0][+1 -1 1 ctrue g1];V:[+1 -1 1 ctrue g0]f1=-1;X:[+1 -1 1 ctrue g1]f0=-1",
		},
	}
	for name, g := range golden {
		g := g
		t.Run(name, func(t *testing.T) {
			p := g.mk()
			c := NewCompiler(p, cost.Unit(), map[string]int{"m": m}, n)
			res, err := c.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.DP.Segments) != len(g.segments) {
				t.Fatalf("DP found %d segments, golden has %d — plan drift; update goldens and bump artifact.SchemaVersion",
					len(res.DP.Segments), len(g.segments))
			}
			for i, seg := range res.DP.Segments {
				if got := seg.Schemes.Signature(); got != g.segments[i] {
					t.Errorf("segment %d signature drift:\n got  %s\n want %s\nupdate the golden and bump artifact.SchemaVersion", i, got, g.segments[i])
				}
			}
			_, ss, err := c.SegmentCost(1, len(p.Nests))
			if err != nil {
				t.Fatal(err)
			}
			if got := ss.Signature(); got != g.whole {
				t.Errorf("whole-program signature drift:\n got  %s\n want %s\nupdate the golden and bump artifact.SchemaVersion", got, g.whole)
			}
		})
	}
}
