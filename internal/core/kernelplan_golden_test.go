package core_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
	"dmcc/internal/sweep"
)

// TestKernelPlansGolden pins what a fitted kernel compile produces —
// every formula string and the stored frozen-plan JSON (polynomials,
// periods, floors, fit diagnostic) — for gauss / jacobi / sor at N = 8
// and 16 from base size 128, and for gauss from base size 64, where the
// first fit is declined and PlanFor raises the floor. The golden was
// generated at the commit before the send attribution and the set kernel
// under the nest counter were rewritten: every fit sample is a numeric
// count, so a counter that moved one word would move a coefficient here.
func TestKernelPlansGolden(t *testing.T) {
	cases := []struct {
		name     string
		mk       func() *ir.Program
		n, baseM int
	}{
		{"gauss", ir.Gauss, 8, 128}, {"jacobi", ir.Jacobi, 8, 128}, {"sor", ir.SOR, 8, 128},
		{"gauss", ir.Gauss, 16, 128}, {"jacobi", ir.Jacobi, 16, 128}, {"sor", ir.SOR, 16, 128},
		{"gauss", ir.Gauss, 8, 64},
	}
	var b strings.Builder
	for _, tc := range cases {
		c := core.NewCompiler(tc.mk(), cost.Unit(), map[string]int{"m": tc.baseM}, tc.n)
		c.Jobs = 1
		pe, fitErr, _, err := sweep.PlanFor(c, tc.baseM, sweep.Options{})
		if err != nil {
			t.Fatalf("%s N=%d baseM=%d: %v", tc.name, tc.n, tc.baseM, err)
		}
		payload, err := sweep.PlanPayload(pe, fitErr)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s N=%d baseM=%d\n", tc.name, tc.n, tc.baseM)
		for _, f := range pe.Formulas() {
			fmt.Fprintf(&b, "  %s\n", f)
		}
		fmt.Fprintf(&b, "  %s\n", payload)
	}
	got := b.String()
	const path = "testdata/kernelplans.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("kernel plans differ from %s (regenerate with -update only if costs legitimately changed)\n%s", path, firstDiff(got, string(want)))
	}
}

// firstDiff names the first line two golden texts disagree on; the
// payload lines are too long to print whole.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			j := 0
			for j < len(g[i]) && j < len(w[i]) && g[i][j] == w[i][j] {
				j++
			}
			clip := func(s string) string { return s[max(j-40, 0):min(j+80, len(s))] }
			return fmt.Sprintf("line %d, byte %d:\n got: …%s…\nwant: …%s…", i+1, j, clip(g[i]), clip(w[i]))
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
