package sweep

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/formulas.golden from this tree")

// TestFormulasGolden pins every fitted formula string of the three paper
// programs at N = 8 and 16 — the text POST /compile returns and the
// symbolic sweep prints — against a golden generated before Poly.String
// moved from big.Rat to int64 arithmetic.
func TestFormulasGolden(t *testing.T) {
	res, err := Symbolic(nil, []int{8, 16}, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(res.Comments, "\n") + "\n"
	const path = "testdata/formulas.golden"
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
		t.Fatalf("formulas differ from %s (regenerate with -update only if costs legitimately changed)\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestPoisonedStoredPlanRecompiles: a stored payload whose fit would
// divide by zero when priced is a "stale frozen plan" warning and a fresh
// compile, not an evaluator that panics on its first EvalAt.
func TestPoisonedStoredPlanRecompiles(t *testing.T) {
	st := openStore(t)
	const m, n = 16, 4
	mk := func() *core.Compiler {
		c := core.NewCompiler(ir.Jacobi(), cost.Unit(), map[string]int{"m": m}, n)
		c.Jobs = 1
		return c
	}
	fresh, _, _, err := PlanFor(mk(), m, Options{Cache: st})
	if err != nil {
		t.Fatal(err)
	}
	key := PlanKey(mk(), m)
	payload, ok := st.Get(key)
	if !ok || !bytes.Contains(payload, []byte(`"Step":4`)) {
		t.Fatalf("stored plan missing or without a Step to poison: %s", payload)
	}
	if err := st.Put(key, bytes.Replace(payload, []byte(`"Step":4`), []byte(`"Step":0`), 1)); err != nil {
		t.Fatal(err)
	}
	var warnings []string
	pe, _, cached, err := PlanFor(mk(), m, Options{Cache: st, Warnf: func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if cached || len(warnings) != 1 || !strings.Contains(warnings[0], "stale frozen plan") || !strings.Contains(warnings[0], "recompiling") {
		t.Fatalf("cached=%v warnings=%q; want a recompile behind one stale-plan warning", cached, warnings)
	}
	for _, at := range []int{m, 24, 64} {
		want, err := fresh.EvalAt(at)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := pe.EvalAt(at); err != nil || got != want {
			t.Fatalf("m=%d: recompiled plan prices %+v (%v), want %+v", at, got, err, want)
		}
	}
}

// TestPlanForDeclinesSizesOutOfRange: B(40) is in range at the base size
// but not at the sizes the raised fit floors sample. PlanFor declines the
// fit with the range error instead of panicking, and the plan is priced
// numerically: like a fresh, never-fitted evaluator inside the range, a
// range error past it.
func TestPlanForDeclinesSizesOutOfRange(t *testing.T) {
	const src = "PROGRAM b40\nPARAM m\nREAL A(m), B(40)\nDO 2 i = 1, m\n1   A(i) = B(i) + 1.0\n2 CONTINUE\nEND\n"
	for _, m := range []int{8, 16} {
		p, err := ir.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		mk := func() *core.Compiler { return core.NewCompiler(p, cost.Unit(), map[string]int{"m": m}, 4) }
		var pe *core.PlanEvaluator
		var fitErr string
		if err := core.Guard(func() (err error) { pe, fitErr, _, err = PlanFor(mk(), m, Options{}); return err }); err != nil {
			t.Fatalf("m=%d: PlanFor: %v", m, err)
		}
		if !strings.Contains(fitErr, "B(i)") {
			t.Errorf("m=%d: fitErr %q does not name B(i)", m, fitErr)
		}
		numeric, err := core.NewPlanEvaluator(mk())
		if err != nil {
			t.Fatal(err)
		}
		got, err := pe.EvalAt(20)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := numeric.EvalAt(20); err != nil || got != want {
			t.Errorf("m=%d: EvalAt(20) = %+v, numeric %+v (%v)", m, got, want, err)
		}
		var re *ir.RangeError
		if _, err := pe.EvalAt(41); !errors.As(err, &re) {
			t.Errorf("m=%d: EvalAt(41) = %v, want a *ir.RangeError", m, err)
		}
	}
}
