package core_test

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/dist"
	"dmcc/internal/ir"
	"dmcc/internal/sweep"
)

// fitPrograms is every builtin and every testdata source that is not one
// (the builtins are the listings of the same name), each made by a
// function that returns a fresh copy.
func fitPrograms(tb testing.TB) map[string]func() *ir.Program {
	tb.Helper()
	progs := map[string]func() *ir.Program{}
	for _, name := range ir.BuiltinNames() {
		name := name
		progs[name] = func() *ir.Program { p, _ := ir.Builtin(name); return p }
	}
	files, err := filepath.Glob("../../testdata/*.f")
	if err != nil || len(files) == 0 {
		tb.Fatalf("testdata sources: %v, %v", files, err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".f")
		if progs[name] != nil {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := ir.Parse(string(src)); err != nil {
			tb.Fatalf("%s: %v", f, err)
		}
		progs[name] = func() *ir.Program { p, _ := ir.Parse(string(src)); return p }
	}
	return progs
}

// gridPeriod is the period Fit samples a frozen plan's counts along: the
// lcm of every segment's grid extents.
func gridPeriod(fp *core.FrozenPlan) int {
	period := 1
	for _, seg := range fp.Segments {
		period = dist.LCM(period, dist.LCM(seg.Shape[0], seg.Shape[1]))
	}
	return period
}

// numericTwin thaws fp's decisions without its fits: an evaluator of the
// same plan that prices every size numerically.
func numericTwin(tb testing.TB, c *core.Compiler, fp *core.FrozenPlan) *core.PlanEvaluator {
	tb.Helper()
	bare := *fp
	bare.ExecFits, bare.LCFits, bare.ChgFits, bare.FitMinM = nil, nil, nil, 0
	pe, err := core.Thaw(c, &bare)
	if err != nil {
		tb.Fatal(err)
	}
	return pe
}

// TestFittedPricesMatchNumeric: for every builtin and testdata source at
// N in {4, 6, 8, 9, 12, 16} from base size 2N², the plan PlanFor fits
// prices every size of its first three grid periods from the floor up
// exactly as an unfitted evaluator of the same plan does, and its
// formulas are the text testdata/fitformulas.golden holds. That golden
// was written before a fitted series whose pieces are one polynomial was
// stored as one piece, so storing it so moved no formula.
func TestFittedPricesMatchNumeric(t *testing.T) {
	progs := fitPrograms(t)
	var names []string
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		for _, n := range []int{4, 6, 8, 9, 12, 16} {
			baseM := 2 * n * n
			c := core.NewCompiler(progs[name](), cost.Unit(), map[string]int{"m": baseM}, n)
			pe, fitErr, _, err := sweep.PlanFor(c, baseM, sweep.Options{})
			if err != nil {
				t.Fatalf("%s N=%d: %v", name, n, err)
			}
			fmt.Fprintf(&b, "%s N=%d baseM=%d\n", name, n, baseM)
			if fitErr != "" {
				fmt.Fprintf(&b, "  fit declined: %s\n", fitErr)
				continue
			}
			for _, f := range pe.Formulas() {
				fmt.Fprintf(&b, "  %s\n", f)
			}
			fp := pe.Freeze()
			numeric := numericTwin(t, core.NewCompiler(progs[name](), cost.Unit(), map[string]int{"m": baseM}, n), fp)
			for m := fp.FitMinM; m <= fp.FitMinM+3*gridPeriod(fp); m++ {
				if !pe.FittedAt(m) {
					t.Fatalf("%s N=%d: m=%d is at or above the floor %d but not fitted", name, n, m, fp.FitMinM)
				}
				got, err := pe.EvalAt(m)
				if err != nil {
					t.Fatalf("%s N=%d m=%d: %v", name, n, m, err)
				}
				want, err := numeric.EvalAt(m)
				if err != nil {
					t.Fatalf("%s N=%d m=%d numerically: %v", name, n, m, err)
				}
				if got != want {
					t.Errorf("%s N=%d m=%d: fitted %+v, numeric %+v", name, n, m, got, want)
				}
			}
		}
	}
	got := b.String()
	const path = "testdata/fitformulas.golden"
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
		t.Fatalf("formulas differ from %s\n%s", path, firstDiff(got, string(want)))
	}
}

// TestPeriodPlansStillServe: testdata/periodplans.golden holds the
// kernelplans.golden payloads as they were stored before a fitted series
// whose pieces are one polynomial was stored as one piece — every series
// one piece per residue class. A store written then still serves: each
// payload thaws, prices every size bit for bit as the plan fitted now
// does, and re-freezes to its own bytes, which is what GET /plan answers
// once the store has evicted it. The sizes run to m = 4,000,000, where a
// one-piece count's t is about m and C(t,3) is past int64.
func TestPeriodPlansStillServe(t *testing.T) {
	f, err := os.Open("testdata/periodplans.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	cases := 0
	for sc.Scan() {
		var name string
		var n, baseM int
		if _, err := fmt.Sscanf(sc.Text(), "%s N=%d baseM=%d", &name, &n, &baseM); err != nil {
			t.Fatalf("header %q: %v", sc.Text(), err)
		}
		if !sc.Scan() {
			t.Fatalf("%s N=%d baseM=%d: no payload", name, n, baseM)
		}
		payload := append([]byte(nil), sc.Bytes()...)
		cases++
		mk := func() *core.Compiler {
			p, ok := ir.Builtin(name)
			if !ok {
				t.Fatalf("no builtin %q", name)
			}
			return core.NewCompiler(p, cost.Unit(), map[string]int{"m": baseM}, n)
		}
		var fp core.FrozenPlan
		if err := fp.UnmarshalJSON(payload); err != nil {
			t.Fatalf("%s N=%d baseM=%d: %v", name, n, baseM, err)
		}
		old, err := core.Thaw(mk(), &fp)
		if err != nil {
			t.Fatalf("%s N=%d baseM=%d: %v", name, n, baseM, err)
		}
		if again, err := sweep.PlanPayload(old, fp.FitErr); err != nil || !bytes.Equal(again, payload) {
			t.Errorf("%s N=%d baseM=%d: re-freeze of the thawed plan differs from its payload (%v)", name, n, baseM, err)
		}
		fresh, _, _, err := sweep.PlanFor(mk(), baseM, sweep.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Freeze().FitMinM != fp.FitMinM {
			t.Fatalf("%s N=%d baseM=%d: fitted from m=%d now, m=%d in the payload", name, n, baseM, fresh.Freeze().FitMinM, fp.FitMinM)
		}
		period := gridPeriod(&fp)
		var sizes []int
		for m := max(fp.FitMinM-period, 1); m <= fp.FitMinM+4*period; m++ {
			sizes = append(sizes, m)
		}
		sizes = append(sizes, 1000, 4099, 65537, 1<<20, 4_000_000)
		for _, m := range sizes {
			got, err := old.EvalAt(m)
			if err != nil {
				t.Fatalf("%s N=%d baseM=%d m=%d: %v", name, n, baseM, m, err)
			}
			want, err := fresh.EvalAt(m)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s N=%d baseM=%d m=%d: stored plan prices %+v, fresh plan %+v", name, n, baseM, m, got, want)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if cases != 7 {
		t.Fatalf("read %d stored plans, want 7", cases)
	}
}
