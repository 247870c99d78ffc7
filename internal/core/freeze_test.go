package core

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"strings"
	"testing"

	"dmcc/internal/cost"
	"dmcc/internal/ir"
)

// A frozen-then-thawed evaluator must price the plan exactly like the
// evaluator it came from, at every size — with and without fits, and
// across a JSON roundtrip (the artifact store's wire format).
func TestFreezeThawRoundtrip(t *testing.T) {
	for _, mk := range []func() *ir.Program{ir.Jacobi, ir.SOR} {
		p := mk()
		const n, baseM = 4, 16
		c := NewCompiler(p, cost.Unit(), map[string]int{"m": baseM}, n)
		pe, err := NewPlanEvaluator(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := pe.Fit(baseM, 3, 2); err != nil {
			t.Fatalf("%s: Fit: %v", p.Name, err)
		}
		fp := pe.Freeze()
		raw, err := json.Marshal(fp)
		if err != nil {
			t.Fatal(err)
		}
		var back FrozenPlan
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}

		c2 := NewCompiler(mk(), cost.Unit(), map[string]int{"m": baseM}, n)
		thawed, err := Thaw(c2, &back)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{16, 24, 32, 64, 128} {
			want, err := pe.EvalAt(m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := thawed.EvalAt(m)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s m=%d: thawed %+v != fresh %+v", p.Name, m, got, want)
			}
		}
		// Formula rendering survives the roundtrip (fits included).
		wantF, gotF := pe.Formulas(), thawed.Formulas()
		if len(wantF) != len(gotF) {
			t.Fatalf("%s: formulas %d != %d", p.Name, len(gotF), len(wantF))
		}
		for i := range wantF {
			if wantF[i] != gotF[i] {
				t.Fatalf("%s formula %d: %q != %q", p.Name, i, gotF[i], wantF[i])
			}
		}
	}
}

// Thaw without fits still evaluates (via the analytic engine), matching
// an unfitted fresh evaluator.
func TestThawUnfitted(t *testing.T) {
	c := NewCompiler(ir.Jacobi(), cost.Unit(), map[string]int{"m": 16}, 4)
	pe, err := NewPlanEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	fp := pe.Freeze()
	if fp.ExecFits != nil {
		t.Fatal("unfitted evaluator froze with fits")
	}
	c2 := NewCompiler(ir.Jacobi(), cost.Unit(), map[string]int{"m": 16}, 4)
	thawed, err := Thaw(c2, fp)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{16, 32, 48} {
		want, _ := pe.EvalAt(m)
		got, err := thawed.EvalAt(m)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("m=%d: %+v != %+v", m, got, want)
		}
	}
}

// Thaw rejects plans that do not tile the program's nest sequence.
func TestThawValidates(t *testing.T) {
	c := NewCompiler(ir.Jacobi(), cost.Unit(), map[string]int{"m": 16}, 4)
	pe, err := NewPlanEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	fp := pe.Freeze()
	fp.Segments = fp.Segments[:len(fp.Segments)-1]
	if _, err := Thaw(c, fp); err == nil {
		t.Fatal("Thaw accepted a plan that does not cover every nest")
	}
}

// TestThawRefusesAnotherProcessorCount: a plan's grids are its processor
// count's factorizations, so a compiler for any other count refuses it —
// gauss frozen at N = 16 thawed for 8 processors priced 743,712 where an
// N = 8 compile prices 1,470,304. A grid that is not a factorization of
// the compiler's count at all is refused the same way.
func TestThawRefusesAnotherProcessorCount(t *testing.T) {
	const m, n = 32, 16
	c := NewCompiler(ir.Gauss(), cost.Unit(), map[string]int{"m": m}, n)
	pe, err := NewPlanEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	fp := pe.Freeze()
	if _, err := Thaw(NewCompiler(ir.Gauss(), cost.Unit(), map[string]int{"m": m}, n), fp); err != nil {
		t.Fatalf("Thaw refused the plan for its own processor count: %v", err)
	}
	for _, other := range []int{1, 4, 8, 32} {
		_, err := Thaw(NewCompiler(ir.Gauss(), cost.Unit(), map[string]int{"m": m}, other), fp)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("the compiler has %d processors", other)) {
			t.Errorf("Thaw of an N = %d plan for %d processors: error %v", n, other, err)
		}
	}
	for _, shape := range [][2]int{{0, 16}, {16, 0}, {-4, -4}, {3, 5}, {32, 1}, {2, 4}, {1 << 32, 1 << 32}} {
		bad := *fp
		bad.Segments = append([]FrozenSegment(nil), fp.Segments...)
		bad.Segments[0].Shape = shape
		if _, err := Thaw(NewCompiler(ir.Gauss(), cost.Unit(), map[string]int{"m": m}, n), &bad); err == nil {
			t.Errorf("Thaw accepted a %dx%d grid for %d processors", shape[0], shape[1], n)
		}
	}
}

// TestThawRefusesAnotherSize: an evaluator reads its compiler's analysis
// at the plan's base size, so a compiler bound at any other size refuses
// the plan with an error naming both sizes.
func TestThawRefusesAnotherSize(t *testing.T) {
	pe, err := NewPlanEvaluator(NewCompiler(ir.Jacobi(), cost.Unit(), map[string]int{"m": 16}, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{8, 32} {
		_, err := Thaw(NewCompiler(ir.Jacobi(), cost.Unit(), map[string]int{"m": m}, 4), pe.Freeze())
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("baseM=16 does not match m=%d", m)) {
			t.Errorf("Thaw of an m = 16 plan into a compiler at m = %d: error %v, want one naming both sizes", m, err)
		}
	}
}

// CacheKey must separate everything that changes results and nothing
// that does not (Jobs).
func TestCacheKeyDiscriminates(t *testing.T) {
	base := func() *Compiler {
		return NewCompiler(ir.Jacobi(), cost.Unit(), map[string]int{"m": 16}, 4)
	}
	k0 := base().CacheKey()
	if k1 := base().CacheKey(); k1 != k0 {
		t.Fatalf("same config, different keys:\n%s\n%s", k0, k1)
	}
	c := base()
	c.Jobs = 7
	if c.CacheKey() != k0 {
		t.Fatal("Jobs leaked into the cache key")
	}
	mut := map[string]func(*Compiler){
		"bind":        func(c *Compiler) { c.Bind = map[string]int{"m": 32} },
		"nprocs":      func(c *Compiler) { c.NProcs = 8 },
		"model":       func(c *Compiler) { c.Model = cost.Model{Tf: 2, Tc: 1} },
		"exactnest":   func(c *Compiler) { c.ExactNestCount = true },
		"exactchange": func(c *Compiler) { c.ExactChangeCost = true },
		"nocache":     func(c *Compiler) { c.noCache = true },
	}
	for name, f := range mut {
		c := base()
		f(c)
		if c.CacheKey() == k0 {
			t.Errorf("%s not reflected in CacheKey", name)
		}
	}
	c2 := NewCompiler(ir.SOR(), cost.Unit(), map[string]int{"m": 16}, 4)
	if c2.CacheKey() == k0 {
		t.Error("different programs share a CacheKey")
	}
}

// TestThawedBaseMatchesCompiled: the Base a plan thaws to is the Base
// its compile produced, in everything a frozen plan records — per
// segment the nest range, grid shape, cyclic flag, alignment partition
// and costs, and the plan's totals — so the evaluator's re-freeze
// writes the compiled costs back, not zeros. The plans are gauss, jacobi
// and sor frozen at m = 256, N = 16 (through the stored JSON) and the
// plans of testdata/periodplans.golden, stored by an earlier build.
func TestThawedBaseMatchesCompiled(t *testing.T) {
	type stored struct {
		name     string
		n, baseM int
		payload  []byte
	}
	var plans []stored
	for _, name := range []string{"gauss", "jacobi", "sor"} {
		p, _ := ir.Builtin(name)
		pe, err := NewPlanEvaluator(NewCompiler(p, cost.Unit(), map[string]int{"m": 256}, 16))
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(pe.Freeze())
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, stored{name, 16, 256, payload})
	}
	golden, err := os.ReadFile("testdata/periodplans.golden")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	for i := 0; i+1 < len(lines); i += 2 {
		var s stored
		if _, err := fmt.Sscanf(lines[i], "%s N=%d baseM=%d", &s.name, &s.n, &s.baseM); err != nil {
			t.Fatalf("header %q: %v", lines[i], err)
		}
		s.payload = []byte(lines[i+1])
		plans = append(plans, s)
	}
	for _, s := range plans {
		what := fmt.Sprintf("%s N=%d baseM=%d", s.name, s.n, s.baseM)
		mk := func() *Compiler {
			p, _ := ir.Builtin(s.name)
			return NewCompiler(p, cost.Unit(), map[string]int{"m": s.baseM}, s.n)
		}
		var fp FrozenPlan
		if err := fp.UnmarshalJSON(s.payload); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		thawed, err := Thaw(mk(), &fp)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		fresh, err := NewPlanEvaluator(mk())
		if err != nil {
			t.Fatal(err)
		}
		got, want := thawed.Base, fresh.Base
		if len(got.DP.Segments) != len(want.DP.Segments) {
			t.Fatalf("%s: thawed %d segments, compiled %d", what, len(got.DP.Segments), len(want.DP.Segments))
		}
		for i, g := range got.DP.Segments {
			w := want.DP.Segments[i]
			if g.Start != w.Start || g.Len != w.Len || gridShape(g) != gridShape(w) ||
				g.Schemes.Cyclic != w.Schemes.Cyclic || !maps.Equal(g.Schemes.Partition.Assign, w.Schemes.Partition.Assign) ||
				g.M != w.M || g.ChangeIn != w.ChangeIn {
				t.Errorf("%s segment %d: thawed (%d,%d) %v %s M=%g in=%g, compiled (%d,%d) %v %s M=%g in=%g", what, i+1,
					g.Start, g.Len, gridShape(g), g.Schemes, g.M, g.ChangeIn,
					w.Start, w.Len, gridShape(w), w.Schemes, w.M, w.ChangeIn)
			}
		}
		if got.DP.MinimumCost != want.DP.MinimumCost || got.DP.SegmentTotal != want.DP.SegmentTotal ||
			got.DP.LoopCarried != want.DP.LoopCarried || got.WholeProgramCost != want.WholeProgramCost {
			t.Errorf("%s: thawed costs min %g seg %g lc %g whole %g, compiled min %g seg %g lc %g whole %g", what,
				got.DP.MinimumCost, got.DP.SegmentTotal, got.DP.LoopCarried, got.WholeProgramCost,
				want.DP.MinimumCost, want.DP.SegmentTotal, want.DP.LoopCarried, want.WholeProgramCost)
		}
	}
	if len(plans) != 3+7 {
		t.Fatalf("checked %d plans, want 10", len(plans))
	}
}
