package dmcc_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dmcc/internal/artifact"
	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/exec"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
	"dmcc/internal/serve"
	"dmcc/internal/sweep"
)

// TestLoweringCounts pins how often each operation lowers its program
// (ir.LowerCalls): once, into the one core.Analysis of its (program,
// binding) that every consumer reads, plus one private lowering per size
// pricer of a PlanEvaluator. Before the analysis was shared, a gauss
// compile at m = 16, N = 4 lowered 1 / 31 / 40 times plain / under
// ExactNestCount / as NewOracleCompiler (Synthetic(6): 1 / 169 / 187), an
// exec.Case run plus its Check 5, Thaw plus a numeric EvalAt 3, and a
// layouts point 3 (a factor-pair grid) or 4 (dp, which compiled twice).
func TestLoweringCounts(t *testing.T) {
	lowerings := func(what string, op func() error) int64 {
		t.Helper()
		before := ir.LowerCalls()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return ir.LowerCalls() - before
	}
	want := func(what string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s lowered its program %d times, want %d", what, got, want)
		}
	}
	bind := map[string]int{"m": 16}
	for _, mk := range []func() *ir.Program{ir.Gauss, func() *ir.Program { return ir.Synthetic(6) }} {
		name := mk().Name
		for _, comp := range []struct {
			arm string
			new func() *core.Compiler
		}{
			{"plain", func() *core.Compiler { return core.NewCompiler(mk(), cost.Unit(), bind, 4) }},
			{"ExactNestCount", func() *core.Compiler {
				c := core.NewCompiler(mk(), cost.Unit(), bind, 4)
				c.ExactNestCount = true
				return c
			}},
			{"NewOracleCompiler", func() *core.Compiler { return core.NewOracleCompiler(mk(), cost.Unit(), bind, 4) }},
		} {
			c := comp.new()
			want(name+" Compile ("+comp.arm+")", lowerings(comp.arm, func() error { _, err := c.Compile(); return err }), 1)
		}
	}

	c := exec.Case{Prog: ir.Gauss(), M: 16, N: 4, Iters: 1, Seed: 7}
	want("an exec.Case's Plan, Run and Check", lowerings("case", func() error {
		plan, err := c.Plan()
		if err != nil {
			return err
		}
		res, err := c.Run(plan.DP.Segments, machine.DefaultConfig())
		if err != nil {
			return err
		}
		_, err = c.Check(res)
		return err
	}), 1)

	pe, err := core.NewPlanEvaluator(core.NewCompiler(ir.Gauss(), cost.Unit(), bind, 4))
	if err != nil {
		t.Fatal(err)
	}
	fp := pe.Freeze()
	want("Thaw plus a numeric EvalAt (one pricer)", lowerings("thaw", func() error {
		thawed, err := core.Thaw(core.NewCompiler(ir.Gauss(), cost.Unit(), bind, 4), fp)
		if err != nil {
			return err
		}
		_, err = thawed.EvalAt(20)
		return err
	}), 2)

	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	serveHTTP := func(method, route, body string) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, route, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s %s: %d: %s", method, route, rec.Code, rec.Body)
		}
		return nil
	}
	var cr serve.CompileResponse
	const compileBody = `{"prog":"gauss","m":256,"n":16}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/compile", strings.NewReader(compileBody)))
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
		t.Fatalf("cold POST /compile: %d: %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/plan/"+cr.ID, nil))
	installBody := `{"prog":"gauss","m":256,"n":16,"plan":` + rec.Body.String() + `}`
	want("a warm POST /compile", lowerings("warm compile", func() error { return serveHTTP("POST", "/compile", compileBody) }), 1)
	want("a plan install", lowerings("install", func() error { return serveHTTP("POST", "/plan", installBody) }), 1)

	var rows int64
	got := lowerings("layouts", func() error {
		res, err := sweep.Layouts([]int{16}, []int{4}, sweep.Options{Workers: 1})
		if err == nil {
			rows = int64(len(res.Rows))
		}
		return err
	})
	if rows == 0 {
		t.Fatal("the layouts sweep at m = 16, N = 4 has no rows")
	}
	want("the layouts sweep at m = 16, N = 4 (one lowering per point)", got, rows)
}
