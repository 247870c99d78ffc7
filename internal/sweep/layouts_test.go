package sweep

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/exec"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
)

// layoutRows indexes a layouts result by (variant, n).
func layoutRows(res *Result) map[string]map[string]float64 {
	rows := map[string]map[string]float64{}
	for _, r := range res.Rows {
		rows[fmt.Sprintf("%s n=%d", r.Variant, r.N)] = r.Metrics
	}
	return rows
}

// TestLayoutsPriceWhatTheDPPricesAndRunWhatExecRuns: at m = 64, N = 16,
// a whole-program row on a GridShapes shape is priced at Candidates' price
// plus its set's LoopCarriedCost, the dp row at the compiled plan's
// minimum, and the dp rows of the exec programs ran the exec sweep's
// batched runs (BENCH_exec.json). Every row equals the committed
// BENCH_layouts.json's.
func TestLayoutsPriceWhatTheDPPricesAndRunWhatExecRuns(t *testing.T) {
	const m, n = 64, 16
	res, err := Layouts([]int{m}, []int{n}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rows := layoutRows(res)
	for _, pr := range layoutProgs() {
		p := pr.mk()
		bind, err := p.BindSize(m)
		if err != nil {
			t.Fatal(err)
		}
		c := core.NewCompiler(p, cost.Unit(), bind, n)
		shapes := core.GridShapes(n)
		sets, costs, err := c.Candidates(1, len(p.Nests), shapes)
		if err != nil {
			t.Fatal(err)
		}
		for k, shape := range shapes {
			lc, err := c.LoopCarriedCost(sets[k])
			if err != nil {
				t.Fatal(err)
			}
			id := fmt.Sprintf("%s/%dx%d n=%d", pr.name, shape[0], shape[1], n)
			if got := rows[id]["modelled"]; got != costs[k]+lc {
				t.Errorf("%s: modelled %v, Candidates + LoopCarriedCost %v", id, got, costs[k]+lc)
			}
		}
		plan, err := c.Compile()
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("%s/dp n=%d", pr.name, n)
		if got := rows[id]["modelled"]; got != plan.DP.MinimumCost {
			t.Errorf("%s: modelled %v, the DP's minimum %v", id, got, plan.DP.MinimumCost)
		}
	}

	_, execBase := committedBaseline(t, "BENCH_exec.json", "exec")
	for _, r := range execBase.Rows {
		prog, engine := splitVariant(r.Variant)
		if engine != "batched" || r.M != m || r.N != n {
			continue
		}
		dp := rows[fmt.Sprintf("%s/dp n=%d", prog, n)]
		if dp["makespan"] != r.Metrics["simtime"] || dp["words"] != r.Metrics["words"] {
			t.Errorf("%s/dp: makespan %v, words %v; BENCH_exec's %s ran %v, %v",
				prog, dp["makespan"], dp["words"], r.Variant, r.Metrics["simtime"], r.Metrics["words"])
		}
	}

	_, base := committedBaseline(t, "BENCH_layouts.json", "layouts")
	matched := 0
	for _, r := range base.Rows {
		if r.M != m || r.N != n {
			continue
		}
		matched++
		got := rows[fmt.Sprintf("%s n=%d", r.Variant, n)]
		if fmt.Sprint(got) != fmt.Sprint(r.Metrics) {
			t.Errorf("%s n=%d: swept %v, BENCH_layouts.json has %v", r.Variant, n, got, r.Metrics)
		}
	}
	if matched != len(res.Rows) {
		t.Errorf("BENCH_layouts.json has %d rows at m=%d n=%d, the sweep %d", matched, m, n, len(res.Rows))
	}
}

// TestSquareStencilBeatsBothStrips: on the compiled five-point stencil at
// m = 64 the √N×√N grid ships fewer words and finishes sooner than either
// strip, the surface-to-volume advantage of a 2-D decomposition, which
// the layouts table shows for every N.
func TestSquareStencilBeatsBothStrips(t *testing.T) {
	cfg := machine.DefaultConfig()
	for _, n := range []int{16, 64} {
		c := exec.Case{Prog: ir.Stencil(), M: 64, N: n, Iters: 2, Seed: 1}
		run := func(shape [2]int) exec.Result {
			_, res, err := wholeProgramOn(&c, shape, cfg)
			if err != nil {
				t.Fatalf("N=%d %v: %v", n, shape, err)
			}
			return res
		}
		sq := 1
		for sq*sq < n {
			sq++
		}
		square := run([2]int{sq, sq})
		for _, strip := range [][2]int{{1, n}, {n, 1}} {
			st := run(strip)
			if square.Stats.Words >= st.Stats.Words || square.Stats.ParallelTime >= st.Stats.ParallelTime {
				t.Errorf("N=%d: %dx%d ships %d words in %v, the %dx%d strip %d in %v",
					n, sq, sq, square.Stats.Words, square.Stats.ParallelTime,
					strip[0], strip[1], st.Stats.Words, st.Stats.ParallelTime)
			}
		}
	}
}

// TestLayoutsKeysAndWarmRerun pins one layouts key's text, and a warm
// rerun of a cached layouts sweep is all hits and byte-identical (the
// ranks are set after the cache, from the rows).
func TestLayoutsKeysAndWarmRerun(t *testing.T) {
	progs := layoutProgs()
	jacobi := progs[slices.IndexFunc(progs, func(pr execProg) bool { return pr.name == "jacobi" })]
	const want = "kind=layouts;prog=9ca8cf06568cb8e28e75ba2e19a9166f1f66945d0e89afcf1e3e3326d5f2b287;m=8;n=4;" +
		"layout=2x2;iters=2;omega=0;machine=tf=1;tc=1;alpha=0;overlap=false;synccoll=true"
	if got := layoutKey(core.ProgramHash(jacobi.mk()), jacobi, 8, 4, "2x2", machine.DefaultConfig()); got != want {
		t.Fatalf("jacobi/2x2 m=8 n=4 key\n %s\nwant\n %s", got, want)
	}

	st := openStore(t)
	cold, err := Layouts([]int{8}, []int{4}, Options{Cache: st, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	misses := st.Stats().Misses
	warm, err := Layouts([]int{8}, []int{4}, Options{Cache: st, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Misses != misses || s.Hits != int64(len(warm.Rows)) {
		t.Fatalf("warm layouts sweep: %s after a cold run's %d misses", s, misses)
	}
	cj, _ := cold.JSON()
	wj, _ := warm.JSON()
	if !bytes.Equal(cj, wj) {
		t.Errorf("warm layouts JSON differs from cold:\n%s\n---\n%s", wj, cj)
	}
}
