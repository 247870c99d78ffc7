package exec

import (
	"fmt"
	"sort"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
)

// checkConservation holds a run of a plan to the counter and to the
// machine. Per executed nest, the inspector's flops, busiest rank's flops,
// distinct remote pairs and non-root partials equal cost.CountNestOpts's
// under the segment's scheme set; per run, the machine's flops are the
// nests' statement and combine flops, and its words the nests' wire words
// plus every change crossed, with no tolerance.
func checkConservation(t *testing.T, label string, p *ir.Program, bind map[string]int, segs []core.Segment, iters int, res Result) {
	t.Helper()
	if !p.Iterative {
		iters = 1
	}
	var flops, words int64
	for k, seg := range res.Segments {
		ss := segs[k].Schemes
		for i, got := range seg.Nests {
			nest := p.Nests[seg.Start-1+i]
			ct, err := cost.CountNestOpts(p, nest, ss.Schemes, ss.Grid, bind, cost.CountOptions{})
			if err != nil {
				t.Fatalf("%s: count %s: %v", label, nest.Label, err)
			}
			want := NestCount{TotalFlops: ct.TotalFlops, MaxProcFlops: ct.MaxProcFlops, RemoteWords: ct.RemoteWords, ReduceWords: ct.ReduceWords}
			shared := got
			shared.CombineFlops, shared.FanoutWords, shared.Words = 0, 0, 0
			if shared != want {
				t.Errorf("%s: nest %s on %s: exec counts %+v, the counter %+v", label, nest.Label, ss.Grid, got, ct)
			}
			flops += int64(iters) * (got.TotalFlops + got.CombineFlops)
			words += int64(iters) * got.Words
		}
		crossings := iters
		if k == 0 {
			crossings = iters - 1
		}
		words += int64(crossings * seg.ChangeWords)
	}
	if flops != res.Stats.Flops || words != res.Stats.Words {
		t.Errorf("%s: the nests and changes account for %d flops and %d words, the machine ran %d and %d",
			label, flops, words, res.Stats.Flops, res.Stats.Words)
	}
}

// factorPairs is every r x n/r grid of n processors, r ascending.
func factorPairs(n int) [][2]int {
	var shapes [][2]int
	for r := 1; r <= n; r++ {
		if n%r == 0 {
			shapes = append(shapes, [2]int{r, n / r})
		}
	}
	return shapes
}

// TestConservationPerNest: every nest's counts in the schedule equal the
// counter's, and a run's machine totals decompose into them exactly
// (checkConservation), over every builtin and testdata/*.f, ir.Stencil
// and Synthetic(4..8) at m ∈ {16, 64} on 4, 8 and 16 processors, under
// the DP's plan and under the whole program on every factor-pair grid
// (jacobi on N×1 is the Section 4 row scheme). An iterative program runs
// two iterations, so an iteration-boundary change is crossed too.
func TestConservationPerNest(t *testing.T) {
	progs := map[string]*ir.Program{"stencil": ir.Stencil()}
	for name, p := range casePrograms(t) {
		if _, builtin := ir.Builtin(name); !builtin {
			progs[name] = p // a builtin's listing is testdata/<name>.f
		}
	}
	for s := 4; s <= 8; s++ {
		progs[fmt.Sprintf("Synthetic(%d)", s)] = ir.Synthetic(s)
	}
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, m := range []int{16, 64} {
			for _, n := range []int{4, 8, 16} {
				t.Run(fmt.Sprintf("%s m=%d N=%d", name, m, n), func(t *testing.T) {
					t.Parallel()
					c := Case{Prog: progs[name], M: m, N: n, Iters: 2, Scalars: map[string]float64{"OMEGA": 1.2}, Seed: 1}
					comp, err := c.Compiler()
					if err != nil {
						t.Fatal(err)
					}
					plan, err := comp.Compile()
					if err != nil {
						t.Fatal(err)
					}
					plans := map[string][]core.Segment{"dp": plan.DP.Segments}
					shapes := factorPairs(n)
					sets, _, err := comp.Candidates(1, len(c.Prog.Nests), shapes)
					if err != nil {
						t.Fatal(err)
					}
					for k, ss := range sets {
						plans[fmt.Sprintf("%dx%d", shapes[k][0], shapes[k][1])] = wholeProgram(c.Prog, ss)
					}
					for layout, segs := range plans {
						res, err := c.Run(segs, machine.DefaultConfig())
						if err != nil {
							t.Fatalf("%s: %v", layout, err)
						}
						checkConservation(t, layout, c.Prog, comp.Bind, segs, c.Iters, res)
					}
				})
			}
		}
	}
}
