package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dmcc/internal/cost"
	"dmcc/internal/ir"
)

// exhaustiveMin prices every segmentation of the program's nests with
// each of the shapes per segment, as Candidates prices them — Σ segment +
// Σ ChangeCost + the final set's LoopCarriedCost — and returns the
// cheapest price and a description of the choice that attains it. Every
// term is non-negative, so a partial sum already at the best is pruned.
func exhaustiveMin(t *testing.T, c *Compiler, shapes [][2]int) (float64, string) {
	t.Helper()
	s := len(c.Program.Nests)
	type priced struct {
		sets  []*SchemeSet
		costs []float64
	}
	cands := map[[2]int]priced{}
	for i := 1; i <= s; i++ {
		for j := 1; i+j-1 <= s; j++ {
			sets, costs, err := c.Candidates(i, j, shapes)
			if err != nil {
				t.Fatal(err)
			}
			cands[[2]int{i, j}] = priced{sets, costs}
		}
	}
	best, bestDesc := math.Inf(1), ""
	var walk func(start int, prev *SchemeSet, sum float64, desc []string)
	walk = func(start int, prev *SchemeSet, sum float64, desc []string) {
		if sum >= best {
			return
		}
		if start > s {
			lc, err := c.LoopCarriedCost(prev)
			if err != nil {
				t.Fatal(err)
			}
			if sum+lc < best {
				best, bestDesc = sum+lc, strings.Join(desc, " ")
			}
			return
		}
		for j := 1; start+j-1 <= s; j++ {
			pr := cands[[2]int{start, j}]
			for k, ss := range pr.sets {
				price := sum + pr.costs[k]
				if prev != nil {
					chg, err := c.ChangeCost(prev, ss)
					if err != nil {
						t.Fatal(err)
					}
					price += chg
				}
				d := fmt.Sprintf("L%d..L%d:%v", start, start+j-1, shapes[k])
				walk(start+j, ss, price, append(desc[:len(desc):len(desc)], d))
			}
		}
	}
	walk(1, nil, 0, nil)
	return best, bestDesc
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

// compileDP runs Algorithm 1 on a serial compiler of p at size m on n
// processors.
func compileDP(t *testing.T, p *ir.Program, m, n int) (*Compiler, *DPResult) {
	t.Helper()
	c := NewCompiler(p, cost.Unit(), map[string]int{"m": m}, n)
	c.Jobs = 1
	dp, err := RunDP(len(p.Nests), c, p.Iterative)
	if err != nil {
		t.Fatalf("%s m=%d N=%d: %v", p.Name, m, n, err)
	}
	return c, dp
}

// TestAlgorithm1MatchesExhaustiveSearch: under the compiler's own segment,
// change and loop-carried costs, Algorithm 1's minimum equals the cheapest
// of every segmentation × every GridShapes shape per segment — keeping
// only each segment's cheapest shape, as the DP does, loses nothing on
// these programs.
//
// Widened to every factor pair r x N/r, which GridShapes leaves out at
// non-square N, the search sees a superset of the DP's plans, so its
// minimum can only be at or below the DP's; the gap is what the paper's
// shape set costs, logged per (program, m, N). ir.Stencil stays out of
// the equality: its shapes are chosen before its loop-carried term is
// priced (ROADMAP 1(e)).
func TestAlgorithm1MatchesExhaustiveSearch(t *testing.T) {
	progs := []*ir.Program{ir.Jacobi(), ir.SOR(), ir.Gauss()}
	for s := 3; s <= 8; s++ {
		progs = append(progs, ir.Synthetic(s))
	}
	for _, p := range progs {
		for _, m := range []int{16, 64} {
			for _, n := range []int{4, 16, 64} {
				c, dp := compileDP(t, p, m, n)
				ex, desc := exhaustiveMin(t, c, GridShapes(n))
				if math.Abs(dp.MinimumCost-ex) > 1e-9*math.Max(1, math.Abs(ex)) {
					var segs []string
					for _, sg := range dp.Segments {
						segs = append(segs, fmt.Sprintf("L%d..L%d", sg.Start, sg.Start+sg.Len-1))
					}
					cheaper := "exhaustive: " + desc
					if dp.MinimumCost < ex {
						cheaper = "DP: " + strings.Join(segs, " ")
					}
					t.Errorf("%s m=%d N=%d: DP minimum %v, exhaustive minimum %v; cheaper is %s\n%s",
						p.Name, m, n, dp.MinimumCost, ex, cheaper, ir.Print(p))
				}
			}
		}
	}

	matmul, _ := ir.Builtin("matmul")
	progs = append(progs[:3:3], matmul, ir.Stencil())
	for s := 3; s <= 8; s++ {
		progs = append(progs, ir.Synthetic(s))
	}
	for _, p := range progs {
		for _, m := range []int{16, 64} {
			for _, n := range []int{6, 8, 12, 32, 64, 128} {
				c, dp := compileDP(t, p, m, n)
				ex, desc := exhaustiveMin(t, c, factorPairs(n))
				if ex > dp.MinimumCost+1e-9*math.Max(1, dp.MinimumCost) {
					t.Errorf("%s m=%d N=%d: every factor pair's minimum %v is above the DP's %v", p.Name, m, n, ex, dp.MinimumCost)
				} else if ex < dp.MinimumCost {
					t.Logf("%s m=%d N=%d: DP %v, every factor pair %v (%s)", p.Name, m, n, dp.MinimumCost, ex, desc)
				}
			}
		}
	}
}

// TestCandidatesRefusesAnotherProcessorCount: Candidates prices a shape
// only on the compiler's own processor count.
func TestCandidatesRefusesAnotherProcessorCount(t *testing.T) {
	c := NewCompiler(ir.Jacobi(), cost.Unit(), map[string]int{"m": 16}, 4)
	if _, _, err := c.Candidates(1, 2, [][2]int{{2, 2}, {2, 3}}); err == nil || !strings.Contains(err.Error(), "2x3 is not 4 processors") {
		t.Fatalf("2x3 on 4 processors: %v", err)
	}
}
