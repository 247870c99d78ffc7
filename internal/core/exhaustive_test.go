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
// every grid shape per segment, as shapeCosts prices them — Σ segment +
// Σ ChangeCost + the final set's LoopCarriedCost — and returns the
// cheapest price and a description of the choice that attains it.
func exhaustiveMin(t *testing.T, c *Compiler) (float64, string) {
	t.Helper()
	s := len(c.Program.Nests)
	type priced struct {
		sets  []*SchemeSet
		costs []float64
	}
	cands := map[[2]int]priced{}
	for i := 1; i <= s; i++ {
		for j := 1; i+j-1 <= s; j++ {
			sets, costs, err := c.shapeCosts(i, j)
			if err != nil {
				t.Fatal(err)
			}
			cands[[2]int{i, j}] = priced{sets, costs}
		}
	}
	best, bestDesc := math.Inf(1), ""
	var walk func(start int, prev *SchemeSet, sum float64, desc []string)
	walk = func(start int, prev *SchemeSet, sum float64, desc []string) {
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
				d := fmt.Sprintf("L%d..L%d:%v", start, start+j-1, GridShapes(c.NProcs)[k])
				walk(start+j, ss, price, append(desc[:len(desc):len(desc)], d))
			}
		}
	}
	walk(1, nil, 0, nil)
	return best, bestDesc
}

// TestAlgorithm1MatchesExhaustiveSearch: under the compiler's own segment,
// change and loop-carried costs, Algorithm 1's minimum equals the cheapest
// of every segmentation × every grid shape per segment — keeping only each
// segment's cheapest shape, as the DP does, loses nothing on these
// programs.
func TestAlgorithm1MatchesExhaustiveSearch(t *testing.T) {
	progs := []*ir.Program{ir.Jacobi(), ir.SOR(), ir.Gauss()}
	for s := 3; s <= 8; s++ {
		progs = append(progs, ir.Synthetic(s))
	}
	for _, p := range progs {
		for _, m := range []int{16, 64} {
			for _, n := range []int{4, 16, 64} {
				c := NewCompiler(p, cost.Unit(), map[string]int{"m": m}, n)
				c.Jobs = 1
				dp, err := RunDP(len(p.Nests), c, p.Iterative)
				if err != nil {
					t.Fatalf("%s m=%d N=%d: %v", p.Name, m, n, err)
				}
				ex, desc := exhaustiveMin(t, c)
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
}
