// Cross-validation tests: the compiler's closed-form cost model and
// redistribution pricing checked against what the hand-written kernels do
// on the simulated machine. The counter the DP prices with is held to the
// compiled code the machine runs, nest by nest, by exec's
// TestConservationPerNest.
package dmcc_test

import (
	"fmt"
	"math"
	"testing"

	"dmcc/internal/cost"
	"dmcc/internal/dist"
	"dmcc/internal/grid"
	"dmcc/internal/kernels"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

// TestClosedFormTracksMachineJacobi: the Table 2 closed forms and the
// simulated makespans must order the grid shapes identically and agree
// on the 1xN shape (whose collectives map 1:1 onto the formula terms).
func TestClosedFormTracksMachineJacobi(t *testing.T) {
	m, n, iters := 64, 16, 2
	a, b, _ := matrix.DiagonallyDominant(m, 21)
	x0 := make([]float64, m)
	c := cost.Unit()

	type point struct {
		model, sim float64
	}
	shapes := [][2]int{{1, n}, {n, 1}}
	pts := map[string]point{}
	for _, s := range shapes {
		res, err := kernels.JacobiGrid(machine.DefaultConfig(), a, b, x0, iters, s[0], s[1])
		if err != nil {
			t.Fatal(err)
		}
		pts[key(s)] = point{
			model: c.JacobiIteration(m, s[0], s[1]).Total() * float64(iters),
			sim:   res.Stats.ParallelTime,
		}
	}
	// Exact agreement on 1xN: reduction + update + no row exchange.
	p1 := pts["1x16"]
	if math.Abs(p1.model-p1.sim) > 1e-9 {
		t.Errorf("1xN: model %v != simulated %v", p1.model, p1.sim)
	}
	// Same winner under both measures.
	p2 := pts["16x1"]
	if (p1.model < p2.model) != (p1.sim < p2.sim) {
		t.Errorf("model and machine disagree on the winner: model %v/%v, sim %v/%v",
			p1.model, p2.model, p1.sim, p2.sim)
	}
}

func key(s [2]int) string {
	return fmt.Sprintf("%dx%d", s[0], s[1])
}

// TestSORBoundHolds: the Section 5 closed-form bound dominates the
// measured pipelined makespan across sizes (after adding the update
// flops the bound omits).
func TestSORBoundHolds(t *testing.T) {
	c := cost.Unit()
	for _, mn := range [][2]int{{32, 4}, {64, 4}, {64, 8}} {
		m, n := mn[0], mn[1]
		a, b, _ := matrix.DiagonallyDominant(m, 25)
		x0 := make([]float64, m)
		res, err := kernels.SORPipelined(machine.DefaultConfig(), a, b, x0, 1.2, 2, n)
		if err != nil {
			t.Fatal(err)
		}
		perIter := res.Stats.ParallelTime / 2
		bound := c.SORPipelinedIteration(m, n).Total() + 5*float64(m) // update flops
		if perIter > bound {
			t.Errorf("m=%d n=%d: measured %v exceeds bound %v", m, n, perIter, bound)
		}
	}
}

// TestRedistributionPlanMatchesChangeCost: the enumeration oracle and
// the closed form the compiler's ChangeCost prices with agree on what a
// row->column switch moves for the A matrix.
func TestRedistributionPlanMatchesChangeCost(t *testing.T) {
	m, n := 16, 4
	g := grid.New(n, 1)
	rows := dist.Scheme2D(dist.BlockContiguous(m, n, 0), dist.Dim{Sign: 1, Disp: -1, Block: m, GridDim: 1}, nil)
	cols := dist.Scheme2D(dist.Dim{Sign: 1, Disp: -1, Block: m, GridDim: 1}, dist.BlockContiguous(m, n, 0), nil)
	fast, err := dist.RedistLoads(g, g, []int{m, m}, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	// Off-diagonal blocks move: m^2 (1 - 1/N), perfectly balanced — every
	// processor receives and sends total/N.
	want := float64(m*m - m*(m/n))
	for name, l := range map[string]dist.Loads{"oracle": dist.RedistLoadsExact(g, g, []int{m, m}, rows, cols), "closed form": fast} {
		if l.Words != want {
			t.Errorf("%s moves %v words, want %v", name, l.Words, want)
		}
		for r := 0; r < n; r++ {
			if l.In[r] != want/float64(n) || l.Out[r] != want/float64(n) {
				t.Errorf("%s balance at rank %d: in %v out %v, want %v", name, r, l.In[r], l.Out[r], want/float64(n))
			}
		}
	}
}
