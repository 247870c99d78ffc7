// A relaxation stencil: the Section 1 case where "dependent data only
// influence neighboring data", so the component-alignment distribution
// needs only nearest-neighbour Shift communication (ghost cells) — no
// reductions, no multicasts, no pipelining required.
//
//	DO k = 1, iters
//	  DO i = 2, m-1
//	    Y(i) = (X(i-1) + X(i) + X(i+1)) / 3
//	  DO i = 2, m-1
//	    X(i) = Y(i)
//
// Block distribution of X and Y over a ring; each sweep exchanges one
// boundary element with each neighbour: 2 words per processor per sweep,
// independent of m — the cheapest communication class in the paper's
// taxonomy.
package kernels

import (
	"dmcc/internal/grid"
	"dmcc/internal/machine"
)

// StencilSeq is the sequential reference: iters sweeps of the three-point
// average with fixed boundary values.
func StencilSeq(x0 []float64, iters int) []float64 {
	m := len(x0)
	x := append([]float64(nil), x0...)
	y := make([]float64, m)
	for k := 0; k < iters; k++ {
		copy(y, x)
		for i := 1; i < m-1; i++ {
			y[i] = (x[i-1] + x[i] + x[i+1]) / 3
		}
		copy(x, y)
	}
	return x
}

// Stencil runs the relaxation on an n-processor ring with block
// distribution and ghost-cell exchange.
func Stencil(cfg machine.Config, x0 []float64, iters, n int) (Result, error) {
	m := len(x0)
	if err := checkDivisible(m, n, "stencil"); err != nil {
		return Result{}, err
	}
	blk := m / n
	return solve(grid.New(n), cfg, m, func(p *machine.Proc, out []float64) {
		me := p.Rank()
		lo := me * blk
		// Local block with two ghost cells.
		x := make([]float64, blk+2)
		copy(x[1:], x0[lo:lo+blk])
		y := make([]float64, blk+2)
		right := p.Grid().NeighbourPlus(me, 0)
		left := p.Grid().NeighbourMinus(me, 0)

		for k := 0; k < iters; k++ {
			// Ghost exchange: my first element goes left, my last goes
			// right; ring wraparound values land in the ghost cells but
			// are ignored at the global boundary.
			if n > 1 {
				p.SendValue(right, x[blk])
				p.SendValue(left, x[1])
				x[0] = p.RecvValue(left)
				x[blk+1] = p.RecvValue(right)
			}
			copy(y, x)
			flops := 0
			for li := 1; li <= blk; li++ {
				gi := lo + li - 1
				if gi == 0 || gi == m-1 {
					continue // fixed boundary
				}
				y[li] = (x[li-1] + x[li] + x[li+1]) / 3
				flops += 3
			}
			p.Compute(flops)
			copy(x, y)
		}
		for li := 1; li <= blk; li++ {
			out[lo+li-1] = x[li]
		}
	})
}
