// Jacobi's iterative algorithm on an N1 x N2 processor grid.
//
// The data distribution follows Section 3 (Equation 1) for general grids
// and specializes to the Section 4 / Table 3 row scheme when N2 = 1:
//
//   - A is blocked N1 x N2: processor (p1,p2) holds rows of row-block p1
//     and columns of column-block p2;
//   - X and B are blocked along the columns (aligned with A2) and
//     replicated along grid dimension 1;
//   - V is blocked along the rows (aligned with A1) and, after the
//     per-row reduction, replicated along grid dimension 2.
//
// One iteration:
//
//  1. every processor computes the partial products of its A block
//     against its X block (line 5 of the listing);
//  2. an AllReduce along grid dimension 2 completes V for the row block
//     (the Reduction term of Table 2);
//  3. the processor owning both row i and column i updates X(i)
//     (line 8);
//  4. the updated X sub-blocks are multicast along grid dimension 1
//     (the loop-carried-dependence term).
//
// On an N x 1 grid steps 2-3 are communication-free and step 4 is the
// single ManyToMany exchange of the Section 4 scheme, reproducing
// (2m^2/N + 3m/N)tf + ~m tc per iteration.
package kernels

import (
	"dmcc/internal/grid"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

// JacobiGrid runs iters Jacobi iterations of A x = b on an n1 x n2 grid
// and returns the final x and machine statistics.
func JacobiGrid(cfg machine.Config, a *matrix.Dense, b, x0 []float64, iters, n1, n2 int) (Result, error) {
	m := a.Rows
	if err := checkDivisible(m, n1, "jacobi rows"); err != nil {
		return Result{}, err
	}
	if err := checkDivisible(m, n2, "jacobi cols"); err != nil {
		return Result{}, err
	}
	rowsPer := m / n1
	colsPer := m / n2
	return solve(grid.New(n1, n2), cfg, m, func(p *machine.Proc, out []float64) {
		p1, p2 := p.Coord(0), p.Coord(1)
		rLo := p1 * rowsPer // my global row range [rLo, rHi)
		rHi := rLo + rowsPer
		cLo := p2 * colsPer // my global column range [cLo, cHi)
		cHi := cLo + colsPer

		// Local storage: my A block, the full X column block (replicated
		// along dim 1), B for the indices I update, the V row block.
		aBlk := make([][]float64, rowsPer)
		for i := range aBlk {
			aBlk[i] = append([]float64(nil), a.Row(rLo + i)[cLo:cHi]...)
		}
		x := append([]float64(nil), x0[cLo:cHi]...)
		bLoc := append([]float64(nil), b[cLo:cHi]...)
		v := make([]machine.Word, rowsPer)

		for it := 0; it < iters; it++ {
			// (1) partial products of my block.
			for i := 0; i < rowsPer; i++ {
				s := 0.0
				for j := 0; j < colsPer; j++ {
					s += aBlk[i][j] * x[j]
				}
				v[i] = s
			}
			p.Compute(2 * rowsPer * colsPer)

			// (2) complete V along the row (grid dim 1).
			if n2 > 1 {
				v = p.AllReduce([]int{1}, v, machine.SumOp)
			}

			// (3) update the X entries whose row and column blocks are
			// both mine.
			lo := max(rLo, cLo)
			hi := min(rHi, cHi)
			for i := lo; i < hi; i++ {
				diag := aBlk[i-rLo][i-cLo]
				x[i-cLo] += (bLoc[i-cLo] - v[i-rLo]) / diag
			}
			if hi > lo {
				p.Compute(3 * (hi - lo))
			}

			// (4) all-gather the updated X sub-blocks along grid dim 1 so
			// the whole column block is fresh everywhere: the loop-carried
			// dependence of X, ManyToManyMulticast(m/N, N) in Section 4.
			if n1 > 1 {
				var mine []machine.Word
				if lo, hi := max(rLo, cLo), min(rHi, cHi); hi > lo {
					mine = x[lo-cLo : hi-cLo]
				}
				all := p.ManyToManyMulticast([]int{0}, mine)
				for r := 0; r < n1; r++ {
					sLo := max(r*rowsPer, cLo)
					sHi := min((r+1)*rowsPer, cHi)
					if sLo >= sHi {
						continue
					}
					copy(x[sLo-cLo:sHi-cLo], all[r])
				}
			}
		}

		// Deposit the final X: the diagonal-block owners hold the fresh
		// values and their ranges are disjoint.
		lo := max(rLo, cLo)
		hi := min(rHi, cHi)
		for i := lo; i < hi; i++ {
			out[i] = x[i-cLo]
		}
	})
}
