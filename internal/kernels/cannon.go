// Cannon's matrix multiplication A = B * C on a q x q grid (N = q^2
// processors), the Section 2.1 example of dependent ("rotated") 2-D data
// distributions.
//
// Initial layouts follow Fig 1: A is plainly blocked (a); B's column
// blocks are rotated by its row block, fB(block b1,b2) = (b1,
// (-b1-b2) mod q) (b); C's row blocks are rotated by its column block,
// fC(c1,c2) = ((-c1-c2) mod q, c2) (c). Processor (i,j) therefore starts
// holding B block (i, k0) and C block (k0, j) with k0 = (-i-j) mod q, a
// multipliable pair; q multiply-shift steps (B one step along the row
// ring, C one step along the column ring) complete the product.
package kernels

import (
	"fmt"

	"dmcc/internal/grid"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

// Cannon multiplies B * C on a q x q processor grid and returns the
// product plus machine statistics. The matrix size must be divisible by q.
func Cannon(cfg machine.Config, bMat, cMat *matrix.Dense, q int) (*matrix.Dense, machine.Stats, error) {
	m := bMat.Rows
	if err := checkDivisible(m, q, "cannon"); err != nil {
		return nil, machine.Stats{}, err
	}
	if bMat.Cols != m || cMat.Rows != m || cMat.Cols != m {
		return nil, machine.Stats{}, fmt.Errorf("kernels: cannon: matrices must be square and equal-sized")
	}
	blk := m / q
	g := grid.New(q, q)
	mach, err := machine.New(g, cfg)
	if err != nil {
		return nil, machine.Stats{}, err
	}
	out := matrix.NewDense(m, m)

	extract := func(src *matrix.Dense, bi, bj int) []machine.Word {
		buf := make([]machine.Word, 0, blk*blk)
		for i := bi * blk; i < (bi+1)*blk; i++ {
			buf = append(buf, src.Row(i)[bj*blk:(bj+1)*blk]...)
		}
		return buf
	}

	st, err := mach.Run(func(p *machine.Proc) {
		pi, pj := p.Coord(0), p.Coord(1)
		k0 := ((-pi-pj)%q + q) % q
		// Initial skewed blocks per Fig 1 (b) and (c).
		bBlk := extract(bMat, pi, k0)
		cBlk := extract(cMat, k0, pj)
		acc := make([]machine.Word, blk*blk)

		for step := 0; step < q; step++ {
			// Local block multiply-accumulate.
			for i := 0; i < blk; i++ {
				for k := 0; k < blk; k++ {
					bv := bBlk[i*blk+k]
					if bv == 0 {
						continue
					}
					crow := cBlk[k*blk:]
					arow := acc[i*blk:]
					for j := 0; j < blk; j++ {
						arow[j] += bv * crow[j]
					}
				}
			}
			p.Compute(2 * blk * blk * blk)
			if step == q-1 {
				break
			}
			// Rotate: B moves one step left along the row ring, C one
			// step up along the column ring, so the k blocks advance.
			bBlk = p.Shift(1, -1, bBlk)
			cBlk = p.Shift(0, -1, cBlk)
		}

		// Deposit my block of the product (disjoint ranges per processor).
		for i := 0; i < blk; i++ {
			copy(out.Row(pi*blk + i)[pj*blk:(pj+1)*blk], acc[i*blk:(i+1)*blk])
		}
	})
	if err != nil {
		return nil, st, err
	}
	return out, st, nil
}
