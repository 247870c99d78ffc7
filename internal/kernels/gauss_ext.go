// Extensions of the Section 6 Gauss kernels:
//
//   - GaussPipelinedBlockCyclic generalizes the cyclic row distribution
//     to block-cyclic blocks (Fig 1 (f)/(h) style), so the load-balance
//     choice of Section 6 can be measured on the executing kernel: block
//     size 1 is the paper's cyclic layout, block size m/N is contiguous.
//
//   - GaussPartialPivot adds partial (row) pivoting — the numerical
//     stability extension. The pivot search is a Reduction with a
//     max-|value| operator over the ring (one more collective per step),
//     and the row swap is a point-to-point exchange between the two
//     owners; everything else pipelines as in Fig 8.
package kernels

import (
	"fmt"
	"math"

	"dmcc/internal/grid"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

// newGaussLocalOwner takes the rows ownerOf assigns to p; the Section 6
// cyclic distribution is ownerOf(i) = i mod N.
func newGaussLocalOwner(p *machine.Proc, a *matrix.Dense, b []float64, ownerOf func(int) int) *gaussLocal {
	m := a.Rows
	me := p.Rank()
	g := &gaussLocal{m: m, me: me, rowPos: map[int]int{}}
	for i := 0; i < m; i++ {
		if ownerOf(i) != me {
			continue
		}
		g.rowPos[i] = len(g.rows)
		g.rows = append(g.rows, i)
		g.a = append(g.a, append([]float64(nil), a.Row(i)...))
		g.l = append(g.l, make([]float64, m))
		g.b = append(g.b, b[i])
		g.v = append(g.v, 0)
		g.x = append(g.x, 0)
	}
	return g
}

// pivotStep is one elimination step of Fig 8: pivot row k travels
// rightward from its owner, each processor forwarding it before its own
// update so the wave advances, and stops at the owner's left neighbour.
func (g *gaussLocal) pivotStep(p *machine.Proc, k, owner int) {
	right := p.Grid().NeighbourPlus(p.Rank(), 0)
	var payload []machine.Word
	if p.Rank() == owner {
		payload = g.pivotPayload(k)
		if p.Grid().Size() > 1 {
			p.Send(right, payload)
		}
	} else {
		payload = p.Recv(p.Grid().NeighbourMinus(p.Rank(), 0))
		if right != owner {
			p.Send(right, payload)
		}
	}
	g.eliminate(p, k, payload[:len(payload)-1], payload[len(payload)-1])
}

// backSubstitute is Fig 8's second half: each X(j) travels leftward from
// its owner the same way, folded into the V accumulators as it passes.
func (g *gaussLocal) backSubstitute(p *machine.Proc, ownerOf func(int) int) {
	left := p.Grid().NeighbourMinus(p.Rank(), 0)
	for j := g.m - 1; j >= 0; j-- {
		owner := ownerOf(j)
		var xj float64
		if p.Rank() == owner {
			pos := g.rowPos[j]
			xj = (g.b[pos] - g.v[pos]) / g.a[pos][j]
			p.Compute(2)
			g.x[pos] = xj
			if p.Grid().Size() > 1 {
				p.SendValue(left, xj)
			}
		} else {
			xj = p.RecvValue(p.Grid().NeighbourPlus(p.Rank(), 0))
			if left != owner {
				p.SendValue(left, xj)
			}
		}
		g.backUpdate(p, j, xj)
	}
}

// gaussPipelineRun is the Fig 8 pipeline parameterized by the row->owner
// map; GaussPipelined is the ownerOf(i) = i mod N instance.
func gaussPipelineRun(cfg machine.Config, a *matrix.Dense, b []float64, n int, ownerOf func(int) int) (Result, error) {
	m := a.Rows
	if err := checkRing(m, n); err != nil {
		return Result{}, err
	}
	return solve(grid.New(n), cfg, m, func(p *machine.Proc, out []float64) {
		l := newGaussLocalOwner(p, a, b, ownerOf)
		for k := 0; k < m; k++ {
			l.pivotStep(p, k, ownerOf(k))
		}
		l.backSubstitute(p, ownerOf)
		for pos, i := range l.rows {
			out[i] = l.x[pos]
		}
	})
}

// GaussPipelinedBlockCyclic solves A x = b with the Fig 8 pipeline on a
// block-cyclic row distribution: row i lives on processor
// (floor(i/block)) mod N. block = 1 is GaussPipelined's layout.
func GaussPipelinedBlockCyclic(cfg machine.Config, a *matrix.Dense, b []float64, n, block int) (Result, error) {
	if block < 1 {
		return Result{}, fmt.Errorf("kernels: gauss: block size %d must be at least 1", block)
	}
	return gaussPipelineRun(cfg, a, b, n, func(i int) int { return (i / block) % n })
}

// maxAbsPairOp reduces (|value|, row) pairs keeping the largest absolute
// value; ties prefer the smaller row index, matching the sequential
// first-maximum pivot choice.
func maxAbsPairOp(acc, in []machine.Word) {
	if in[0] > acc[0] || (in[0] == acc[0] && in[1] < acc[1]) {
		acc[0], acc[1] = in[0], in[1]
	}
}

// GaussPartialPivot solves A x = b on a ring with cyclic rows and partial
// pivoting. Per elimination step: a Reduction finds the largest |A(i,k)|
// over the remaining rows, the two owners exchange the rows, then the
// pivot row pipelines as in Fig 8.
func GaussPartialPivot(cfg machine.Config, a *matrix.Dense, b []float64, n int) (Result, error) {
	m := a.Rows
	if err := checkRing(m, n); err != nil {
		return Result{}, err
	}
	ownerOf := func(i int) int { return i % n }
	return solve(grid.New(n), cfg, m, func(p *machine.Proc, out []float64) {
		l := newGaussLocalOwner(p, a, b, ownerOf)
		for k := 0; k < m; k++ {
			// 1. Distributed pivot search over rows >= k.
			best := []machine.Word{-1, machine.Word(m)}
			for pos, i := range l.rows {
				if i < k {
					continue
				}
				if v := math.Abs(l.a[pos][k]); v > float64(best[0]) {
					best[0], best[1] = v, machine.Word(i)
				}
			}
			p.Compute(len(l.rows)) // comparison work
			global := p.AllReduce([]int{0}, best, maxAbsPairOp)
			piv := int(global[1])

			// 2. Row exchange between owner(k) and owner(piv).
			if piv != k {
				ok, op := ownerOf(k), ownerOf(piv)
				switch {
				case ok == op && p.Rank() == ok:
					pk, pp := l.rowPos[k], l.rowPos[piv]
					l.a[pk], l.a[pp] = l.a[pp], l.a[pk]
					l.l[pk], l.l[pp] = l.l[pp], l.l[pk]
					l.b[pk], l.b[pp] = l.b[pp], l.b[pk]
				case p.Rank() == ok:
					pk := l.rowPos[k]
					p.Send(op, append(append(append([]machine.Word{}, l.a[pk]...), l.l[pk]...), l.b[pk]))
					in := p.Recv(op)
					copy(l.a[pk], in[:l.m])
					copy(l.l[pk], in[l.m:2*l.m])
					l.b[pk] = in[2*l.m]
				case p.Rank() == op:
					pp := l.rowPos[piv]
					p.Send(ok, append(append(append([]machine.Word{}, l.a[pp]...), l.l[pp]...), l.b[pp]))
					in := p.Recv(ok)
					copy(l.a[pp], in[:l.m])
					copy(l.l[pp], in[l.m:2*l.m])
					l.b[pp] = in[2*l.m]
				}
			}

			// 3. Pipeline the pivot row and eliminate (Fig 8).
			l.pivotStep(p, k, ownerOf(k))
		}
		l.backSubstitute(p, ownerOf)
		for pos, i := range l.rows {
			out[i] = l.x[pos]
		}
	})
}
