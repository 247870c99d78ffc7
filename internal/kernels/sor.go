// Successive over-relaxation on a processor ring with the Section 5 /
// Table 4 column distribution: processor p holds the column block of A,
// the matching blocks of X and B, and a replicated V.
//
// Two implementations:
//
//   - SORNaive follows the "naive algorithm" of Section 5: at step i every
//     processor computes its partial inner product, a Reduction combines
//     the partials at the owner of X(i), which updates it. Every step
//     costs a reduction; processors idle while it runs.
//
//   - SORPipelinedChunked (SORPipelined at one value per message) is
//     the Fig 5 / Fig 6 wavefront: the partial sum V(i)
//     is seeded by the owner of row i's columns and circulates once
//     around the ring, accumulating each processor's contribution, so the
//     inner products of different rows overlap. Phase structure per
//     sweep (matching the generated code in Fig 6):
//
//     1. rows owned by processors to my left: receive V, add my
//     contribution (old X), forward;
//     2. my rows: seed V with my upper-triangle contribution (old X),
//     send right;
//     3. my rows: receive the completed V after its round trip, add my
//     lower-triangle contribution (new X), update X;
//     4. rows owned by processors to my right: receive V, add my
//     contribution (new X), forward.
package kernels

import (
	"fmt"

	"dmcc/internal/grid"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

// sorLocal is the per-processor state of the column distribution.
type sorLocal struct {
	m, n, blk, me int
	lo, hi        int         // my global column range [lo, hi)
	a             [][]float64 // a[i] = row i restricted to my columns
	x, b          []float64   // my X and B blocks
}

func newSORLocal(p *machine.Proc, a *matrix.Dense, b, x0 []float64, n int) *sorLocal {
	m := a.Rows
	blk := m / n
	me := p.Rank()
	l := &sorLocal{m: m, n: n, blk: blk, me: me, lo: me * blk, hi: (me + 1) * blk}
	l.a = make([][]float64, m)
	for i := 0; i < m; i++ {
		l.a[i] = append([]float64(nil), a.Row(i)[l.lo:l.hi]...)
	}
	l.x = append([]float64(nil), x0[l.lo:l.hi]...)
	l.b = append([]float64(nil), b[l.lo:l.hi]...)
	return l
}

// partial computes sum over my columns of A(i,j) X(j) and charges flops.
func (l *sorLocal) partial(p *machine.Proc, i int) float64 {
	s := 0.0
	row := l.a[i]
	for j, xv := range l.x {
		s += row[j] * xv
	}
	p.Compute(2 * l.blk)
	return s
}

// SORNaive runs iters sweeps of the naive reduction-per-step SOR.
func SORNaive(cfg machine.Config, a *matrix.Dense, b, x0 []float64, omega float64, iters, n int) (Result, error) {
	m := a.Rows
	if err := checkDivisible(m, n, "sor"); err != nil {
		return Result{}, err
	}
	return solve(grid.New(n), cfg, m, func(p *machine.Proc, out []float64) {
		l := newSORLocal(p, a, b, x0, n)
		for it := 0; it < iters; it++ {
			for i := 0; i < m; i++ {
				owner := i / l.blk
				temp := l.partial(p, i)
				v := p.Reduction([]int{0}, owner, []machine.Word{temp}, machine.SumOp)
				if p.Rank() == owner {
					li := i - l.lo
					l.x[li] += omega * (l.b[li] - v[0]) / l.a[i][li]
					p.Compute(4)
				}
			}
		}
		for li, xv := range l.x {
			out[l.lo+li] = xv
		}
	})
}

// SORPipelined runs iters sweeps of the Fig 6 ring-pipelined SOR: one
// partial sum per message, the chunk = 1 grain of SORPipelinedChunked.
func SORPipelined(cfg machine.Config, a *matrix.Dense, b, x0 []float64, omega float64, iters, n int) (Result, error) {
	return SORPipelinedChunked(cfg, a, b, x0, omega, iters, n, 1)
}

// SORPipelinedChunked is the Fig 6 pipeline with a chosen pipelining
// grain: the circulating partial sums travel chunk values per message.
// Fewer, larger messages amortize the per-message startup cost Alpha at
// the price of a longer wavefront fill — the classic pipelining
// granularity trade-off, benchmarked by BenchmarkAblationChunkSize.
// chunk must divide the block size m/n.
func SORPipelinedChunked(cfg machine.Config, a *matrix.Dense, b, x0 []float64, omega float64, iters, n, chunk int) (Result, error) {
	m := a.Rows
	if err := checkDivisible(m, n, "sor"); err != nil {
		return Result{}, err
	}
	if chunk < 1 || (m/n)%chunk != 0 {
		return Result{}, fmt.Errorf("kernels: sor: chunk %d must divide the block size %d", chunk, m/n)
	}
	return solve(grid.New(n), cfg, m, func(p *machine.Proc, out []float64) {
		l := newSORLocal(p, a, b, x0, n)
		right := p.Grid().NeighbourPlus(p.Rank(), 0)
		left := p.Grid().NeighbourMinus(p.Rank(), 0)
		before := l.lo
		for it := 0; it < iters; it++ {
			// Phase 1: rows of left processors (they precede my block's
			// update this sweep, so my contribution uses old X). Temps are
			// computed before receiving so the wave's transit overlaps
			// with computation.
			temps := make([]machine.Word, chunk)
			for base := 0; base < before; base += chunk {
				for o := 0; o < chunk; o++ {
					temps[o] = l.partial(p, base+o)
				}
				vs := p.Recv(left)
				for o := 0; o < chunk; o++ {
					vs[o] += temps[o]
					p.Compute(1)
				}
				p.Send(right, vs)
			}
			// Phase 2: seed my rows with the upper-triangle part (old X).
			for base := 0; base < l.blk; base += chunk {
				vs := make([]machine.Word, chunk)
				for o := 0; o < chunk; o++ {
					li := base + o
					i := before + li
					s := 0.0
					for j := li; j < l.blk; j++ {
						s += l.a[i][j] * l.x[j]
					}
					p.Compute(2 * (l.blk - li))
					vs[o] = s
				}
				p.Send(right, vs)
			}
			// Phase 3: complete my rows (new X for the lower triangle) and
			// update X, in row order inside the chunk as SOR requires.
			// The first row's lower-triangle part depends only on earlier
			// chunks, so it is computed before the receive; later rows in
			// the chunk read X values updated inside the chunk.
			for base := 0; base < l.blk; base += chunk {
				first := 0.0
				for j := 0; j < base; j++ {
					first += l.a[before+base][j] * l.x[j]
				}
				if base > 0 {
					p.Compute(2 * base)
				}
				vs := p.Recv(left)
				for o := 0; o < chunk; o++ {
					li := base + o
					i := before + li
					temp := first
					if o > 0 {
						temp = 0.0
						for j := 0; j < li; j++ {
							temp += l.a[i][j] * l.x[j]
						}
						p.Compute(2 * li)
					}
					v := vs[o] + temp
					l.x[li] += omega * (l.b[li] - v) / l.a[i][li]
					p.Compute(5)
				}
			}
			// Phase 4: rows of right processors (their diagonal is right
			// of my columns, so my contribution uses new X); compute before
			// receive, as in phase 1.
			for base := l.hi; base < m; base += chunk {
				for o := 0; o < chunk; o++ {
					temps[o] = l.partial(p, base+o)
				}
				vs := p.Recv(left)
				for o := 0; o < chunk; o++ {
					vs[o] += temps[o]
					p.Compute(1)
				}
				p.Send(right, vs)
			}
		}
		for li, xv := range l.x {
			out[l.lo+li] = xv
		}
	})
}
