// Gauss elimination on a processor ring with the Section 6 cyclic row
// distribution: fA(i,:) = fL(i,:) = fV(i) = fB(i) = fX(i) = (i-1) mod N.
//
// Two implementations of the communication:
//
//   - GaussBroadcast is the naive compiler output Section 6 warns about:
//     for every pivot k the owner OneToManyMulticasts the pivot row and
//     B(k) to the whole ring, and during back substitution every X(j) is
//     multicast as well.
//
//   - GaussPipelined applies the Table 5 transformation: every travelling
//     token has dependence mapping mu.d = 1, so multicasts become Shift
//     operations — the pivot row is received from the left, forwarded to
//     the right *before* the local update (letting the wave advance), and
//     X values flow leftward the same way, as in the generated code of
//     Fig 8.
package kernels

import (
	"dmcc/internal/grid"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

// gaussLocal is the per-processor state of a row distribution.
type gaussLocal struct {
	m, me  int
	rows   []int       // my global row indices, ascending
	rowPos map[int]int // global row -> local position
	a      [][]float64 // my rows of A (full width m)
	l      [][]float64 // my rows of L (multipliers)
	b      []float64
	v      []float64
	x      []float64
}

// eliminate applies pivot row k (pivA = A(k, k..m-1), pivB = B(k)) to all
// of my rows below k.
func (g *gaussLocal) eliminate(p *machine.Proc, k int, pivA []machine.Word, pivB machine.Word) {
	flops := 0
	for pos, i := range g.rows {
		if i <= k {
			continue
		}
		l := g.a[pos][k] / pivA[0]
		g.l[pos][k] = l
		g.b[pos] -= l * pivB
		row := g.a[pos]
		for j := k + 1; j < g.m; j++ {
			row[j] -= l * pivA[j-k]
		}
		flops += 3 + 2*(g.m-k-1)
	}
	if flops > 0 {
		p.Compute(flops)
	}
}

// backUpdate folds X(j) into the V accumulators of my rows above j
// (line 16 of the listing).
func (g *gaussLocal) backUpdate(p *machine.Proc, j int, xj float64) {
	flops := 0
	for pos, i := range g.rows {
		if i >= j {
			continue
		}
		g.v[pos] += g.a[pos][j] * xj
		flops += 2
	}
	if flops > 0 {
		p.Compute(flops)
	}
}

// pivotPayload packs A(k, k..m-1) and B(k) into one message.
func (g *gaussLocal) pivotPayload(k int) []machine.Word {
	pos := g.rowPos[k]
	payload := make([]machine.Word, 0, g.m-k+1)
	payload = append(payload, g.a[pos][k:]...)
	payload = append(payload, g.b[pos])
	return payload
}

// GaussBroadcast solves A x = b with multicast pivot/X distribution.
func GaussBroadcast(cfg machine.Config, a *matrix.Dense, b []float64, n int) (Result, error) {
	m := a.Rows
	if err := checkRing(m, n); err != nil {
		return Result{}, err
	}
	return solve(grid.New(n), cfg, m, func(p *machine.Proc, out []float64) {
		l := newGaussLocalOwner(p, a, b, func(i int) int { return i % n })
		// Triangularization with pivot-row multicast.
		for k := 0; k < m; k++ {
			owner := k % n
			var payload []machine.Word
			if p.Rank() == owner {
				payload = l.pivotPayload(k)
			}
			payload = p.OneToManyMulticast([]int{0}, owner, payload)
			l.eliminate(p, k, payload[:len(payload)-1], payload[len(payload)-1])
		}
		// Back substitution with X multicast.
		for j := m - 1; j >= 0; j-- {
			owner := j % n
			var xj []machine.Word
			if p.Rank() == owner {
				pos := l.rowPos[j]
				v := (l.b[pos] - l.v[pos]) / l.a[pos][j]
				p.Compute(2)
				l.x[pos] = v
				xj = []machine.Word{v}
			}
			xj = p.OneToManyMulticast([]int{0}, owner, xj)
			l.backUpdate(p, j, xj[0])
		}
		for pos, i := range l.rows {
			out[i] = l.x[pos]
		}
	})
}

// GaussPipelined solves A x = b with the Fig 8 shift-pipelined
// communication: pivot rows travel rightward, X values leftward, each
// forwarded before the local computation so the wave overlaps. Rows are
// distributed cyclically (f(i) = (i-1) mod N, Section 6).
func GaussPipelined(cfg machine.Config, a *matrix.Dense, b []float64, n int) (Result, error) {
	return gaussPipelineRun(cfg, a, b, n, func(i int) int { return i % n })
}
