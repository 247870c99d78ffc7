// Package cost implements the paper's execution-time model: the
// communication-primitive costs of Table 1, the closed-form per-iteration
// times of Sections 3-5 (Table 2 and the SOR formulas), and an exact
// enumeration-based communication counter used by the dynamic programming
// algorithm of Section 4 to price candidate distribution schemes.
package cost

import (
	"math"
	"math/bits"
)

// Model carries the machine parameters: tf is the average time of a
// floating point operation, tc the average time of transferring one word
// (Section 3).
type Model struct {
	Tf float64
	Tc float64
}

// Unit is the model with tf = tc = 1 used throughout the experiments.
func Unit() Model { return Model{Tf: 1, Tc: 1} }

// Log2Ceil returns ceil(log2(n)) with Log2Ceil(n<=1) = 0, the step count
// of binomial-tree collectives.
func Log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// The communication primitives of Table 1, returning simulated time for a
// message of m words over num processors on the hypercube.

// Transfer sends m words between two processors: O(m).
func (c Model) Transfer(m int) float64 { return c.Tc * float64(m) }

// Shift circularly shifts m words between neighbours: O(m).
func (c Model) Shift(m int) float64 { return c.Tc * float64(m) }

// OneToManyMulticast broadcasts m words to num processors: O(m log num).
func (c Model) OneToManyMulticast(m, num int) float64 {
	return c.Tc * float64(m) * float64(Log2Ceil(num))
}

// Reduction combines m words over num processors: O(m log num).
func (c Model) Reduction(m, num int) float64 {
	return c.Tc * float64(m) * float64(Log2Ceil(num))
}

// AffineTransform routes m words per processor along a permutation of num
// processors: O(m log num) on the hypercube.
func (c Model) AffineTransform(m, num int) float64 {
	return c.Tc * float64(m) * float64(Log2Ceil(num))
}

// Scatter sends a distinct m-word message to each of num processors:
// O(m num).
func (c Model) Scatter(m, num int) float64 {
	return c.Tc * float64(m) * float64(num)
}

// Gather receives an m-word message from each of num processors: O(m num).
func (c Model) Gather(m, num int) float64 {
	return c.Tc * float64(m) * float64(num)
}

// ManyToManyMulticast replicates m words from each of num processors to
// all of them: O(m num).
func (c Model) ManyToManyMulticast(m, num int) float64 {
	return c.Tc * float64(m) * float64(num)
}

// Breakdown splits an execution-time estimate the way Table 2 does.
type Breakdown struct {
	Comp float64
	Comm float64
}

// Total returns Comp + Comm.
func (b Breakdown) Total() float64 { return b.Comp + b.Comm }

// JacobiIteration returns the per-iteration time of Jacobi's algorithm
// under the Section 3 distribution (Equation 1: A blocked N1 x N2, V
// aligned with A1, X and B aligned with A2) on an N1 x N2 grid:
//
//	Time = 2*m^2/(N1*N2)*tf + Reduction(m/N1, N2)             (line 5)
//	     + 3*m/N2*tf
//	     + N1*OneToManyMulticast(m/N1, N2)                    (line 8)
//	       (or N1*Transfer(m/N1) if N2 = 1)
//	     + OneToManyMulticast(m, N1)                          (loop-carried X)
func (c Model) JacobiIteration(m, n1, n2 int) Breakdown {
	var b Breakdown
	b.Comp = 2*float64(m*m)/float64(n1*n2)*c.Tf + 3*float64(m)/float64(n2)*c.Tf
	b.Comm = c.Reduction(m/n1, n2)
	if n2 == 1 {
		b.Comm += float64(n1) * c.Transfer(m/n1)
	} else {
		b.Comm += float64(n1) * c.OneToManyMulticast(m/n1, n2)
	}
	b.Comm += c.OneToManyMulticast(m, n1)
	return b
}

// Table2Row is one row of Table 2.
type Table2Row struct {
	N1, N2 int
	Breakdown
}

// Table2 evaluates the Jacobi iteration time on the paper's three grids:
// 1 x N, N x 1, and sqrt(N) x sqrt(N) (N must be a perfect square for the
// third row; otherwise the row is skipped).
func (c Model) Table2(m, n int) []Table2Row {
	rows := []Table2Row{
		{N1: 1, N2: n, Breakdown: c.JacobiIteration(m, 1, n)},
		{N1: n, N2: 1, Breakdown: c.JacobiIteration(m, n, 1)},
	}
	r := int(math.Round(math.Sqrt(float64(n))))
	if r*r == n && r > 1 {
		rows = append(rows, Table2Row{N1: r, N2: r, Breakdown: c.JacobiIteration(m, r, r)})
	}
	return rows
}

// JacobiDPIteration returns the per-iteration time of the Section 4
// scheme chosen by the dynamic programming algorithm: both loops row
// distributed on an N x 1 grid (Table 3 layout), X replicated after each
// iteration by a ManyToManyMulticast:
//
//	Time = (2*m^2/N + 3*m/N)*tf + m*tc
func (c Model) JacobiDPIteration(m, n int) Breakdown {
	return Breakdown{
		Comp: (2*float64(m*m)/float64(n) + 3*float64(m)/float64(n)) * c.Tf,
		Comm: c.ManyToManyMulticast(m/n, n),
	}
}

// SORNaiveIteration returns the per-iteration time of the naive SOR
// implementation of Section 5 (column distribution, per-step Reduction
// and broadcast):
//
//	Time = (2*m^2/N + 4*m)*tf + m*(log N + 1)*tc
func (c Model) SORNaiveIteration(m, n int) Breakdown {
	return Breakdown{
		Comp: (2*float64(m*m)/float64(n) + 4*float64(m)) * c.Tf,
		Comm: float64(m) * (c.Reduction(1, n) + c.Transfer(1)),
	}
}

// SORPipelinedIteration returns the Section 5 bound for the pipelined SOR
// implementation:
//
//	Time <= (m+N) * (2*(m/N)*tf + 2*tc) = (2*m^2/N + 2*m)*tf + 2*(m+N)*tc
func (c Model) SORPipelinedIteration(m, n int) Breakdown {
	steps := float64(m + n)
	return Breakdown{
		Comp: steps * 2 * float64(m) / float64(n) * c.Tf,
		Comm: steps * 2 * c.Tc,
	}
}
