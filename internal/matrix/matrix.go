// Package matrix provides the dense linear-algebra substrate: matrix and
// vector helpers, reproducible test-system generators, and the sequential
// reference algorithms (Jacobi, SOR, Gauss elimination) that the parallel
// kernels are checked against.
package matrix

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a row-major m x n matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense allocates an m x n zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j), 0-based.
func (a *Dense) At(i, j int) float64 { return a.Data[i*a.Cols+j] }

// Set assigns element (i, j), 0-based.
func (a *Dense) Set(i, j int, v float64) { a.Data[i*a.Cols+j] = v }

// Row returns a view of row i.
func (a *Dense) Row(i int) []float64 { return a.Data[i*a.Cols : (i+1)*a.Cols] }

// Clone deep-copies the matrix.
func (a *Dense) Clone() *Dense {
	b := NewDense(a.Rows, a.Cols)
	copy(b.Data, a.Data)
	return b
}

// MulVec computes y = A x.
func (a *Dense) MulVec(x []float64) []float64 {
	if len(x) != a.Cols {
		panic("matrix: dimension mismatch in MulVec")
	}
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// Mul computes C = A B.
func (a *Dense) Mul(b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic("matrix: dimension mismatch in Mul")
	}
	c := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			crow := c.Row(i)
			for j := range brow {
				crow[j] += aik * brow[j]
			}
		}
	}
	return c
}

// DiagonallyDominant generates a reproducible random m x m system A x = b
// with strict diagonal dominance (so Jacobi and SOR converge) and a known
// solution vector x*; it returns A, b, and x*.
func DiagonallyDominant(m int, seed int64) (*Dense, []float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	a := NewDense(m, m)
	for i := 0; i < m; i++ {
		sum := 0.0
		for j := 0; j < m; j++ {
			if i == j {
				continue
			}
			v := rng.Float64()*2 - 1
			a.Set(i, j, v)
			sum += math.Abs(v)
		}
		a.Set(i, i, sum+1+rng.Float64())
	}
	xStar := make([]float64, m)
	for i := range xStar {
		xStar[i] = rng.Float64()*4 - 2
	}
	b := a.MulVec(xStar)
	return a, b, xStar
}

// RandomDense generates a reproducible random matrix with entries in
// [-1, 1).
func RandomDense(rows, cols int, seed int64) *Dense {
	rng := rand.New(rand.NewSource(seed))
	a := NewDense(rows, cols)
	for i := range a.Data {
		a.Data[i] = rng.Float64()*2 - 1
	}
	return a
}

// RandomVector generates a reproducible random vector.
func RandomVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

// MaxAbsDiff returns the infinity-norm distance between two vectors.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("matrix: length mismatch")
	}
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// Residual returns the infinity norm of A x - b.
func Residual(a *Dense, x, b []float64) float64 {
	ax := a.MulVec(x)
	return MaxAbsDiff(ax, b)
}

// JacobiSeq runs iters iterations of Jacobi's method (the Section 3
// listing: V = A X; X += (B - V) / diag(A)) starting from x0 and returns
// the final X. It is the bit-level reference for the parallel kernels.
func JacobiSeq(a *Dense, b, x0 []float64, iters int) []float64 {
	m := a.Rows
	x := append([]float64(nil), x0...)
	v := make([]float64, m)
	for k := 0; k < iters; k++ {
		for i := 0; i < m; i++ {
			v[i] = 0
			row := a.Row(i)
			for j := 0; j < m; j++ {
				v[i] += row[j] * x[j]
			}
		}
		for i := 0; i < m; i++ {
			x[i] = x[i] + (b[i]-v[i])/a.At(i, i)
		}
	}
	return x
}

// SORSeq runs iters iterations of the successive over-relaxation method
// (the Section 5 listing) with relaxation factor omega and returns the
// final X. Note the in-place update: iteration i already uses the new
// X(1..i-1).
func SORSeq(a *Dense, b, x0 []float64, omega float64, iters int) []float64 {
	m := a.Rows
	x := append([]float64(nil), x0...)
	for k := 0; k < iters; k++ {
		for i := 0; i < m; i++ {
			v := 0.0
			row := a.Row(i)
			for j := 0; j < m; j++ {
				v += row[j] * x[j]
			}
			x[i] = x[i] + omega*(b[i]-v)/a.At(i, i)
		}
	}
	return x
}

// GaussSeq solves A x = b by the Section 6 listing: triangularization
// without pivoting followed by the paper's back-substitution with the
// V accumulator. It returns x. A and b are not modified.
func GaussSeq(a0 *Dense, b0 []float64) []float64 {
	x, _ := gauss(a0, b0, false)
	return x
}

// GaussPivotSeq solves A x = b by Gauss elimination with partial (row)
// pivoting — the numerical-stability extension of the Section 6
// algorithm. It returns x and the pivot permutation applied (perm[k] =
// original row index used as the k-th pivot). A and b are not modified.
func GaussPivotSeq(a0 *Dense, b0 []float64) ([]float64, []int) { return gauss(a0, b0, true) }

// gauss is the Section 6 elimination, with partial pivoting when pivot
// is set, and its back-substitution; perm is the identity without it.
func gauss(a0 *Dense, b0 []float64, pivot bool) ([]float64, []int) {
	m := a0.Rows
	a := a0.Clone()
	b := append([]float64(nil), b0...)
	perm := make([]int, m)
	rowID := make([]int, m)
	for i := range rowID {
		rowID[i] = i
	}
	// Matrix triangularization (lines 2-8).
	for k := 0; k < m; k++ {
		// Pick the largest |A(i,k)| for i >= k.
		piv := k
		for i := k + 1; pivot && i < m; i++ {
			if math.Abs(a.At(i, k)) > math.Abs(a.At(piv, k)) {
				piv = i
			}
		}
		if piv != k {
			ra, rb := a.Row(k), a.Row(piv)
			for j := 0; j < m; j++ {
				ra[j], rb[j] = rb[j], ra[j]
			}
			b[k], b[piv] = b[piv], b[k]
			rowID[k], rowID[piv] = rowID[piv], rowID[k]
		}
		perm[k] = rowID[k]
		for i := k + 1; i < m; i++ {
			l := a.At(i, k) / a.At(k, k)
			b[i] -= l * b[k]
			for j := k + 1; j < m; j++ {
				a.Set(i, j, a.At(i, j)-l*a.At(k, j))
			}
		}
	}
	// Triangular system U x = y (lines 10-17), with the V accumulator.
	v := make([]float64, m)
	x := make([]float64, m)
	for j := m - 1; j >= 0; j-- {
		x[j] = (b[j] - v[j]) / a.At(j, j)
		for i := j - 1; i >= 0; i-- {
			v[i] += a.At(i, j) * x[j]
		}
	}
	return x, perm
}

// NearSingularLeading generates a reproducible system whose leading pivot
// is tiny, so Gauss elimination without pivoting loses accuracy while
// partial pivoting stays stable.
func NearSingularLeading(m int, eps float64, seed int64) (*Dense, []float64, []float64) {
	a, _, _ := DiagonallyDominant(m, seed)
	a.Set(0, 0, eps)
	xStar := RandomVector(m, seed+1)
	b := a.MulVec(xStar)
	return a, b, xStar
}
