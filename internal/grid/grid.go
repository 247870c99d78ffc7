// Package grid models the abstract target machine of the paper: a q-D
// grid of N1 x N2 x ... x Nq processors (Section 2). A processor is a
// tuple (p1, ..., pq) with 0 <= pi < Ni. The paper embeds the grid into a
// hypercube with a binary reflected Gray code; the simulator charges
// Table 1's hypercube costs by formula and computes no embedding.
package grid

import (
	"fmt"
	"strings"
)

// Grid describes a q-dimensional processor grid. The zero value is not
// usable; construct grids with New.
type Grid struct {
	dims []int // Ni per dimension, all >= 1
	size int   // product of dims
	// strides[d] is the rank stride of dimension d in row-major order.
	strides []int
}

// New returns a q-D grid with the given extents. It panics if no extents
// are given or any extent is < 1; grid shapes are compile-time decisions
// in this system and an invalid shape is a programming error.
func New(dims ...int) *Grid {
	if len(dims) == 0 {
		panic("grid: New requires at least one dimension")
	}
	g := &Grid{dims: append([]int(nil), dims...)}
	g.size = 1
	for _, n := range dims {
		if n < 1 {
			panic(fmt.Sprintf("grid: invalid extent %d", n))
		}
		g.size *= n
	}
	g.strides = make([]int, len(dims))
	s := 1
	for d := len(dims) - 1; d >= 0; d-- {
		g.strides[d] = s
		s *= dims[d]
	}
	return g
}

// Q returns the dimensionality q of the grid.
func (g *Grid) Q() int { return len(g.dims) }

// Size returns the total number of processors N1*...*Nq.
func (g *Grid) Size() int { return g.size }

// Extent returns Ni for dimension d (0-based d).
func (g *Grid) Extent(d int) int { return g.dims[d] }

// Rank maps a processor tuple to its linear rank in row-major order.
// It panics if the tuple has the wrong arity or is out of range.
func (g *Grid) Rank(tuple ...int) int {
	if len(tuple) != len(g.dims) {
		panic(fmt.Sprintf("grid: Rank arity %d, want %d", len(tuple), len(g.dims)))
	}
	r := 0
	for d, p := range tuple {
		if p < 0 || p >= g.dims[d] {
			panic(fmt.Sprintf("grid: coordinate %d out of range [0,%d) in dim %d", p, g.dims[d], d))
		}
		r += p * g.strides[d]
	}
	return r
}

// Tuple maps a linear rank back to the processor tuple.
func (g *Grid) Tuple(rank int) []int {
	if rank < 0 || rank >= g.size {
		panic(fmt.Sprintf("grid: rank %d out of range [0,%d)", rank, g.size))
	}
	t := make([]int, len(g.dims))
	for d := range g.dims {
		t[d] = rank / g.strides[d]
		rank %= g.strides[d]
	}
	return t
}

// Coord returns coordinate d of the processor with the given rank.
func (g *Grid) Coord(rank, d int) int {
	return (rank / g.strides[d]) % g.dims[d]
}

// NeighbourPlus returns the rank of the processor one step in the +
// direction along dimension d, wrapping around (torus/ring semantics, as
// used by the Shift primitive).
func (g *Grid) NeighbourPlus(rank, d int) int {
	c := g.Coord(rank, d)
	next := (c + 1) % g.dims[d]
	return rank + (next-c)*g.strides[d]
}

// NeighbourMinus returns the rank one step in the - direction along
// dimension d, wrapping around.
func (g *Grid) NeighbourMinus(rank, d int) int {
	c := g.Coord(rank, d)
	prev := (c - 1 + g.dims[d]) % g.dims[d]
	return rank + (prev-c)*g.strides[d]
}

// String renders the grid shape, e.g. "4x4 grid (16 processors)".
func (g *Grid) String() string {
	parts := make([]string, len(g.dims))
	for i, n := range g.dims {
		parts[i] = fmt.Sprintf("%d", n)
	}
	return fmt.Sprintf("%s grid (%d processors)", strings.Join(parts, "x"), g.size)
}
