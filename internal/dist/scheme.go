// Package dist implements the generalized data distribution functions of
// Section 2.1 of the paper.
//
// The 1-D distribution function for an array entry A(i) is
//
//	fA(i) = floor((d*i + disp) / block) [mod N]      if A is partitioned
//	fA(i) = ALL                                      if A is replicated
//
// where d in {-1, +1} selects increasing or decreasing indexing, disp is
// the displacement applied to the subscript, block is the distribution
// block size, and the optional "mod N" makes the distribution cyclic
// (block size 1) or block-cyclic (block size > 1). fA(i) is a coordinate
// in the grid dimension the array dimension is mapped to.
//
// The 2-D function composes two 1-D functions and optionally makes one
// grid coordinate depend on the other ("rotation"), which expresses the
// skewed layouts of Cannon's matrix-multiplication algorithm (Fig 1 b,c):
//
//	fA(i,j) = (z1, z2)                               independent
//	fA(i,j) = (z1, (d1*z1 + d2*z2) mod N2)           dim 2 rotated by dim 1
//	fA(i,j) = ((d1*z1 + d2*z2) mod N1, z2)           dim 1 rotated by dim 2
//
// Arrays are 1-based (Fortran convention), matching the paper's examples.
package dist

import (
	"fmt"

	"dmcc/internal/grid"
)

// All is the owner coordinate reported for a replicated dimension: the
// element lives at every coordinate of that grid dimension.
const All = -1

// Dim describes how one array dimension is distributed.
type Dim struct {
	// Replicated marks the dimension as replicated on its grid dimension;
	// the remaining fields except GridDim are ignored.
	Replicated bool
	// Sign is the paper's d in {-1, +1}: increasing or decreasing indexing.
	Sign int
	// Disp is the displacement added to Sign*i before blocking.
	Disp int
	// Block is the distribution block size (>= 1).
	Block int
	// Cyclic applies the optional "mod N" wrap: Block==1 gives a cyclic
	// distribution, Block>1 block-cyclic. Without it the distribution is
	// contiguous.
	Cyclic bool
	// GridDim is the 0-based processor-grid dimension this array
	// dimension is mapped to (the paper's map(Ak)).
	GridDim int
}

// Rotation selects a dependent 2-D distribution.
type Rotation int

const (
	// NoRotation distributes the two array dimensions independently.
	NoRotation Rotation = iota
	// RotateDim2ByDim1 replaces z2 with (D1*z1 + D2*z2) mod N(map(A2)).
	RotateDim2ByDim1
	// RotateDim1ByDim2 replaces z1 with (D1*z1 + D2*z2) mod N(map(A1)).
	RotateDim1ByDim2
)

func (r Rotation) String() string {
	switch r {
	case NoRotation:
		return "independent"
	case RotateDim2ByDim1:
		return "dim2 rotated by dim1"
	case RotateDim1ByDim2:
		return "dim1 rotated by dim2"
	}
	return fmt.Sprintf("Rotation(%d)", int(r))
}

// Scheme is a full distribution scheme for a 1-D or 2-D array on a
// processor grid. If the grid has more dimensions than the array, Fixed
// pins each remaining grid dimension either to a specific coordinate or
// to All (replicated along it), as required at the end of Section 2.1.
type Scheme struct {
	// Dims holds one entry per array dimension (1 or 2 entries).
	Dims []Dim
	// Rot selects a dependent 2-D distribution; D1, D2 in {-1,+1} are its
	// coefficients. Ignored for 1-D arrays and NoRotation.
	Rot    Rotation
	D1, D2 int
	// Fixed maps every grid dimension not used by Dims to a coordinate,
	// or to All for replication. Keys are grid dimensions.
	Fixed map[int]int
}

// Validate checks the scheme against an array shape (per-dimension sizes,
// 1-based indexing so valid indices are 1..shape[k]) and a grid.
func (s Scheme) Validate(g *grid.Grid, shape []int) error {
	if len(s.Dims) != len(shape) {
		return fmt.Errorf("dist: scheme has %d dims for %d-D array", len(s.Dims), len(shape))
	}
	if len(s.Dims) < 1 || len(s.Dims) > 2 {
		return fmt.Errorf("dist: only 1-D and 2-D arrays are supported, got %d-D", len(s.Dims))
	}
	used := map[int]bool{}
	for k, d := range s.Dims {
		if d.GridDim < 0 || d.GridDim >= g.Q() {
			return fmt.Errorf("dist: dim %d mapped to grid dim %d, out of range for %s", k, d.GridDim, g)
		}
		if used[d.GridDim] {
			return fmt.Errorf("dist: two array dimensions mapped to grid dim %d", d.GridDim)
		}
		used[d.GridDim] = true
		if d.Replicated {
			continue
		}
		if d.Sign != 1 && d.Sign != -1 {
			return fmt.Errorf("dist: dim %d has sign %d, want -1 or +1", k, d.Sign)
		}
		if d.Block < 1 {
			return fmt.Errorf("dist: dim %d has block size %d", k, d.Block)
		}
		n := g.Extent(d.GridDim)
		for _, i := range []int{1, shape[k]} {
			z := d.Sign*i + d.Disp
			if z < 0 {
				return fmt.Errorf("dist: dim %d: d*i+disp = %d < 0 at i=%d", k, z, i)
			}
			if !d.Cyclic && z/d.Block >= n {
				return fmt.Errorf("dist: dim %d: contiguous block index %d >= N=%d at i=%d", k, z/d.Block, n, i)
			}
		}
	}
	if s.Rot != NoRotation {
		if len(s.Dims) != 2 {
			return fmt.Errorf("dist: rotation requires a 2-D array")
		}
		if s.Dims[0].Replicated || s.Dims[1].Replicated {
			return fmt.Errorf("dist: rotation with a replicated dimension is not supported")
		}
		if (s.D1 != 1 && s.D1 != -1) || (s.D2 != 1 && s.D2 != -1) {
			return fmt.Errorf("dist: rotation coefficients must be -1 or +1, got %d,%d", s.D1, s.D2)
		}
	}
	for gd := 0; gd < g.Q(); gd++ {
		if used[gd] {
			if _, ok := s.Fixed[gd]; ok {
				return fmt.Errorf("dist: grid dim %d both mapped and fixed", gd)
			}
			continue
		}
		c, ok := s.Fixed[gd]
		if !ok {
			return fmt.Errorf("dist: grid dim %d is neither mapped nor fixed", gd)
		}
		if c != All && (c < 0 || c >= g.Extent(gd)) {
			return fmt.Errorf("dist: grid dim %d fixed to %d, out of range", gd, c)
		}
	}
	return nil
}

// mapDim applies the 1-D distribution function of one dimension, returning
// the grid coordinate (All for replicated dimensions).
func (d Dim) mapDim(g *grid.Grid, i int) int {
	if d.Replicated {
		return All
	}
	n := g.Extent(d.GridDim)
	z := d.Sign*i + d.Disp
	if z < 0 {
		panic(fmt.Sprintf("dist: d*i+disp = %d < 0 at i=%d", z, i))
	}
	b := z / d.Block
	if d.Cyclic {
		return b % n
	}
	if b >= n {
		panic(fmt.Sprintf("dist: contiguous block index %d >= N=%d at i=%d", b, n, i))
	}
	return b
}

// GridCoords returns the per-grid-dimension owner coordinates of element
// idx (1-based, one subscript per array dimension). Entries equal to All
// mean the element is replicated along that grid dimension.
func (s Scheme) GridCoords(g *grid.Grid, idx ...int) []int {
	if len(idx) != len(s.Dims) {
		panic(fmt.Sprintf("dist: %d subscripts for %d-D scheme", len(idx), len(s.Dims)))
	}
	coords := make([]int, g.Q())
	for gd := range coords {
		if c, ok := s.Fixed[gd]; ok {
			coords[gd] = c
		}
	}
	z := make([]int, len(s.Dims))
	for k, d := range s.Dims {
		z[k] = d.mapDim(g, idx[k])
	}
	if s.Rot != NoRotation {
		n1 := g.Extent(s.Dims[0].GridDim)
		n2 := g.Extent(s.Dims[1].GridDim)
		switch s.Rot {
		case RotateDim2ByDim1:
			z[1] = Mod(s.D1*z[0]+s.D2*z[1], n2)
		case RotateDim1ByDim2:
			z[0] = Mod(s.D1*z[0]+s.D2*z[1], n1)
		}
	}
	for k, d := range s.Dims {
		coords[d.GridDim] = z[k]
	}
	return coords
}

// Owners returns the ranks of every processor holding element idx
// (several when any grid dimension is replicated), in ascending order.
func (s Scheme) Owners(g *grid.Grid, idx ...int) []int {
	return ranksFor(g, s.GridCoords(g, idx...))
}

// ranksFor expands a per-grid-dimension coordinate vector (entries may be
// All) into the ascending list of matching ranks: the result is allocated
// once at its final size and filled in mixed-radix order, each All
// dimension running through its extent with the later dimensions fastest.
func ranksFor(g *grid.Grid, coords []int) []int {
	n := 1
	for gd, c := range coords {
		if c == All {
			n *= g.Extent(gd)
		}
	}
	ranks := make([]int, 1, n)
	for gd, c := range coords {
		ext := 1
		if c == All {
			c, ext = 0, g.Extent(gd)
		} else if c < 0 || c >= g.Extent(gd) {
			panic(fmt.Sprintf("dist: coordinate %d out of range [0,%d) in grid dim %d", c, g.Extent(gd), gd))
		}
		// Every rank so far stands for a coordinate prefix; give each its
		// ext continuations, back to front so the expansion is in place.
		stride, m := g.Extent(gd), len(ranks)
		ranks = ranks[:m*ext]
		for i := m - 1; i >= 0; i-- {
			for k := ext - 1; k >= 0; k-- {
				ranks[i*ext+k] = ranks[i]*stride + c + k
			}
		}
	}
	return ranks
}

// IsOwner reports whether the processor with the given rank holds element idx.
func (s Scheme) IsOwner(g *grid.Grid, rank int, idx ...int) bool {
	coords := s.GridCoords(g, idx...)
	for gd, c := range coords {
		if c == All {
			continue
		}
		if g.Coord(rank, gd) != c {
			return false
		}
	}
	return true
}

// OwnedIndices returns, in increasing order, the 1-based indices of
// dimension k (1..size) owned by grid coordinate c.
func (s Scheme) OwnedIndices(g *grid.Grid, k, size, c int) []int {
	d := s.Dims[k]
	var out []int
	for i := 1; i <= size; i++ {
		if d.Replicated || d.mapDim(g, i) == c {
			out = append(out, i)
		}
	}
	return out
}

// String gives a compact description, e.g.
// "[block(4)->g0, cyclic->g1] fixed{}".
func (s Scheme) String() string {
	out := "["
	for k, d := range s.Dims {
		if k > 0 {
			out += ", "
		}
		switch {
		case d.Replicated:
			out += fmt.Sprintf("repl->g%d", d.GridDim)
		case !d.Cyclic:
			out += fmt.Sprintf("block(%d)%s->g%d", d.Block, signStr(d.Sign), d.GridDim)
		case d.Block == 1:
			out += fmt.Sprintf("cyclic%s->g%d", signStr(d.Sign), d.GridDim)
		default:
			out += fmt.Sprintf("blockcyclic(%d)%s->g%d", d.Block, signStr(d.Sign), d.GridDim)
		}
	}
	out += "]"
	if s.Rot != NoRotation {
		out += fmt.Sprintf(" %s (d1=%d,d2=%d)", s.Rot, s.D1, s.D2)
	}
	if len(s.Fixed) > 0 {
		out += fmt.Sprintf(" fixed%v", s.Fixed)
	}
	return out
}

func signStr(s int) string {
	if s == -1 {
		return "-"
	}
	return ""
}
