package dist

import (
	"testing"

	"dmcc/internal/grid"
)

// redistLoads returns what changing from -> to on g moves, by element
// enumeration, after checking that the closed form bills the same.
func redistLoads(t *testing.T, g *grid.Grid, shape []int, from, to Scheme) Loads {
	t.Helper()
	want := RedistLoadsExact(g, g, shape, from, to)
	got, err := RedistLoads(g, g, shape, from, to)
	if err != nil {
		t.Fatal(err)
	}
	loadsEqual(t, got, want)
	return want
}

func TestPlanIdenticalSchemesIsEmpty(t *testing.T) {
	g := grid.New(4)
	s := Scheme1D(BlockContiguous(16, 4, 0), nil)
	l := redistLoads(t, g, []int{16}, s, s)
	if l.Words != 0 || len(l.In) != 0 || len(l.Out) != 0 {
		t.Fatalf("loads = %+v", l)
	}
}

func TestPlanBlockToCyclic(t *testing.T) {
	g := grid.New(4)
	block := Scheme1D(BlockContiguous(16, 4, 0), nil)
	cyc := Scheme1D(Cyclic(0), nil)
	l := redistLoads(t, g, []int{16}, block, cyc)
	// Element i stays put iff floor((i-1)/4) == (i-1) mod 4: i = 1, 6, 11, 16.
	if l.Words != 12 {
		t.Fatalf("Words = %v, want 12", l.Words)
	}
}

func TestPlanPartitionedToReplicated(t *testing.T) {
	g := grid.New(4)
	part := Scheme1D(BlockContiguous(8, 4, 0), nil)
	repl := Scheme1D(Replicated(0), nil)
	// Every element must reach the 3 processors that lack it: 8*3 = 24.
	if l := redistLoads(t, g, []int{8}, part, repl); l.Words != 24 {
		t.Fatalf("Words = %v, want 24", l.Words)
	}
	// Reverse direction is free: every target already holds the data.
	if l := redistLoads(t, g, []int{8}, repl, part); l.Words != 0 {
		t.Fatalf("replicated->partitioned moved %v words", l.Words)
	}
}

func TestPlanRowToColumnDistribution(t *testing.T) {
	// The Jacobi L1->L2 scheme change of Section 4 (Fig 4): a 2-D array
	// switching from row blocks to column blocks on a linear grid of 4.
	g := grid.New(4, 1)
	m := 8
	rows := Scheme2D(BlockContiguous(m, 4, 0), Dim{Sign: 1, Disp: -1, Block: m, GridDim: 1}, nil)
	cols := Scheme2D(Dim{Sign: 1, Disp: -1, Block: m, GridDim: 1}, BlockContiguous(m, 4, 0), nil)
	l := redistLoads(t, g, []int{m, m}, rows, cols)
	// All elements except the diagonal blocks move: 64 - 4*4 = 48.
	if l.Words != 48 {
		t.Fatalf("Words = %v, want 48", l.Words)
	}
	// Perfect symmetry: every processor sends and receives 12 words.
	for r := 0; r < 4; r++ {
		if l.In[r] != 12 || l.Out[r] != 12 {
			t.Fatalf("rank %d: in/out = %v/%v, want 12/12", r, l.In[r], l.Out[r])
		}
	}
}

func TestPlanMovesAggregatePerPair(t *testing.T) {
	g := grid.New(2)
	a := Scheme1D(BlockContiguous(8, 2, 0), nil)
	b := Scheme1D(BlockContiguousDecreasing(8, 2, 0), nil)
	l := redistLoads(t, g, []int{8}, a, b)
	// Complete swap: 0 -> 1 (4 words) and 1 -> 0 (4 words).
	if l.Words != 8 {
		t.Fatalf("loads = %+v", l)
	}
	for r := 0; r < 2; r++ {
		if l.In[r] != 4 || l.Out[r] != 4 {
			t.Fatalf("rank %d: in/out = %v/%v, want 4/4", r, l.In[r], l.Out[r])
		}
	}
}

// Property: a change between two partitioned schemes never moves more
// words than the array has elements, and moving to a scheme and back
// costs the same in both directions (symmetric difference of the
// layouts).
func TestPlanSymmetryQuick(t *testing.T) {
	f := func(sizeRaw, blockRaw uint8) bool {
		n := 4
		size := int(sizeRaw)%30 + n
		block := int(blockRaw)%4 + 1
		g := grid.New(n)
		a := Scheme1D(BlockContiguous(size, n, 0), nil)
		b := Scheme1D(BlockCyclic(block, 0), nil)
		ab := redistLoads(t, g, []int{size}, a, b)
		ba := redistLoads(t, g, []int{size}, b, a)
		return !t.Failed() && ab.Words == ba.Words && ab.Words <= float64(size)
	}
	quickSeeded(t, f, 100)
}

func TestForEachIndexCoversShape(t *testing.T) {
	var seen [][]int
	ForEachIndex([]int{2, 3}, func(idx []int) {
		seen = append(seen, append([]int(nil), idx...))
	})
	if len(seen) != 6 {
		t.Fatalf("visited %d", len(seen))
	}
	if seen[0][0] != 1 || seen[0][1] != 1 || seen[5][0] != 2 || seen[5][1] != 3 {
		t.Fatalf("order wrong: %v", seen)
	}
}
