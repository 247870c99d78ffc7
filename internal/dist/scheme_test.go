package dist

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dmcc/internal/grid"
)

func TestBlockContiguous1D(t *testing.T) {
	g := grid.New(4)
	s := Scheme1D(BlockContiguous(16, 4, 0), nil)
	if err := s.Validate(g, []int{16}); err != nil {
		t.Fatal(err)
	}
	// f(i) = floor((i-1)/4): 1..4 -> 0, 5..8 -> 1, ...
	for i := 1; i <= 16; i++ {
		want := (i - 1) / 4
		if got := s.GridCoords(g, i)[0]; got != want {
			t.Fatalf("f(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestCyclic1D(t *testing.T) {
	g := grid.New(4)
	s := Scheme1D(Cyclic(0), nil)
	if err := s.Validate(g, []int{10}); err != nil {
		t.Fatal(err)
	}
	// f(i) = (i-1) mod 4.
	for i := 1; i <= 10; i++ {
		if got := s.GridCoords(g, i)[0]; got != (i-1)%4 {
			t.Fatalf("f(%d) = %d", i, got)
		}
	}
}

func TestBlockCyclic1D(t *testing.T) {
	g := grid.New(2)
	s := Scheme1D(BlockCyclic(3, 0), nil)
	// blocks of 3, round robin on 2 procs: 1-3 ->0, 4-6 ->1, 7-9 ->0, ...
	wants := []int{0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1}
	for i, w := range wants {
		if got := s.GridCoords(g, i+1)[0]; got != w {
			t.Fatalf("f(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestDecreasing1D(t *testing.T) {
	g := grid.New(4)
	s := Scheme1D(BlockContiguousDecreasing(16, 4, 0), nil)
	if err := s.Validate(g, []int{16}); err != nil {
		t.Fatal(err)
	}
	// f(i) = floor((-i+16)/4): i=1 -> 3, i=16 -> 0.
	if s.GridCoords(g, 1)[0] != 3 || s.GridCoords(g, 16)[0] != 0 || s.GridCoords(g, 8)[0] != 2 {
		t.Fatal("decreasing map wrong")
	}
}

func TestReplicatedOwners(t *testing.T) {
	g := grid.New(2, 3)
	s := Scheme2D(BlockContiguous(4, 2, 0), Replicated(1), nil)
	if err := s.Validate(g, []int{4, 5}); err != nil {
		t.Fatal(err)
	}
	owners := s.Owners(g, 1, 1)
	if len(owners) != 3 {
		t.Fatalf("owners = %v", owners)
	}
	for _, r := range owners {
		if g.Coord(r, 0) != 0 {
			t.Fatalf("owner %d not in processor row 0", r)
		}
		if !s.IsOwner(g, r, 1, 1) {
			t.Fatalf("IsOwner disagrees for %d", r)
		}
	}
	if s.IsOwner(g, g.Rank(1, 0), 1, 1) {
		t.Fatal("row 1 should not own element (1,1)")
	}
}

func TestFixedDimensions(t *testing.T) {
	g := grid.New(2, 3)
	// 1-D array on a 2-D grid: rows to grid dim 0, grid dim 1 pinned to 2.
	s := Scheme1D(BlockContiguous(4, 2, 0), map[int]int{1: 2})
	if err := s.Validate(g, []int{4}); err != nil {
		t.Fatal(err)
	}
	owners := s.Owners(g, 3)
	if len(owners) != 1 || owners[0] != g.Rank(1, 2) {
		t.Fatalf("owners = %v", owners)
	}
	// Replicated along the unused dimension.
	s2 := Scheme1D(BlockContiguous(4, 2, 0), map[int]int{1: All})
	owners2 := s2.Owners(g, 3)
	if len(owners2) != 3 {
		t.Fatalf("owners2 = %v", owners2)
	}
}

func TestValidateErrors(t *testing.T) {
	g := grid.New(2, 2)
	cases := []struct {
		name  string
		s     Scheme
		shape []int
	}{
		{"wrong arity", Scheme1D(BlockContiguous(4, 2, 0), nil), []int{4, 4}},
		{"grid dim oob", Scheme1D(Dim{Sign: 1, Disp: -1, Block: 2, GridDim: 5}, map[int]int{1: 0}), []int{4}},
		{"dup grid dim", Scheme2D(BlockContiguous(4, 2, 0), BlockContiguous(4, 2, 0), nil), []int{4, 4}},
		{"bad sign", Scheme1D(Dim{Sign: 0, Disp: -1, Block: 2, GridDim: 0}, map[int]int{1: 0}), []int{4}},
		{"bad block", Scheme1D(Dim{Sign: 1, Disp: -1, Block: 0, GridDim: 0}, map[int]int{1: 0}), []int{4}},
		{"negative z", Scheme1D(Dim{Sign: -1, Disp: 0, Block: 2, GridDim: 0}, map[int]int{1: 0}), []int{4}},
		{"contiguous overflow", Scheme1D(Dim{Sign: 1, Disp: -1, Block: 1, GridDim: 0}, map[int]int{1: 0}), []int{4}},
		{"unmapped grid dim", Scheme1D(BlockContiguous(4, 2, 0), map[int]int{}), []int{4}},
		{"fixed oob", Scheme1D(BlockContiguous(4, 2, 0), map[int]int{1: 7}), []int{4}},
		{"rotation on 1-D", Scheme{Dims: []Dim{BlockContiguous(4, 2, 0)}, Rot: RotateDim2ByDim1, D1: 1, D2: 1, Fixed: map[int]int{1: 0}}, []int{4}},
		{"rotation bad coeff", Scheme2DRotated(BlockContiguous(4, 2, 0), BlockContiguous(4, 2, 1), RotateDim2ByDim1, 0, 1, nil), []int{4, 4}},
		{"rotation with replication", Scheme2DRotated(BlockContiguous(4, 2, 0), Replicated(1), RotateDim2ByDim1, 1, 1, nil), []int{4, 4}},
		{"mapped and fixed", Scheme1D(BlockContiguous(4, 2, 0), map[int]int{0: 0, 1: 0}), []int{4}},
	}
	for _, c := range cases {
		if err := c.s.Validate(g, c.shape); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestEquation1JacobiSchemes(t *testing.T) {
	// Equation (1), Section 3: fA(i,j) = (floor((i-1)/(m/N1)), floor((j-1)/(m/N2))),
	// fV(i) = floor((i-1)/(m/N1)), fX(j) = fB(j) = floor((j-1)/(m/N2)).
	m := 8
	g := grid.New(2, 4)
	a := Scheme2D(BlockContiguous(m, 2, 0), BlockContiguous(m, 4, 1), nil)
	v := Scheme1D(BlockContiguous(m, 2, 0), map[int]int{1: All})
	x := Scheme1D(BlockContiguous(m, 4, 1), map[int]int{0: All})
	if err := a.Validate(g, []int{m, m}); err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(g, []int{m}); err != nil {
		t.Fatal(err)
	}
	if err := x.Validate(g, []int{m}); err != nil {
		t.Fatal(err)
	}
	// A(3,7) lives on processor (floor(2/4), floor(6/2)) = (0, 3).
	if c := a.GridCoords(g, 3, 7); c[0] != 0 || c[1] != 3 {
		t.Fatalf("A(3,7) coords = %v", c)
	}
	// V(5) lives on processor row 1, all columns.
	if c := v.GridCoords(g, 5); c[0] != 1 || c[1] != All {
		t.Fatalf("V(5) coords = %v", c)
	}
}

func TestOwnedIndicesPartitionArray(t *testing.T) {
	// Every index owned by exactly one coordinate for partitioned dims.
	g := grid.New(4)
	schemes := []Scheme{
		Scheme1D(BlockContiguous(17, 4, 0), nil),
		Scheme1D(Cyclic(0), nil),
		Scheme1D(BlockCyclic(3, 0), nil),
		Scheme1D(BlockContiguousDecreasing(17, 4, 0), nil),
	}
	for _, s := range schemes {
		if err := s.Validate(g, []int{17}); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		seen := map[int]int{}
		for c := 0; c < 4; c++ {
			for _, i := range s.OwnedIndices(g, 0, 17, c) {
				seen[i]++
			}
		}
		if len(seen) != 17 {
			t.Fatalf("%v: %d indices covered", s, len(seen))
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("%v: index %d owned %d times", s, i, n)
			}
		}
	}
}

func TestCannonRotatedSchemes(t *testing.T) {
	// Fig 1 (b): fA(i,j) = (b1, (-b1 - b2) mod 4) where bk = floor((idx-1)/4).
	g := grid.New(4, 4)
	s := Fig1Cases(16)[1].Scheme
	if err := s.Validate(g, []int{16, 16}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 16; i++ {
		for j := 1; j <= 16; j++ {
			b1 := (i - 1) / 4
			b2 := (j - 1) / 4
			want := []int{b1, (((-b1 - b2) % 4) + 4) % 4}
			if got := s.GridCoords(g, i, j); !reflect.DeepEqual(got, want) {
				t.Fatalf("(b) f(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	// Fig 1 (c): fA(i,j) = ((-b1 - b2) mod 4, b2).
	sc := Fig1Cases(16)[2].Scheme
	for i := 1; i <= 16; i++ {
		for j := 1; j <= 16; j++ {
			b1 := (i - 1) / 4
			b2 := (j - 1) / 4
			want := []int{(((-b1 - b2) % 4) + 4) % 4, b2}
			if got := sc.GridCoords(g, i, j); !reflect.DeepEqual(got, want) {
				t.Fatalf("(c) f(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestSchemeString(t *testing.T) {
	s := Scheme2DRotated(BlockContiguous(16, 4, 0), Cyclic(1), RotateDim2ByDim1, -1, 1, nil)
	str := s.String()
	for _, want := range []string{"block(4)", "cyclic", "rotated"} {
		if !contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
	sd := Scheme1D(BlockContiguousDecreasing(16, 4, 0), map[int]int{1: 0})
	if !contains(sd.String(), "block(4)-") {
		t.Errorf("decreasing String() = %q", sd.String())
	}
	sr := Scheme1D(Replicated(0), nil)
	if !contains(sr.String(), "repl") {
		t.Errorf("replicated String() = %q", sr.String())
	}
	sbc := Scheme1D(BlockCyclic(2, 0), nil)
	if !contains(sbc.String(), "blockcyclic(2)") {
		t.Errorf("block-cyclic String() = %q", sbc.String())
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// ranksForExpand is the tuple-building expansion ranksFor replaced, kept
// as the reference: every coordinate tuple, dimension by dimension, then
// ranked.
func ranksForExpand(g *grid.Grid, coords []int) []int {
	acc := [][]int{nil}
	for gd := 0; gd < g.Q(); gd++ {
		choices := []int{coords[gd]}
		if coords[gd] == All {
			choices = choices[:0]
			for c := 0; c < g.Extent(gd); c++ {
				choices = append(choices, c)
			}
		}
		var next [][]int
		for _, pre := range acc {
			for _, c := range choices {
				next = append(next, append(append([]int(nil), pre...), c))
			}
		}
		acc = next
	}
	ranks := make([]int, 0, len(acc))
	for _, t := range acc {
		ranks = append(ranks, g.Rank(t...))
	}
	return ranks
}

// TestRanksForMatchesExpansion: over random 1-D to 4-D grids and random
// All masks, the in-place mixed-radix fill lists exactly the ranks the
// tuple expansion lists, ascending, in one allocation.
func TestRanksForMatchesExpansion(t *testing.T) {
	for _, seed := range []int64{1, 2, 20261001} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 300; trial++ {
			dims := make([]int, 1+rng.Intn(4))
			coords := make([]int, len(dims))
			for d := range dims {
				dims[d] = 1 + rng.Intn(5)
				coords[d] = rng.Intn(dims[d])
				if rng.Intn(2) == 0 {
					coords[d] = All
				}
			}
			g := grid.New(dims...)
			got, want := ranksFor(g, coords), ranksForExpand(g, coords)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d trial %d: grid %v coords %v: ranksFor = %v, expansion %v", seed, trial, dims, coords, got, want)
			}
			if allocs := testing.AllocsPerRun(1, func() { ranksFor(g, coords) }); allocs != 1 {
				t.Fatalf("seed %d trial %d: grid %v coords %v: %v allocations, want 1", seed, trial, dims, coords, allocs)
			}
		}
	}
}

// quickSeeded is quick.Check over a fixed seed list: left to itself
// quick draws from a clock-seeded source, and a failure could not be run
// again. quick's error already lists the failing input.
func quickSeeded(t *testing.T, f any, count int) {
	t.Helper()
	for _, seed := range []int64{1, 2, 3} {
		if err := quick.Check(f, &quick.Config{MaxCount: count, Rand: rand.New(rand.NewSource(seed))}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
