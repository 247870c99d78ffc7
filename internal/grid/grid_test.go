package grid

import "testing"

func TestNewAndBasicProps(t *testing.T) {
	g := New(4, 4)
	if g.Q() != 2 {
		t.Fatalf("Q = %d, want 2", g.Q())
	}
	if g.Size() != 16 {
		t.Fatalf("Size = %d, want 16", g.Size())
	}
	if g.Extent(0) != 4 || g.Extent(1) != 4 {
		t.Fatalf("Extent = %d,%d, want 4,4", g.Extent(0), g.Extent(1))
	}
	if got := g.String(); got != "4x4 grid (16 processors)" {
		t.Fatalf("String = %q", got)
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, dims := range [][]int{{}, {0}, {4, -1}, {4, 0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", dims)
				}
			}()
			New(dims...)
		}()
	}
}

func TestRankTupleRoundTrip(t *testing.T) {
	shapes := [][]int{{1}, {7}, {4, 4}, {2, 3, 5}, {1, 8}, {8, 1}, {2, 2, 2, 2}}
	for _, shape := range shapes {
		g := New(shape...)
		for r := 0; r < g.Size(); r++ {
			tup := g.Tuple(r)
			if got := g.Rank(tup...); got != r {
				t.Fatalf("shape %v: Rank(Tuple(%d)) = %d", shape, r, got)
			}
			for d := range shape {
				if g.Coord(r, d) != tup[d] {
					t.Fatalf("shape %v rank %d: Coord(%d) = %d, want %d", shape, r, d, g.Coord(r, d), tup[d])
				}
			}
		}
	}
}

func TestRankRowMajorOrder(t *testing.T) {
	g := New(3, 4)
	// Row-major: rank = p1*4 + p2.
	if g.Rank(0, 0) != 0 || g.Rank(0, 3) != 3 || g.Rank(1, 0) != 4 || g.Rank(2, 3) != 11 {
		t.Fatalf("row-major ranks wrong: %d %d %d %d",
			g.Rank(0, 0), g.Rank(0, 3), g.Rank(1, 0), g.Rank(2, 3))
	}
}

func TestRankPanics(t *testing.T) {
	g := New(2, 2)
	for _, tup := range [][]int{{0}, {0, 0, 0}, {2, 0}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Rank(%v) did not panic", tup)
				}
			}()
			g.Rank(tup...)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Tuple(-1) did not panic")
			}
		}()
		g.Tuple(-1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Tuple(size) did not panic")
			}
		}()
		g.Tuple(4)
	}()
}

func TestNeighbours(t *testing.T) {
	g := New(4)
	if g.NeighbourPlus(0, 0) != 1 || g.NeighbourPlus(3, 0) != 0 {
		t.Fatal("ring + neighbours wrong")
	}
	if g.NeighbourMinus(0, 0) != 3 || g.NeighbourMinus(2, 0) != 1 {
		t.Fatal("ring - neighbours wrong")
	}
	g2 := New(3, 4)
	r := g2.Rank(1, 3)
	if g2.NeighbourPlus(r, 1) != g2.Rank(1, 0) {
		t.Fatal("2-D wraparound in dim 1 wrong")
	}
	if g2.NeighbourPlus(r, 0) != g2.Rank(2, 3) {
		t.Fatal("2-D + step in dim 0 wrong")
	}
	if g2.NeighbourMinus(g2.Rank(0, 0), 0) != g2.Rank(2, 0) {
		t.Fatal("2-D wraparound in dim 0 wrong")
	}
}

func TestNeighbourInverse(t *testing.T) {
	g := New(3, 5, 2)
	for r := 0; r < g.Size(); r++ {
		for d := 0; d < g.Q(); d++ {
			if g.NeighbourMinus(g.NeighbourPlus(r, d), d) != r {
				t.Fatalf("minus(plus(%d,%d)) != identity", r, d)
			}
		}
	}
}
