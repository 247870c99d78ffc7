package cost

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"dmcc/internal/dist"
	"dmcc/internal/grid"
)

// rectSeeds is the fixed seed list of the randomized rect tests; a
// failure prints seed, trial and operands, so it replays by running that
// seed.
var rectSeeds = []int64{1, 2, 3, 5, 8, 13, 21, 34}

// randIndexSet draws a set with a random mask over an interval starting
// near zero and spanning up to maxSpan indices (sometimes none).
func randIndexSet(rng *rand.Rand, maxSpan int) dist.IndexSet {
	p := 1 + rng.Intn(5)
	lo := -6 + rng.Intn(12)
	hi := lo - 2 + rng.Intn(maxSpan+2)
	member := make([]bool, p)
	for r := range member {
		member[r] = rng.Intn(3) > 0
	}
	return dist.Periodic(lo, hi, member)
}

// spanOnEitherSideOfCap alternates between interval widths the windowed
// sum enumerates directly and widths it sums in closed form.
func spanOnEitherSideOfCap(trial int) int {
	if trial%2 == 0 {
		return sumWindowedDirectCap - 4
	}
	return 3 * sumWindowedDirectCap
}

// randBand draws one band of a rect: open, a closed range, a single
// line, or closed on one side only.
func randBand(rng *rand.Rand) (lo, hi int) {
	lo, hi = bandMin, bandMax
	switch rng.Intn(5) {
	case 0:
		lo = -30 + rng.Intn(60)
		hi = lo + rng.Intn(40)
	case 1:
		lo = -30 + rng.Intn(60)
		hi = lo
	case 2:
		lo = -30 + rng.Intn(60)
	case 3:
		hi = -30 + rng.Intn(60)
	}
	return lo, hi
}

func randRect(rng *rand.Rand, maxSpan int) rect {
	r := prodRect(randIndexSet(rng, maxSpan), randIndexSet(rng, maxSpan))
	r.dlo, r.dhi = randBand(rng)
	r.slo, r.shi = randBand(rng)
	return r
}

// rectHas is the definition of rect membership.
func rectHas(r rect, e0, e1 int) bool {
	return r.a.Contains(e0) && r.b.Contains(e1) &&
		e1-e0 >= r.dlo && e1-e0 <= r.dhi && e1+e0 >= r.slo && e1+e0 <= r.shi
}

// rectPoints enumerates the (e0, e1) pairs of r by brute force.
func rectPoints(r rect) [][2]int {
	var out [][2]int
	for e0 := r.a.Lo; e0 <= r.a.Hi; e0++ {
		for e1 := r.b.Lo; e1 <= r.b.Hi; e1++ {
			if rectHas(r, e0, e1) {
				out = append(out, [2]int{e0, e1})
			}
		}
	}
	return out
}

// randOwnerDim draws one array dim's distribution over n processors of
// grid dim gd: contiguous blocks either way up, cyclic, block-cyclic or
// replicated.
func randOwnerDim(rng *rand.Rand, size, n, gd int) dist.Dim {
	switch rng.Intn(5) {
	case 0:
		return dist.BlockContiguous(size, n, gd)
	case 1:
		return dist.BlockContiguousDecreasing(size, n, gd)
	case 2:
		return dist.Cyclic(gd)
	case 3:
		return dist.BlockCyclic(1+rng.Intn(3), gd)
	}
	return dist.Replicated(gd)
}

// randArray readies workspace e to count footprints of one 2-D array
// laid out at random over a random grid, its sides a few indices longer
// than span, with room for n rects, and returns it with its scheme and
// grid.
func randArray(t *testing.T, rng *rand.Rand, e *anEngine, span, n int) (*anArray, dist.Scheme, *grid.Grid) {
	t.Helper()
	g := grid.New(1+rng.Intn(4), 1+rng.Intn(4))
	shape := []int{span + 8 + rng.Intn(8), span + 8 + rng.Intn(8)}
	s := dist.Scheme2D(randOwnerDim(rng, shape[0], g.Extent(0), 0), randOwnerDim(rng, shape[1], g.Extent(1), 1), nil)
	if err := s.Validate(g, shape); err != nil {
		t.Fatal(err)
	}
	e.reset(g, 0, 1)
	lcm := 1
	a, ok := e.compileArray("A", shape, s, &lcm)
	if !ok {
		t.Fatalf("scheme %s declined", s)
	}
	a.reads = n
	e.arrays = append(e.arrays, a)
	arr := &e.arrays[0]
	e.layoutCells(arr)
	e.sizeSplits()
	return arr, s, g
}

// randArrayRect draws a rect inside array a.
func randArrayRect(rng *rand.Rand, a *anArray, span int) rect {
	r := randRect(rng, span)
	r.a, r.b = r.a.Clip(1, a.sizes[0]), r.b.Clip(1, a.sizes[1])
	return r
}

// cellWordsOf is the words fp has in each owner cell of a but own,
// counted as a count does.
func cellWordsOf(e *anEngine, a *anArray, fp []rect, own int) map[int]int64 {
	a.fp = append(a.fp[:0], fp...)
	got := map[int]int64{}
	if fe, _ := e.footprint(0, own); fe != nil {
		for _, w := range e.fpBills[fe.b0:fe.b1] {
			if w.cell != own {
				got[w.cell] += w.n
			}
		}
	}
	return got
}

// enumWords is the enumeration's count of points per owner cell but own.
func enumWords(a *anArray, s dist.Scheme, g *grid.Grid, pts [][2]int, own int) map[int]int64 {
	want := map[int]int64{}
	for _, pt := range pts {
		c := [2]int{}
		for k, x := range pt {
			if !s.Dims[k].Replicated {
				c[k] = s.DimCoordOf(g, k, x)
			}
		}
		if cell := c[0]*a.n1 + c[1]; cell != own {
			want[cell]++
		}
	}
	return want
}

// TestRectCountMatchesEnumeration: a rect's words in each owner cell of
// a random layout — products, diagonals, half-planes and general bands,
// over spans on both sides of the windowed sum's direct cap — equal the
// enumeration's, and so do those of its intersection with a second rect:
// a rejection by intersectRect (on hulls, bands or masks) must mean no
// common point.
func TestRectCountMatchesEnumeration(t *testing.T) {
	for _, seed := range rectSeeds {
		rng := rand.New(rand.NewSource(seed))
		e := new(anEngine)
		for trial := 0; trial < 120; trial++ {
			span := spanOnEitherSideOfCap(trial)
			a, s, g := randArray(t, rng, e, span, 1)
			r := randArrayRect(rng, a, span)
			label := fmt.Sprintf("seed %d trial %d scheme %s grid %s rect %+v", seed, trial, s, g, r)
			if got, want := cellWordsOf(e, a, []rect{r}, -1), enumWords(a, s, g, rectPoints(r), -1); !maps.Equal(got, want) {
				t.Fatalf("%s: words per cell %v, enumeration %v", label, got, want)
			}
			o := randArrayRect(rng, a, spanOnEitherSideOfCap(trial+1))
			var common [][2]int
			for _, pt := range rectPoints(r) {
				if rectHas(o, pt[0], pt[1]) {
					common = append(common, pt)
				}
			}
			got := map[int]int64{}
			var x rect
			if intersectRect(&x, &r, &o) {
				got = cellWordsOf(e, a, []rect{x}, -1)
			}
			if want := enumWords(a, s, g, common, -1); !maps.Equal(got, want) {
				t.Fatalf("%s ∩ %+v: words per cell %v, enumeration %v", label, o, got, want)
			}
		}
	}
}

// TestUnionCountMatchesEnumeration drives the footprint count — one
// inclusion-exclusion whose terms come back split across the owner cells
// — with 1..4 rects on every trial and, every third trial, with
// 6..maxFootprintRects rects drawn over one small window so they overlap
// many deep, each cut by random bands, on a random layout of a 2-D array
// over a random grid. Every cell's words must be the enumerated union's
// points in it, the own cell of a random rank aside (its local rects
// dropped first, as a count does). One workspace serves the whole seed: a
// count must not depend on what the previous one left behind.
func TestUnionCountMatchesEnumeration(t *testing.T) {
	for _, seed := range rectSeeds {
		rng := rand.New(rand.NewSource(seed))
		e := new(anEngine)
		for trial := 0; trial < 60; trial++ {
			n, span := 1+rng.Intn(4), spanOnEitherSideOfCap(trial)/3
			if trial%3 == 0 {
				n, span = 6+rng.Intn(maxFootprintRects-5), 12
			}
			a, s, g := randArray(t, rng, e, span, n)
			own := -1
			if rng.Intn(3) > 0 {
				own = a.ownCell(e.coord(rng.Intn(g.Size())))
			}
			fp := make([]rect, n)
			union := map[[2]int]bool{}
			for i := range fp {
				fp[i] = randArrayRect(rng, a, span)
				for _, pt := range rectPoints(fp[i]) {
					union[pt] = true
				}
			}
			var pts [][2]int
			for pt := range union {
				pts = append(pts, pt)
			}
			if got, want := cellWordsOf(e, a, fp, own), enumWords(a, s, g, pts, own); !maps.Equal(got, want) {
				t.Fatalf("seed %d trial %d scheme %s grid %s own %d rects %+v: words per cell %v, enumeration %v",
					seed, trial, s, g, own, fp, got, want)
			}
		}
	}
}

func TestSumWindowedMatchesEnumeration(t *testing.T) {
	randBounds := func(rng *rand.Rand) (bs bounds) {
		for n := rng.Intn(3); n > 0; n-- {
			bs.add(-20+rng.Intn(60), -1+rng.Intn(3))
		}
		return bs
	}
	for _, seed := range rectSeeds {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 120; trial++ {
			xs := randIndexSet(rng, spanOnEitherSideOfCap(trial))
			terms := make([]winTerm, 1+rng.Intn(2))
			for i := range terms {
				terms[i] = winTerm{set: randIndexSet(rng, 80), los: randBounds(rng), his: randBounds(rng)}
			}
			var want int64
			for v := xs.Lo; v <= xs.Hi; v++ {
				if !xs.Contains(v) {
					continue
				}
				prod := int64(1)
				for _, tm := range terms {
					var in int64
					for x := tm.set.Lo; x <= tm.set.Hi; x++ {
						ok := tm.set.Contains(x)
						for _, b := range tm.los.list() {
							ok = ok && x >= b.c+b.k*v
						}
						for _, b := range tm.his.list() {
							ok = ok && x <= b.c+b.k*v
						}
						if ok {
							in++
						}
					}
					prod *= in
				}
				want += prod
			}
			if got := new(winStats).sumWindowed(xs, terms); got != want {
				t.Fatalf("seed %d trial %d xs %+v terms %+v: sumWindowed = %d, enumeration %d", seed, trial, xs, terms, got, want)
			}
		}
	}
}
