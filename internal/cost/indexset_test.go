package cost

import (
	"math/rand"
	"testing"

	"dmcc/internal/dist"
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

func TestRectCountMatchesEnumeration(t *testing.T) {
	for _, seed := range rectSeeds {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 120; trial++ {
			r := randRect(rng, spanOnEitherSideOfCap(trial))
			if got, want := new(winStats).count(&r), int64(len(rectPoints(r))); got != want {
				t.Fatalf("seed %d trial %d rect %+v: count = %d, enumeration %d", seed, trial, r, got, want)
			}
			// intersectRect against a second rect: a rejection (on hulls,
			// bands or masks) must mean no common point, an answer must
			// count the common points.
			o := randRect(rng, spanOnEitherSideOfCap(trial+1))
			var common, got int64
			for _, pt := range rectPoints(r) {
				if rectHas(o, pt[0], pt[1]) {
					common++
				}
			}
			var x rect
			if intersectRect(&x, &r, &o) {
				got = new(winStats).count(&x)
			}
			if got != common {
				t.Fatalf("seed %d trial %d: %+v ∩ %+v counts %d, enumeration %d", seed, trial, r, o, got, common)
			}
		}
	}
}

// TestUnionCountMatchesEnumeration drives the scratch-based
// inclusion-exclusion with 1..4 rects on every trial and, every third
// trial, with 6..maxFootprintRects rects drawn over one small window so
// they overlap many deep — each cut by random bands — and counts the
// union inside a random region rect as the engine does per owner cell.
// One scratch serves the whole seed: a walk must not depend on what the
// previous one left behind.
func TestUnionCountMatchesEnumeration(t *testing.T) {
	for _, seed := range rectSeeds {
		rng := rand.New(rand.NewSource(seed))
		var sc rectScratch
		for trial := 0; trial < 60; trial++ {
			n, span := 1+rng.Intn(4), spanOnEitherSideOfCap(trial)/3
			if trial%3 == 0 {
				n, span = 6+rng.Intn(maxFootprintRects-5), 12
			}
			within := randRect(rng, 3*span)
			if trial%2 == 0 {
				within = prodRect(dist.Interval(-100, 300), dist.Interval(-100, 300))
			}
			rs := make([]rect, n)
			union := map[[2]int]bool{}
			for i := range rs {
				rs[i] = randRect(rng, span)
				for _, pt := range rectPoints(rs[i]) {
					if rectHas(within, pt[0], pt[1]) {
						union[pt] = true
					}
				}
			}
			if got, want := sc.unionCount(rs, &within), int64(len(union)); got != want {
				t.Fatalf("seed %d trial %d rects %+v within %+v: unionCount = %d, enumeration %d", seed, trial, rs, within, got, want)
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
