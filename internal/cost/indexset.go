// 2-D element rectangles: the cost-only layer over dist.IndexSet, the
// one periodic 1-D set type (an interval cut by a residue mask — exactly
// the shape of the index sets owned by one grid coordinate under the
// Section 2.1 distribution functions, closed under intersection and
// unit-slope affine maps). A rect lifts two such sets to a 2-D element
// set: their box product further cut by difference and sum bands
//
//	dlo <= e1 - e0 <= dhi   and   slo <= e1 + e0 <= shi
//
// which is the closure, under intersection, of the three shapes affine
// nests produce: plain products, diagonals (one variable driving both
// subscripts, a band of width zero), and the triangular half-planes of
// loop-variable-dependent bounds (i = k+1..m reads A(i,k) below the
// diagonal). Counting is exact integer arithmetic throughout; band
// counts reduce to sums of arithmetic-progression counts evaluated in
// closed form (sumWindowed), so the cost stays independent of the
// interval widths.
package cost

import (
	"slices"

	"dmcc/internal/dist"
)

// Band sentinels: far enough from any index to never clamp, near enough
// that band arithmetic (sums and differences of two bounds) cannot
// overflow.
const (
	bandMin = -1 << 40
	bandMax = 1 << 40
)

// rect is a set of (e0, e1) element pairs: e0 in a, e1 in b, cut by a
// difference band dlo <= e1-e0 <= dhi and a sum band slo <= e1+e0 <= shi.
// Products leave both bands open; a diagonal pins one band to width
// zero; triangular reads close one side only. 1-D arrays use product
// form with b pinned to the singleton {1}.
type rect struct {
	a, b     dist.IndexSet
	dlo, dhi int
	slo, shi int
}

func prodRect(a, b dist.IndexSet) rect {
	return rect{a: a, b: b, dlo: bandMin, dhi: bandMax, slo: bandMin, shi: bandMax}
}

// diagRect is {(s0*v+c0, s1*v+c1) : v in s}: the box of the two images
// with the line itself expressed as a zero-width band. The unit slopes
// make v recoverable from either coordinate, so the band form is the
// same point set, not an approximation.
func diagRect(s dist.IndexSet, s0, c0, s1, c1 int) rect {
	r := prodRect(s.AffineImage(s0, c0), s.AffineImage(s1, c1))
	if s0 == s1 {
		r.dlo, r.dhi = c1-c0, c1-c0
	} else {
		r.slo, r.shi = c0+c1, c0+c1
	}
	return r
}

// halfPlane cuts r by sgn0*e0 + sgn1*e1 >= g (or <= g when ge is false),
// with sgn0, sgn1 in {-1, +1} — the constraint shape a dependent loop
// bound induces between two subscript images.
func (r rect) halfPlane(sgn0, sgn1, g int, ge bool) rect {
	if sgn0 == sgn1 {
		// sgn*(e0+e1) >= g  <=>  e0+e1 >= sgn*g (sgn=+1) / <= -g (sgn=-1).
		if (sgn0 == 1) == ge {
			if v := sgn0 * g; v > r.slo {
				r.slo = v
			}
		} else {
			if v := sgn0 * g; v < r.shi {
				r.shi = v
			}
		}
		return r
	}
	// sgn1*(e1-e0) >= g.
	if (sgn1 == 1) == ge {
		if v := sgn1 * g; v > r.dlo {
			r.dlo = v
		}
	} else {
		if v := sgn1 * g; v < r.dhi {
			r.dhi = v
		}
	}
	return r
}

// bandTerm is the window rect r's bands open on one side at each value v
// of the other: over v = e0 the e1 in set with dlo+v <= e1 <= dhi+v and
// slo-v <= e1 <= shi-v, or, transposed, over v = e1 the e0 in set with
// v-dhi <= e0 <= v-dlo and slo-v <= e0 <= shi-v. set is that side, or
// part of it.
func bandTerm(r *rect, set dist.IndexSet, transposed bool) winTerm {
	t := winTerm{set: set}
	dlo, dhi := r.dlo, r.dhi
	if transposed {
		dlo, dhi = -r.dhi, -r.dlo
	}
	if dlo > bandMin {
		t.los.add(dlo, 1)
	}
	if r.slo > bandMin {
		t.los.add(r.slo, -1)
	}
	if dhi < bandMax {
		t.his.add(dhi, 1)
	}
	if r.shi < bandMax {
		t.his.add(r.shi, -1)
	}
	return t
}

// bandsOver classifies r's bands on the box of hulls a × b: 1 when they
// hold every pair of the box, -1 when they hold none, 0 when they cut it.
func (r *rect) bandsOver(a, b dist.IndexSet) int {
	switch {
	case r.dlo > b.Hi-a.Lo || r.dhi < b.Lo-a.Hi || r.slo > a.Hi+b.Hi || r.shi < a.Lo+b.Lo:
		return -1
	case r.dlo <= b.Lo-a.Hi && r.dhi >= b.Hi-a.Lo && r.slo <= a.Lo+b.Lo && r.shi >= a.Hi+b.Hi:
		return 1
	}
	return 0
}

// rectEq reports structural equality — same sets, same bands. Used to
// dedup footprint rects before inclusion-exclusion, whose cost is
// exponential in the rect count.
func rectEq(x, y *rect) bool {
	if x.dlo != y.dlo || x.dhi != y.dhi || x.slo != y.slo || x.shi != y.shi {
		return false
	}
	return x.a.Equal(y.a) && x.b.Equal(y.b)
}

// intersectRect stores x ∩ y in dst. false means provably empty, and is
// decided as early as the evidence allows: on the interval hulls and the
// bands (contradictory, or excluding the whole clipped box) before any
// residue mask is read, then on masks that share no residue. A true
// result may still count to zero.
func intersectRect(dst, x, y *rect) bool {
	aLo, aHi := max(x.a.Lo, y.a.Lo), min(x.a.Hi, y.a.Hi)
	bLo, bHi := max(x.b.Lo, y.b.Lo), min(x.b.Hi, y.b.Hi)
	dlo, dhi := max(x.dlo, y.dlo), min(x.dhi, y.dhi)
	slo, shi := max(x.slo, y.slo), min(x.shi, y.shi)
	if aHi < aLo || bHi < bLo || dlo > dhi || slo > shi ||
		dlo > bHi-aLo || dhi < bLo-aHi || slo > aHi+bHi || shi < aLo+bLo {
		return false
	}
	a := x.a.Intersect(y.a)
	if a.Hi < a.Lo {
		return false
	}
	b := x.b.Intersect(y.b)
	if b.Hi < b.Lo {
		return false
	}
	*dst = rect{a: a, b: b, dlo: dlo, dhi: dhi, slo: slo, shi: shi}
	return true
}

// rectScratch is the working storage of one inclusion-exclusion walk
// (anEngine.countFootprint): the running intersection and the cursor into
// the rect list at each depth, and the windowed sums' storage and tally.
// An engine workspace owns one, so counting a union allocates nothing.
type rectScratch struct {
	acc  [maxFootprintRects + 1]rect
	next [maxFootprintRects + 1]int
	win  winStats
}

// ------------------------------------------------- windowed AP sums --

// affBound is a window endpoint affine in the outer variable v:
// value(v) = c + k*v with k in {-1, 0, +1}.
type affBound struct{ c, k int }

// bounds holds the endpoints on one side of a window. A band has at most
// two (its difference and its sum bound) and a dependent loop bound one,
// so the storage is fixed and a winTerm is a plain value.
type bounds struct {
	b [2]affBound
	n int
}

func (bs *bounds) add(c, k int) {
	bs.b[bs.n] = affBound{c: c, k: k}
	bs.n++
}

func (bs *bounds) list() []affBound { return bs.b[:bs.n] }

// winTerm is one factor of a windowed product: the count of set members
// inside [max of los, min of his] (either side open when empty).
type winTerm struct {
	set      dist.IndexSet
	los, his bounds
}

func (t *winTerm) eval(v int) int64 {
	lo, hi := t.set.Lo, t.set.Hi
	for _, b := range t.los.list() {
		if x := b.c + b.k*v; x > lo {
			lo = x
		}
	}
	for _, b := range t.his.list() {
		if x := b.c + b.k*v; x < hi {
			hi = x
		}
	}
	return t.set.CountIn(lo, hi)
}

// sumWindowedDirectCap: spans at most this wide are summed by direct
// enumeration of v; the closed form takes over beyond it.
const sumWindowedDirectCap = 64

// winStats tallies the work of windowed sums — steps counts the residue
// classes scanned and the values of v walked, prods the products
// evaluated; only tests read them — and keeps the interval starts' list
// from sum to sum.
type winStats struct {
	steps, prods int64
	starts       []int
}

// sumWindowed returns sum over v in xs of the product over terms of
// |term.set ∩ [max(term.los(v)), min(term.his(v))]|, in closed form.
//
// On any interval of v where no window endpoint crosses another or
// crosses its set's hull, and restricted to one residue class of the
// combined period, each factor is affine in v (shifting a window by the
// period over a periodic set changes the count linearly), so the product
// is a polynomial of degree <= len(terms). The sum is then recovered
// from len(terms)+1 samples per (interval, class) by Newton forward
// differences and hockey-stick binomial sums — exactly the
// "sums of arithmetic-progression counts" closed form.
func (ws *winStats) sumWindowed(xs dist.IndexSet, terms []winTerm) int64 {
	return ws.sumRouted(xs, terms, nil)
}

// winRoute sends a windowed sum's products to the owner coordinates of
// their outer values: out[a] gains the products at the v that coordinate
// a of the cyclic dimension d on n processors owns.
type winRoute struct {
	d   dist.Dim
	n   int
	out []int64
}

// sumRouted is sumWindowed, each product also added to its route's
// owner coordinate when rt is not nil. The residue classes are those of
// the period's lcm with the route's n*Block, so each is owned whole by
// one coordinate and its closed-form sum is routed at once.
func (ws *winStats) sumRouted(xs dist.IndexSet, terms []winTerm, rt *winRoute) int64 {
	if xs.Hi < xs.Lo {
		return 0
	}
	var rp int
	if rt != nil {
		rp = rt.n * rt.d.Block
	}
	route := func(v int, x int64) {
		if rt != nil && x != 0 {
			rt.out[dist.Mod(rt.d.Sign*v+rt.d.Disp, rp)/rt.d.Block] += x
		}
	}
	prodAt := func(v int) int64 {
		ws.prods++
		if !xs.InClass(v) {
			return 0
		}
		acc := int64(1)
		for i := range terms {
			acc *= terms[i].eval(v)
			if acc == 0 {
				return 0
			}
		}
		return acc
	}
	if xs.Hi-xs.Lo < sumWindowedDirectCap {
		var sum int64
		for v := xs.Lo; v <= xs.Hi; v++ {
			ws.steps++
			x := prodAt(v)
			sum += x
			route(v, x)
		}
		return sum
	}

	period := xs.Period
	for _, t := range terms {
		period = dist.LCM(period, t.set.Period)
	}
	if rt != nil {
		period = dist.LCM(period, rp)
	}

	// Interval starts: v values where some endpoint ordering can change.
	// One term adds at most 42 (four bounds: two hull crossings each and
	// six pairwise crossings, three starts apiece).
	starts := append(ws.starts[:0], xs.Lo)
	addCross := func(v int) {
		for _, d := range [3]int{-1, 0, 1} {
			if x := v + d; x > xs.Lo && x <= xs.Hi {
				starts = append(starts, x)
			}
		}
	}
	for ti := range terms {
		t := &terms[ti]
		var all [4]affBound
		bounds := append(append(all[:0], t.los.list()...), t.his.list()...)
		for i, b1 := range bounds {
			if b1.k != 0 {
				// Crossing the set hull (clamp side changes).
				addCross(b1.k * (t.set.Lo - b1.c))
				addCross(b1.k * (t.set.Hi - b1.c))
			}
			for _, b2 := range bounds[i+1:] {
				if b1.k == b2.k {
					continue
				}
				// c1 + k1 v = c2 + k2 v at v = (c2-c1)/(k1-k2).
				num, den := b2.c-b1.c, b1.k-b2.k
				addCross(floorDiv(num, den))
			}
		}
	}
	slices.Sort(starts)
	starts = slices.Compact(starts)
	ws.starts = starts

	deg := len(terms)
	var sum int64
	var sampleBuf [4]int64
	samples := sampleBuf[:]
	if deg >= len(samples) {
		samples = make([]int64, deg+1)
	}
	for i, l := range starts {
		h := xs.Hi
		if i+1 < len(starts) {
			h = starts[i+1] - 1
		}
		if h-l+1 < period {
			// Fewer values than residue classes: each class meets the
			// interval at most once, so walk the values instead.
			for v := l; v <= h; v++ {
				ws.steps++
				x := prodAt(v)
				sum += x
				route(v, x)
			}
			continue
		}
		for rho := 0; rho < period; rho++ {
			ws.steps++
			if !xs.InClass(rho) {
				continue
			}
			v0 := l + dist.Mod(rho-l, period)
			if v0 > h {
				continue
			}
			n := int64((h-v0)/period) + 1
			var class int64
			if n <= int64(deg)+1 {
				for t := int64(0); t < n; t++ {
					class += prodAt(v0 + int(t)*period)
				}
				sum += class
				route(v0, class)
				continue
			}
			for t := 0; t <= deg; t++ {
				samples[t] = prodAt(v0 + t*period)
			}
			// Forward differences in place, then the hockey-stick sum:
			// sum over t < n of C(t,k) equals C(n, k+1).
			for k := 1; k <= deg; k++ {
				for j := deg; j >= k; j-- {
					samples[j] -= samples[j-1]
				}
			}
			for k := 0; k <= deg; k++ {
				class += samples[k] * binom(n, int64(k)+1)
			}
			sum += class
			route(v0, class)
		}
	}
	return sum
}

// floorDiv returns floor(a/b) for b != 0.
func floorDiv(a, b int) int {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// binom returns C(n, k) exactly; the running product is divisible by i
// at each step. The orders a windowed sum takes (k <= 3 for two terms)
// divide by constants.
func binom(n, k int64) int64 {
	if k < 0 || k > n {
		return 0
	}
	switch k {
	case 1:
		return n
	case 2:
		return n * (n - 1) / 2
	case 3:
		return n * (n - 1) / 2 * (n - 2) / 3
	}
	b := int64(1)
	for i := int64(1); i <= k; i++ {
		b = b * (n - i + 1) / i
	}
	return b
}
