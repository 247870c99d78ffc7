// The 1-D periodic index set: the one set algebra under the cost engine.
//
// The indices one grid coordinate owns under a Section 2.1 distribution
// function are an interval (contiguous dims) or a periodic union of
// residue classes ((block-)cyclic dims). IndexSet is that shape — an
// interval cut by a residue mask — and it is closed under everything the
// compiler does with such sets: clipping, intersection and unit-slope
// affine maps. OwnedPatternOf produces the owned sets; the analytic nest
// counter (package cost) lifts them to 2-D element rects and intersects
// them with iteration ranges, and the redistribution bill (analytic.go)
// counts their pairwise intersections. Counting is exact integer
// arithmetic whose cost depends on the period, never on the interval
// width.
package dist

import "dmcc/internal/grid"

// IndexSet is {x in [Lo, Hi] : Residues[x mod Period]} with Period >= 1
// and len(Residues) == Period. Contiguous dimensions have Period 1 and
// carry all structure in the interval; cyclic dimensions have
// Period = N*Block and an interval spanning the whole dimension. Sets
// are values: no method, and no caller, writes through Residues — the
// invariant that lets Intersect, Clip and AffineImage hand back an
// operand's mask instead of a copy.
type IndexSet struct {
	Lo, Hi   int
	Period   int
	Residues []bool
}

// everyResidue is the mask of all Period-1 sets; sharing it is safe
// because sets are values.
var everyResidue = []bool{true}

// Interval returns the set of all integers in [lo, hi].
func Interval(lo, hi int) IndexSet {
	return IndexSet{Lo: lo, Hi: hi, Period: 1, Residues: everyResidue}
}

// Mod returns x mod p in [0, p) for p > 0 and any x.
func Mod(x, p int) int { return ((x % p) + p) % p }

// LCM returns the least common multiple of two positive integers.
func LCM(a, b int) int {
	g, x := a, b
	for x != 0 {
		g, x = x, g%x
	}
	return a / g * b
}

// countResidue counts x in [lo, hi] with x mod p == r.
func countResidue(lo, hi, p, r int) int64 {
	if hi < lo {
		return 0
	}
	// Shift so the range starts at a multiple of p.
	span := hi - lo + 1
	off := Mod(r-lo, p)
	if off >= span {
		return 0
	}
	return int64((span-off-1)/p) + 1
}

// Count returns the number of members.
func (s IndexSet) Count() int64 { return s.CountIn(s.Lo, s.Hi) }

// CountIn counts members of s inside [l, h].
func (s IndexSet) CountIn(l, h int) int64 {
	if l < s.Lo {
		l = s.Lo
	}
	if h > s.Hi {
		h = s.Hi
	}
	if h < l {
		return 0
	}
	var c int64
	for r, ok := range s.Residues {
		if ok {
			c += countResidue(l, h, s.Period, r)
		}
	}
	return c
}

// Empty reports whether s has no members.
func (s IndexSet) Empty() bool { return s.Count() == 0 }

// Contains reports whether v is a member.
func (s IndexSet) Contains(v int) bool {
	return v >= s.Lo && v <= s.Hi && s.Residues[Mod(v, s.Period)]
}

// Min returns the smallest member. Any nonempty set has a member in the
// first Period positions of its interval, so the scan is O(Period).
func (s IndexSet) Min() (int, bool) {
	end := s.Lo + s.Period - 1
	if end > s.Hi {
		end = s.Hi
	}
	for v := s.Lo; v <= end; v++ {
		if s.Residues[Mod(v, s.Period)] {
			return v, true
		}
	}
	return 0, false
}

// Max returns the largest member.
func (s IndexSet) Max() (int, bool) {
	end := s.Hi - s.Period + 1
	if end < s.Lo {
		end = s.Lo
	}
	for v := s.Hi; v >= end; v-- {
		if s.Residues[Mod(v, s.Period)] {
			return v, true
		}
	}
	return 0, false
}

// Clip restricts the interval to [l, h].
func (s IndexSet) Clip(l, h int) IndexSet {
	if l > s.Lo {
		s.Lo = l
	}
	if h < s.Hi {
		s.Hi = h
	}
	return s
}

// Intersect returns the members common to s and o. The result shares an
// operand's mask whenever that mask already is the answer — the other
// operand is a full Period-1 interval, or its mask contains this one —
// and comes back as an empty interval, without a mask of its own, when
// the intervals or the masks are disjoint; only a genuinely new mask is
// allocated.
func (s IndexSet) Intersect(o IndexSet) IndexSet {
	lo, hi := max(s.Lo, o.Lo), min(s.Hi, o.Hi)
	switch {
	case hi < lo:
		return Interval(lo, hi)
	case o.Period == 1 && o.Residues[0]:
		return IndexSet{Lo: lo, Hi: hi, Period: s.Period, Residues: s.Residues}
	case s.Period == 1 && s.Residues[0]:
		return IndexSet{Lo: lo, Hi: hi, Period: o.Period, Residues: o.Residues}
	}
	p := LCM(s.Period, o.Period)
	meet, isS, isO := false, p == s.Period, p == o.Period
	for r, i, j := 0, 0, 0; r < p; r++ {
		a, b := s.Residues[i], o.Residues[j]
		meet = meet || a && b
		isS = isS && (b || !a)
		isO = isO && (a || !b)
		if i++; i == s.Period {
			i = 0
		}
		if j++; j == o.Period {
			j = 0
		}
	}
	switch {
	case !meet:
		return Interval(lo, lo-1)
	case isS:
		return IndexSet{Lo: lo, Hi: hi, Period: p, Residues: s.Residues}
	case isO:
		return IndexSet{Lo: lo, Hi: hi, Period: p, Residues: o.Residues}
	}
	res := make([]bool, p)
	for r := range res {
		res[r] = s.Residues[r%s.Period] && o.Residues[r%o.Period]
	}
	return IndexSet{Lo: lo, Hi: hi, Period: p, Residues: res}
}

// AffineImage returns {sign*x + c : x in s}, sign in {-1, +1}. A map that
// leaves every residue class in place (Period 1, or a shift by a multiple
// of the period) shares s's mask.
func (s IndexSet) AffineImage(sign, c int) IndexSet {
	lo, hi := s.Lo+c, s.Hi+c
	if sign == -1 {
		lo, hi = c-s.Hi, c-s.Lo
	}
	if s.Period == 1 || sign == 1 && c%s.Period == 0 {
		return IndexSet{Lo: lo, Hi: hi, Period: s.Period, Residues: s.Residues}
	}
	res := make([]bool, s.Period)
	for r, ok := range s.Residues {
		if ok {
			res[Mod(sign*r+c, s.Period)] = true
		}
	}
	return IndexSet{Lo: lo, Hi: hi, Period: s.Period, Residues: res}
}

// AffinePreimage returns {x : sign*x + c in s}; since sign*sign == 1 this
// is the image under the inverse map x = sign*y - sign*c.
func (s IndexSet) AffinePreimage(sign, c int) IndexSet {
	return s.AffineImage(sign, -sign*c)
}

// Equal reports structural equality: same interval, period and mask.
func (s IndexSet) Equal(o IndexSet) bool {
	if s.Period != o.Period || s.Lo != o.Lo || s.Hi != o.Hi || len(s.Residues) != len(o.Residues) {
		return false
	}
	for i := range s.Residues {
		if s.Residues[i] != o.Residues[i] {
			return false
		}
	}
	return true
}

// DimCoordOf returns the raw (pre-rotation) grid coordinate of index i
// under array dimension k of the scheme — the paper's fA applied to one
// subscript — or All for a replicated dimension. It panics exactly where
// element enumeration would: on indices a contiguous dimension does not
// map.
func (s Scheme) DimCoordOf(g *grid.Grid, k, i int) int {
	return s.Dims[k].mapDim(g, i)
}

// OwnedPatternOf returns the set of indices in 1..size owned by grid
// coordinate a of dimension d on n processors; a replicated dimension
// owns the full range at its one coordinate.
func OwnedPatternOf(d Dim, n, a, size int) IndexSet {
	if d.Replicated {
		return Interval(1, size)
	}
	// z = Sign*i + Disp must fall in coordinate a's block(s).
	zlo, zhi := a*d.Block, (a+1)*d.Block-1
	if !d.Cyclic {
		// One block: the preimage of [zlo, zhi], clamped to the dimension.
		lo, hi := zlo-d.Disp, zhi-d.Disp
		if d.Sign == -1 {
			lo, hi = d.Disp-zhi, d.Disp-zlo
		}
		return Interval(lo, hi).Clip(1, size)
	}
	// Cyclic: i owned iff (z/Block) mod n == a, i.e. z mod (n*Block) in
	// [zlo, zhi]. z mod P depends only on i mod P, so the owned set is
	// periodic with period n*Block.
	p := n * d.Block
	res := make([]bool, p)
	for r := 0; r < p; r++ {
		if z := Mod(d.Sign*r+d.Disp, p); z >= zlo && z <= zhi {
			res[r] = true
		}
	}
	return IndexSet{Lo: 1, Hi: size, Period: p, Residues: res}
}
