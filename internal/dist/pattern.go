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
// counts their pairwise intersections. The mask is a bitset, and every
// operation works on it a 64-bit word at a time: counting is exact
// integer arithmetic whose cost is Period/64 words, never the interval
// width, and an equal-period intersection or a shift is as cheap.
package dist

import (
	"math/bits"
	"slices"

	"dmcc/internal/grid"
)

// IndexSet is {x in [Lo, Hi] : residue x mod Period is in the mask} with
// Period >= 1. The mask holds bit r of residue r in word r/64, with the
// bits at and above Period clear. Contiguous dimensions have Period 1 and
// carry all structure in the interval; cyclic dimensions have
// Period = N*Block and an interval spanning the whole dimension. Sets
// are values: no method, and no caller, writes through the mask — the
// invariant that lets Intersect, Clip and AffineImage hand back an
// operand's mask instead of a copy.
type IndexSet struct {
	Lo, Hi int
	Period int
	mask   []uint64
}

// everyResidue is the mask of all full Period-1 sets; sharing it is safe
// because sets are values.
var everyResidue = []uint64{1}

// Interval returns the set of all integers in [lo, hi].
func Interval(lo, hi int) IndexSet {
	return IndexSet{Lo: lo, Hi: hi, Period: 1, mask: everyResidue}
}

// Periodic returns {x in [lo, hi] : member[x mod len(member)]}, the set of
// period len(member) >= 1, its mask built from member, which the caller
// keeps.
func Periodic(lo, hi int, member []bool) IndexSet {
	s := IndexSet{Lo: lo, Hi: hi, Period: len(member), mask: newMask(len(member))}
	for r, in := range member {
		if in {
			s.mask[r>>6] |= 1 << (r & 63)
		}
	}
	return s
}

// newMask returns an all-clear mask for period p.
func newMask(p int) []uint64 { return make([]uint64, (p+63)>>6) }

// Mod returns x mod p in [0, p) for p > 0 and any x.
func Mod(x, p int) int {
	r := x % p
	if r < 0 {
		r += p
	}
	return r
}

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

// has reports whether residue r, in [0, Period), is in the mask.
func (s IndexSet) has(r int) bool { return s.mask[r>>6]>>(r&63)&1 != 0 }

// InClass reports whether x's residue class mod Period is in the mask,
// whatever the interval: membership for any x in [Lo, Hi].
func (s IndexSet) InClass(x int) bool {
	if s.Period == 1 {
		return s.mask[0]&1 != 0
	}
	return s.has(Mod(x, s.Period))
}

// onesIn counts the mask's residues in [lo, hi], a sub-range of
// [0, Period), a word at a time.
func (s IndexSet) onesIn(lo, hi int) int64 {
	if hi < lo {
		return 0
	}
	wl, wh := lo>>6, hi>>6
	first := ^uint64(0) << (lo & 63)
	last := ^uint64(0) >> (63 - hi&63)
	if wl == wh {
		return int64(bits.OnesCount64(s.mask[wl] & first & last))
	}
	c := bits.OnesCount64(s.mask[wl]&first) + bits.OnesCount64(s.mask[wh]&last)
	for _, w := range s.mask[wl+1 : wh] {
		c += bits.OnesCount64(w)
	}
	return int64(c)
}

// window reads the n <= 64 mask bits from residue pos on, wrapping from
// Period-1 to 0, into the low bits of one word.
func (s IndexSet) window(pos, n int) uint64 {
	if rest := s.Period - pos; n > rest {
		return s.window(pos, rest) | s.window(0, n-rest)<<rest
	}
	w, b := pos>>6, pos&63
	x := s.mask[w] >> b
	if b+n > 64 {
		x |= s.mask[w+1] << (64 - b)
	}
	if n < 64 {
		x &= 1<<n - 1
	}
	return x
}

// Count returns the number of members.
func (s IndexSet) Count() int64 { return s.CountIn(s.Lo, s.Hi) }

// CountIn counts members of s inside [l, h]: the whole periods the window
// spans times the mask's population, plus the wrapped partial period.
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
	span := h - l + 1
	if s.Period == 1 {
		return int64(span) * int64(s.mask[0]&1)
	}
	full, rem := span/s.Period, span%s.Period
	var c int64
	if full > 0 {
		c = int64(full) * s.onesIn(0, s.Period-1)
	}
	if rem > 0 {
		r0 := Mod(l, s.Period)
		if end := r0 + rem - 1; end < s.Period {
			c += s.onesIn(r0, end)
		} else {
			c += s.onesIn(r0, s.Period-1) + s.onesIn(0, end-s.Period)
		}
	}
	return c
}

// Empty reports whether s has no members.
func (s IndexSet) Empty() bool { return s.Count() == 0 }

// Contains reports whether v is a member.
func (s IndexSet) Contains(v int) bool {
	return v >= s.Lo && v <= s.Hi && s.InClass(v)
}

// nextOne returns the smallest residue >= r in the mask, or -1.
func (s IndexSet) nextOne(r int) int {
	w := r >> 6
	x := s.mask[w] & (^uint64(0) << (r & 63))
	for {
		if x != 0 {
			return w<<6 + bits.TrailingZeros64(x)
		}
		if w++; w == len(s.mask) {
			return -1
		}
		x = s.mask[w]
	}
}

// prevOne returns the largest residue <= r in the mask, or -1.
func (s IndexSet) prevOne(r int) int {
	w := r >> 6
	x := s.mask[w] & (^uint64(0) >> (63 - r&63))
	for {
		if x != 0 {
			return w<<6 + 63 - bits.LeadingZeros64(x)
		}
		if w--; w < 0 {
			return -1
		}
		x = s.mask[w]
	}
}

// Min returns the smallest member: the first mask residue at or after
// Lo's, wrapping once, a word at a time.
func (s IndexSet) Min() (int, bool) {
	if s.Hi < s.Lo {
		return 0, false
	}
	r0 := Mod(s.Lo, s.Period)
	d := 0
	if r := s.nextOne(r0); r >= 0 {
		d = r - r0
	} else if r = s.nextOne(0); r >= 0 {
		d = r + s.Period - r0
	} else {
		return 0, false
	}
	if v := s.Lo + d; v <= s.Hi {
		return v, true
	}
	return 0, false
}

// Max returns the largest member.
func (s IndexSet) Max() (int, bool) {
	if s.Hi < s.Lo {
		return 0, false
	}
	r1 := Mod(s.Hi, s.Period)
	d := 0
	if r := s.prevOne(r1); r >= 0 {
		d = r1 - r
	} else if r = s.prevOne(s.Period - 1); r >= 0 {
		d = r1 + s.Period - r
	} else {
		return 0, false
	}
	if v := s.Hi - d; v >= s.Lo {
		return v, true
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

// full reports whether s is a Period-1 set with its one residue in.
func (s IndexSet) full() bool { return s.Period == 1 && s.mask[0]&1 != 0 }

// Intersect returns the members common to s and o. The result shares an
// operand's mask whenever that mask already is the answer — the other
// operand is a full Period-1 interval, or its mask contains this one —
// and comes back as an empty interval, without a mask of its own, when
// the intervals or the masks are disjoint; only a genuinely new mask is
// allocated. Both masks are read lifted to the lcm of the periods, so
// every period meets a word at a time.
func (s IndexSet) Intersect(o IndexSet) IndexSet {
	lo, hi := max(s.Lo, o.Lo), min(s.Hi, o.Hi)
	switch {
	case hi < lo:
		return Interval(lo, hi)
	case o.full():
		return IndexSet{Lo: lo, Hi: hi, Period: s.Period, mask: s.mask}
	case s.full():
		return IndexSet{Lo: lo, Hi: hi, Period: o.Period, mask: o.mask}
	}
	p := LCM(s.Period, o.Period)
	liftS, liftO := s.lifted(), o.lifted()
	n := (p + 63) >> 6
	last := ^uint64(0) >> (63 - (p-1)&63)
	words := func(w int) (uint64, uint64) {
		a, b := liftS.word(w), liftO.word(w)
		if w == n-1 {
			a, b = a&last, b&last
		}
		return a, b
	}
	meet, isS, isO := false, p == s.Period, p == o.Period
	for w := 0; w < n; w++ {
		a, b := words(w)
		meet = meet || a&b != 0
		isS = isS && a&^b == 0
		isO = isO && b&^a == 0
	}
	switch {
	case !meet:
		return Interval(lo, lo-1)
	case isS:
		return IndexSet{Lo: lo, Hi: hi, Period: p, mask: s.mask}
	case isO:
		return IndexSet{Lo: lo, Hi: hi, Period: p, mask: o.mask}
	}
	res := newMask(p)
	for w := range res {
		a, b := words(w)
		res[w] = a & b
	}
	return IndexSet{Lo: lo, Hi: hi, Period: p, mask: res}
}

// Within reports whether every member of s is a member of o: s's hull
// inside o's (or s empty) and, read lifted to the lcm of the periods a
// word at a time, no residue of s's mask outside o's — or, when s spans
// fewer indices than that lcm, each member in o.
func (s IndexSet) Within(o IndexSet) bool {
	if s.Hi < s.Lo {
		return true
	}
	if s.Lo < o.Lo || s.Hi > o.Hi {
		lo, okLo := s.Min()
		hi, _ := s.Max()
		if !okLo {
			return true
		}
		if lo < o.Lo || hi > o.Hi {
			return false
		}
	}
	if o.full() {
		return true
	}
	p := LCM(s.Period, o.Period)
	if s.Hi-s.Lo < p {
		for x := s.Lo; x <= s.Hi; x++ {
			if s.InClass(x) && !o.InClass(x) {
				return false
			}
		}
		return true
	}
	liftS, liftO := s.lifted(), o.lifted()
	n := (p + 63) >> 6
	last := ^uint64(0) >> (63 - (p-1)&63)
	for w := 0; w < n; w++ {
		x := liftS.word(w) &^ liftO.word(w)
		if w == n-1 {
			x &= last
		}
		if x != 0 {
			return false
		}
	}
	return true
}

// liftedMask reads a mask as if repeated forever, a word at a time: word
// w holds residues (64w + k) mod Period for k in [0, 64). A period below
// 64 is first repeated across one word, rep.
type liftedMask struct {
	s   IndexSet
	rep uint64
}

func (s IndexSet) lifted() liftedMask {
	l := liftedMask{s: s}
	if s.Period < 64 {
		l.rep = s.mask[0]
		for f := s.Period; f < 64; f *= 2 {
			l.rep |= l.rep << f
		}
	}
	return l
}

func (l liftedMask) word(w int) uint64 {
	q := l.s.Period
	switch {
	case q%64 == 0:
		return l.s.mask[w%len(l.s.mask)]
	case q > 64:
		return l.s.window((w<<6)%q, 64)
	}
	// rep holds positions 0..63 of the repetition; a word starting at
	// start < q takes its tail from one period earlier.
	start := (w << 6) % q
	return l.rep>>start | l.rep<<(q-start)
}

// AffineImage returns {sign*x + c : x in s}, sign in {-1, +1}. A map that
// leaves every residue class in place (Period 1, or a shift by a multiple
// of the period) shares s's mask; any other builds the image mask a word
// at a time — a rotation for sign +1, a reflected rotation for sign -1.
func (s IndexSet) AffineImage(sign, c int) IndexSet {
	lo, hi := s.Lo+c, s.Hi+c
	if sign == -1 {
		lo, hi = c-s.Hi, c-s.Lo
	}
	if s.Period == 1 || sign == 1 && c%s.Period == 0 {
		return IndexSet{Lo: lo, Hi: hi, Period: s.Period, mask: s.mask}
	}
	p := s.Period
	res := newMask(p)
	for w := range res {
		j := w << 6
		n := min(64, p-j)
		// Image residue j+t comes from residue sign*(j+t-c) mod p.
		if sign == 1 {
			res[w] = s.window(Mod(j-c, p), n)
		} else {
			res[w] = bits.Reverse64(s.window(Mod(c-j-n+1, p), n)) >> (64 - n)
		}
	}
	return IndexSet{Lo: lo, Hi: hi, Period: p, mask: res}
}

// AffinePreimage returns {x : sign*x + c in s}; since sign*sign == 1 this
// is the image under the inverse map x = sign*y - sign*c.
func (s IndexSet) AffinePreimage(sign, c int) IndexSet {
	return s.AffineImage(sign, -sign*c)
}

// Equal reports structural equality: same interval, period and mask.
func (s IndexSet) Equal(o IndexSet) bool {
	return s.Period == o.Period && s.Lo == o.Lo && s.Hi == o.Hi && slices.Equal(s.mask, o.mask)
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
	var mask []uint64
	if d.Cyclic && !d.Replicated {
		mask = newMask(n * d.Block)
	}
	return OwnedPatternIn(d, n, a, size, mask)
}

// PatternWords is the length of the mask OwnedPatternIn builds a cyclic
// dimension's owned set in: one bit per residue of the period n*Block.
func PatternWords(d Dim, n int) int { return (n*d.Block + 63) >> 6 }

// OwnedPatternIn is OwnedPatternOf building a cyclic dimension's mask in
// mask, PatternWords(d, n) words the caller has cleared and hands over:
// the set holds it, and nothing may write it while the set is in use.
// Other dimensions ignore mask. A caller that reuses its mask storage from
// one pass to the next builds owned sets without allocating.
func OwnedPatternIn(d Dim, n, a, size int, mask []uint64) IndexSet {
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
	// periodic with period n*Block, and its Block residues are the
	// preimages r = Sign*(z - Disp) mod P of the block's z values.
	p := n * d.Block
	for z := zlo; z <= zhi; z++ {
		r := Mod(d.Sign*(z-d.Disp), p)
		mask[r>>6] |= 1 << (r & 63)
	}
	return IndexSet{Lo: 1, Hi: size, Period: p, mask: mask}
}

// CountOwners adds to counts[a] the members of s that coordinate a of
// dimension d on n processors owns, for every coordinate a, and appends
// to coords each coordinate whose count it raises from zero: exactly the
// coordinates s reaches, so a caller that clears those entries again
// reuses counts from one set to the next. counts has room for n
// coordinates; a replicated dimension has the one coordinate 0. A
// contiguous dimension counts each block s's hull spans; a cyclic one
// walks s's members when they span no more than the lcm L of its period
// and n*Block, and its L residue classes otherwise, each owned whole by
// one coordinate. The members of s must be indices the dimension maps.
func (s IndexSet) CountOwners(d Dim, n int, counts []int64, coords []int) []int {
	if s.Hi < s.Lo {
		return coords
	}
	add := func(a int, c int64) {
		if c == 0 {
			return
		}
		if counts[a] == 0 {
			coords = append(coords, a)
		}
		counts[a] += c
	}
	if d.Replicated {
		add(0, s.Count())
		return coords
	}
	if !d.Cyclic {
		zl, zh := d.Sign*s.Lo+d.Disp, d.Sign*s.Hi+d.Disp
		if d.Sign == -1 {
			zl, zh = zh, zl
		}
		for a := max(zl, 0) / d.Block; a <= min(zh/d.Block, n-1); a++ {
			// Coordinate a's block of z, pulled back to indices.
			lo, hi := a*d.Block-d.Disp, (a+1)*d.Block-1-d.Disp
			if d.Sign == -1 {
				lo, hi = -hi, -lo
			}
			add(a, s.CountIn(lo, hi))
		}
		return coords
	}
	p := n * d.Block
	owner := func(x int) int { return Mod(d.Sign*x+d.Disp, p) / d.Block }
	l := LCM(s.Period, p)
	if s.Hi-s.Lo < l {
		for x := s.Lo; x <= s.Hi; x++ {
			if s.InClass(x) {
				add(owner(x), 1)
			}
		}
		return coords
	}
	for rho := s.nextOne(0); rho >= 0; {
		for r := rho; r < l; r += s.Period {
			add(owner(r), countResidue(s.Lo, s.Hi, l, r))
		}
		if rho++; rho == s.Period {
			break
		}
		rho = s.nextOne(rho)
	}
	return coords
}
