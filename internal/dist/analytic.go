// Analytic redistribution costing: closed-form per-processor word counts
// for converting an array from one distribution scheme to another,
// without enumerating elements.
//
// The key observation (cf. Rink et al., "Memory-efficient array
// redistribution through portable collective communication") is that the
// index sets owned by one grid coordinate under the Section 2.1
// distribution functions are the interval / residue-class sets of
// pattern.go (IndexSet), so the number of indices mapped to a coordinate
// pair (a under the old scheme, b under the new scheme) is the size of an
// intersection of two such sets, computable in O(1) arithmetic per pair
// whenever one side is a plain interval — O(N_from * N_to) per array
// dimension in total, independent of the array extent (dimJointCounts).
// Joint counts factorize across array dimensions (rotation is a
// deterministic remap of the per-dimension coordinates), so every bill
// this package computes is a walk over the non-empty cells of the
// product of the sparse per-dimension tables: walkJointCells owns that
// walk, RedistLoadsScaled is its one visitor, and RedistLoads is a float
// view of its exact bill.
//
// Sender-side load: when an element is replicated under the source
// scheme, every copy is an equally valid sender, so each source owner is
// charged an equal 1/|owners| share of the outgoing words — the cheapest
// static split of the send load (billing one canonical replica would
// overload it).
package dist

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"dmcc/internal/grid"
)

// Loads holds per-processor redistribution word loads for one array (or,
// after Add, an accumulated set of arrays). Loads are float64 because the
// send load of a replicated source element is split evenly across its
// owners.
type Loads struct {
	// In is words received per destination rank.
	In map[int]float64
	// Out is words sent per source rank.
	Out map[int]float64
	// Words is the total word count on the wire.
	Words float64
}

// NewLoads returns an empty Loads value ready for accumulation.
func NewLoads() Loads {
	return Loads{In: map[int]float64{}, Out: map[int]float64{}}
}

// Add accumulates other into l (multi-array redistribution).
func (l *Loads) Add(other Loads) {
	for r, w := range other.In {
		l.In[r] += w
	}
	for r, w := range other.Out {
		l.Out[r] += w
	}
	l.Words += other.Words
}

// MaxLoad returns the largest per-processor in or out load — the
// bottleneck traffic of the redistribution step.
func (l Loads) MaxLoad() float64 {
	var mx float64
	for _, w := range l.In {
		if w > mx {
			mx = w
		}
	}
	for _, w := range l.Out {
		if w > mx {
			mx = w
		}
	}
	return mx
}

// coordPair is one entry of a per-dimension joint count table: cnt
// indices of the dimension map to grid coordinate aF under the source
// dim and aT under the destination dim (All for replicated dims).
type coordPair struct {
	aF, aT int
	cnt    int64
}

// byCoords orders coordinate pairs by (aF, aT).
func byCoords(x, y coordPair) int {
	return cmp.Or(cmp.Compare(x.aF, y.aF), cmp.Compare(x.aT, y.aT))
}

// holds reports whether rank r sits at the given per-grid-dimension
// coordinates, All matching any (rank r denotes the same processor on
// both grids of a change).
func holds(g *grid.Grid, coords []int, r int) bool {
	for gd, c := range coords {
		if c != All && g.Coord(r, gd) != c {
			return false
		}
	}
	return true
}

// jointScratch is the working storage of one walk over joint cells: the
// per-dimension tables and the owned intervals they are merged from, the
// raw and per-grid-dimension coordinates of the cell being visited and
// the rank lists handed to the visitor. A walk borrows one from
// jointPool, so a warm walk allocates nothing.
type jointScratch struct {
	tables           [2][]coordPair
	coordsF, coordsT []int
	setsF, setsT     []IndexSet
	rawF, rawT       [2]int
	vecF, vecT       []int
	dst, src         []int
}

var jointPool = sync.Pool{New: func() any { return new(jointScratch) }}

// walkJointCells validates a scheme change — from on gFrom to to on gTo,
// two grids of the same total processor count, over an array of the given
// shape — builds the per-dimension joint count tables and visits every
// non-empty cell of the joint (source, destination) coordinate space
// once, dimension 0 outermost, each table in (source, destination)
// coordinate order. A cell is cnt elements that share their owners: the
// destination owner ranks dst, ascending, and the source owner
// coordinate per grid dimension, coordsF, All where replicated. Both
// lists are js's and change with the next cell.
func (js *jointScratch) walkJointCells(gFrom, gTo *grid.Grid, shape []int, from, to Scheme, visit func(cnt int64, dst, coordsF []int)) error {
	if gFrom.Size() != gTo.Size() {
		return fmt.Errorf("dist: redistribution between %s and %s: processor counts differ", gFrom, gTo)
	}
	if err := from.Validate(gFrom, shape); err != nil {
		return fmt.Errorf("dist: source scheme: %v", err)
	}
	if err := to.Validate(gTo, shape); err != nil {
		return fmt.Errorf("dist: destination scheme: %v", err)
	}
	for k := range shape {
		dF, dT := from.Dims[k], to.Dims[k]
		js.tables[k] = js.dimJointCounts(js.tables[k][:0], dF, gFrom.Extent(dF.GridDim), dT, gTo.Extent(dT.GridDim), shape[k])
	}
	rawF, rawT := js.rawF[:len(shape)], js.rawT[:len(shape)]
	emit := func(cnt int64) {
		js.vecT = coordsFromRaw(js.vecT[:0], to, gTo, rawT)
		js.vecF = coordsFromRaw(js.vecF[:0], from, gFrom, rawF)
		js.dst = appendRanks(js.dst[:0], gTo, js.vecT)
		visit(cnt, js.dst, js.vecF)
	}
	// Validate admits 1-D and 2-D arrays only.
	for _, c0 := range js.tables[0] {
		rawF[0], rawT[0] = c0.aF, c0.aT
		if len(shape) == 1 {
			emit(c0.cnt)
			continue
		}
		for _, c1 := range js.tables[1] {
			rawF[1], rawT[1] = c1.aF, c1.aT
			emit(c0.cnt * c1.cnt)
		}
	}
	return nil
}

// RedistLoads computes the per-processor redistribution loads from
// scheme `from` on grid gFrom to scheme `to` on grid gTo analytically:
// RedistLoadsScaled's exact bill with every numerator divided by the
// denominator once. It agrees with RedistLoadsExact's float accumulation
// bit for bit where the replica counts are powers of two, to rounding
// otherwise.
func RedistLoads(gFrom, gTo *grid.Grid, shape []int, from, to Scheme) (Loads, error) {
	sl, err := RedistLoadsScaled(gFrom, gTo, shape, from, to)
	if err != nil {
		return Loads{}, err
	}
	l := Loads{In: make(map[int]float64, len(sl.In)), Out: make(map[int]float64, len(sl.Out)), Words: float64(sl.Words)}
	for r, v := range sl.In {
		l.In[r] = float64(v) / float64(sl.Den)
	}
	for r, v := range sl.Out {
		l.Out[r] = float64(v) / float64(sl.Den)
	}
	return l, nil
}

// ScaledLoads are redistribution loads as exact rationals: every
// per-processor value is Num/Den words under one common denominator.
// The denominator is the replica count of the source scheme (the even
// sender split over replicated source owners), so it depends only on the
// schemes — never on the array extent — which is what lets a plan
// evaluator fit the numerators as integer polynomials in the problem
// size.
type ScaledLoads struct {
	// In and Out are load numerators per rank, scaled by Den.
	In, Out map[int]int64
	// Den is the common denominator (a count of replica ranks).
	Den int64
	// Words is the total (integral) word count on the wire.
	Words int64
}

// NewScaledLoads returns an empty ScaledLoads value ready for
// accumulation.
func NewScaledLoads() ScaledLoads {
	return ScaledLoads{In: map[int]int64{}, Out: map[int]int64{}, Den: 1}
}

// rescale brings l to the least common denominator of l.Den and den. A
// zero Den (the zero value, an empty accumulator) counts as 1.
func (l *ScaledLoads) rescale(den int64) {
	if l.Den == 0 {
		l.Den = 1
	}
	if l.In == nil {
		l.In = map[int]int64{}
	}
	if l.Out == nil {
		l.Out = map[int]int64{}
	}
	d := int64(LCM(int(l.Den), int(den)))
	if f := d / l.Den; f > 1 {
		for r := range l.In {
			l.In[r] *= f
		}
		for r := range l.Out {
			l.Out[r] *= f
		}
		l.Den = d
	}
}

// MaxNum returns the largest in/out numerator: the bottleneck load is
// MaxNum/Den words.
func (l ScaledLoads) MaxNum() int64 {
	var mx int64
	for _, v := range l.In {
		if v > mx {
			mx = v
		}
	}
	for _, v := range l.Out {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// MaxLoad is the bottleneck load MaxNum/Den in words, rounded once: the
// figure every scheme-change price is built from. The zero value's Den
// counts as 1, as in Add.
func (l ScaledLoads) MaxLoad() float64 {
	return float64(l.MaxNum()) / float64(max(l.Den, 1))
}

// RedistLoadsScaled computes the per-processor redistribution loads from
// scheme `from` on grid gFrom to scheme `to` on grid gTo analytically, in
// exact integer arithmetic. The grids may have different shapes but must
// have the same total processor count (rank r denotes the same physical
// processor on both). For every element a destination owner lacks, one
// word is received; the matching send is split evenly across the
// element's source owners, a fraction kept as a numerator over the common
// denominator. The result is RedistLoadsExact's, computed without element
// enumeration.
func RedistLoadsScaled(gFrom, gTo *grid.Grid, shape []int, from, to Scheme) (ScaledLoads, error) {
	sl := NewScaledLoads()
	if err := sl.AddRedist(gFrom, gTo, shape, from, to); err != nil {
		return ScaledLoads{}, err
	}
	return sl, nil
}

// AddRedist accumulates into l the loads RedistLoadsScaled computes for
// one array's change, without building them apart: l ends as adding
// RedistLoadsScaled(...)'s loads, rescaled to a common denominator, would
// leave it, to the key and the numerator. An error adds nothing.
func (l *ScaledLoads) AddRedist(gFrom, gTo *grid.Grid, shape []int, from, to Scheme) error {
	l.rescale(1)
	js := jointPool.Get().(*jointScratch)
	defer jointPool.Put(js)
	return js.walkJointCells(gFrom, gTo, shape, from, to, func(cnt int64, dst, coordsF []int) {
		var needy int64
		for _, d := range dst {
			if !holds(gFrom, coordsF, d) {
				needy++
				l.In[d] += cnt * l.Den
			}
		}
		if needy == 0 {
			return
		}
		js.src = appendRanks(js.src[:0], gFrom, coordsF)
		// The replica structure of one scheme is uniform over its
		// elements, so this rescale changes Den at most once per array.
		l.rescale(int64(len(js.src)))
		share := cnt * needy * (l.Den / int64(len(js.src)))
		for _, r := range js.src {
			l.Out[r] += share
		}
		l.Words += cnt * needy
	})
}

// RedistLoadsExact is the element-enumeration reference oracle for
// RedistLoadsScaled: identical semantics (including the even sender-side
// spread over replicated source owners), computed by visiting every
// element. Kept for property testing and as the Compiler's reference
// cost engine.
func RedistLoadsExact(gFrom, gTo *grid.Grid, shape []int, from, to Scheme) Loads {
	l := NewLoads()
	ForEachIndex(shape, func(idx []int) {
		src := from.Owners(gFrom, idx...)
		dst := to.Owners(gTo, idx...)
		needy := 0
		for _, d := range dst {
			owned := false
			for _, r := range src {
				if r == d {
					owned = true
					break
				}
			}
			if !owned {
				needy++
				l.In[d]++
			}
		}
		if needy == 0 {
			return
		}
		share := float64(needy) / float64(len(src))
		for _, r := range src {
			l.Out[r] += share
		}
		l.Words += float64(needy)
	})
	return l
}

// coordsFromRaw appends to dst the full per-grid-dimension coordinate
// vector of per-array-dimension raw coordinates (mapDim results before
// rotation, All for replicated dims), applying Fixed entries and the
// scheme's rotation.
func coordsFromRaw(dst []int, s Scheme, g *grid.Grid, raw []int) []int {
	base := len(dst)
	for gd := 0; gd < g.Q(); gd++ {
		dst = append(dst, s.Fixed[gd])
	}
	coords := dst[base:]
	z0 := raw[0]
	z1 := 0
	if len(raw) > 1 {
		z1 = raw[1]
	}
	if s.Rot != NoRotation {
		// Validate guarantees two non-replicated dims, so z0, z1 are
		// concrete coordinates here.
		n1 := g.Extent(s.Dims[0].GridDim)
		n2 := g.Extent(s.Dims[1].GridDim)
		switch s.Rot {
		case RotateDim2ByDim1:
			z1 = Mod(s.D1*z0+s.D2*z1, n2)
		case RotateDim1ByDim2:
			z0 = Mod(s.D1*z0+s.D2*z1, n1)
		}
	}
	coords[s.Dims[0].GridDim] = z0
	if len(raw) > 1 {
		coords[s.Dims[1].GridDim] = z1
	}
	return dst
}

// dimJointCounts appends to out the sparse joint count table of one
// array dimension, listing owned intervals in js: for every coordinate pair (a under dF on nF processors, b
// under dT on nT processors) the number of indices i in 1..size with
// dF(i) = a and dT(i) = b, in (a, b) order. Entries with zero count are
// omitted. Replicated dims contribute the single coordinate All.
//
// A pair's count is the size of the intersection of the two coordinates'
// owned sets. Unless both sides are cyclic, one of the two is a plain
// interval and the count is O(1): cyclicCountIn against a cyclic
// partner, or the overlap of two intervals — and two interval lists,
// each disjoint and ordered along the index, overlap in at most
// nF + nT - 1 pairs, which one merge finds.
func (js *jointScratch) dimJointCounts(out []coordPair, dF Dim, nF int, dT Dim, nT int, size int) []coordPair {
	cycF, cycT := dF.Cyclic && !dF.Replicated, dT.Cyclic && !dT.Replicated
	if cycF && cycT {
		return jointCyclicCyclic(out, dF, nF, dT, nT, size)
	}
	js.coordsF, js.setsF = ownedIntervals(js.coordsF[:0], js.setsF[:0], dF, nF, size)
	js.coordsT, js.setsT = ownedIntervals(js.coordsT[:0], js.setsT[:0], dT, nT, size)
	coordsF, setsF, coordsT, setsT := js.coordsF, js.setsF, js.coordsT, js.setsT
	if !cycF && !cycT {
		return jointIntervals(out, coordsF, setsF, descending(dF), coordsT, setsT, descending(dT))
	}
	for i, a := range coordsF {
		for j, b := range coordsT {
			var c int64
			if cycF {
				c = cyclicCountIn(dF, nF, a, setsT[j].Lo, setsT[j].Hi)
			} else {
				c = cyclicCountIn(dT, nT, b, setsF[i].Lo, setsF[i].Hi)
			}
			if c > 0 {
				out = append(out, coordPair{a, b, c})
			}
		}
	}
	return out
}

// descending reports whether a dim's coordinates own ever lower indices:
// a partitioned dim with Sign -1.
func descending(d Dim) bool { return !d.Replicated && d.Sign == -1 }

// jointIntervals merges two lists of owned intervals, given in coordinate
// order and descending along the index when desc is set, into the table
// of their non-empty overlaps in (aF, aT) order, appended to out: one
// walk of both lists along the index, then a sort of the at most
// nF + nT - 1 overlaps.
func jointIntervals(out []coordPair, coordsF []int, setsF []IndexSet, descF bool, coordsT []int, setsT []IndexSet, descT bool) []coordPair {
	at := func(k, n int, desc bool) int {
		if desc {
			return n - 1 - k
		}
		return k
	}
	nF, nT := len(coordsF), len(coordsT)
	base := len(out)
	for i, j := 0, 0; i < nF && j < nT; {
		f, t := at(i, nF, descF), at(j, nT, descT)
		if lo, hi := max(setsF[f].Lo, setsT[t].Lo), min(setsF[f].Hi, setsT[t].Hi); lo <= hi {
			out = append(out, coordPair{coordsF[f], coordsT[t], int64(hi - lo + 1)})
		}
		if setsF[f].Hi < setsT[t].Hi {
			i++
		} else {
			j++
		}
	}
	slices.SortFunc(out[base:], byCoords)
	return out
}

// ownedIntervals appends to coords, ascending, the coordinates of dim d on n
// processors that own at least one index of 1..size — All alone for a
// replicated dim — and to sets the interval each owns. A cyclic dim lists every
// coordinate and no sets: its owned sets have period n*Block each, and
// cyclicCountIn counts inside them without building the masks.
func ownedIntervals(coords []int, sets []IndexSet, d Dim, n, size int) ([]int, []IndexSet) {
	if d.Replicated {
		return append(coords, All), append(sets, Interval(1, size))
	}
	for a := 0; a < n; a++ {
		if d.Cyclic {
			coords = append(coords, a)
		} else if s := OwnedPatternOf(d, n, a, size); s.Lo <= s.Hi {
			coords, sets = append(coords, a), append(sets, s)
		}
	}
	return coords, sets
}

// cyclicCountIn returns |OwnedPatternOf(d, n, a, ·) ∩ [lo, hi]| for a
// cyclic dim d and a non-empty index interval, in O(1): z = Sign*i + Disp
// maps the interval onto a z interval, coordinate a owns the z blocks
// whose index is a mod n — one residue class of block indices — and at
// most the two end blocks are cut short.
func cyclicCountIn(d Dim, n, a, lo, hi int) int64 {
	zl, zh := d.Sign*lo+d.Disp, d.Sign*hi+d.Disp
	if d.Sign == -1 {
		zl, zh = zh, zl
	}
	wl, wh := zl/d.Block, zh/d.Block
	if wl == wh {
		if wl%n != a {
			return 0
		}
		return int64(zh - zl + 1)
	}
	c := int64(d.Block) * countResidue(wl+1, wh-1, n, a)
	if wl%n == a {
		c += int64((wl+1)*d.Block - zl)
	}
	if wh%n == a {
		c += int64(zh - wh*d.Block + 1)
	}
	return c
}

// jointCyclicCyclic appends to all the table of cyclic x cyclic pairs. The coordinate pair of
// index i repeats with period lcm(pF, pT), so one period window is
// scanned and scaled; when the joint period exceeds the extent this
// degenerates to a plain scan of the dimension — never worse than
// enumerating the dimension once (and independent of the other
// dimensions of the array). The window's runs of one pair are collected,
// sorted and merged, so the table is as large as the window, not nF × nT.
func jointCyclicCyclic(all []coordPair, dF Dim, nF int, dT Dim, nT int, size int) []coordPair {
	base := len(all)
	out := all[base:]
	pF, pT := nF*dF.Block, nT*dT.Block
	period := LCM(pF, pT)
	if period <= 0 || period > size {
		period = size
	}
	full := int64(size / period)
	rem := size % period
	coordOf := func(d Dim, n, i int) int {
		z := d.Sign*i + d.Disp
		return (z / d.Block) % n
	}
	for i := 1; i <= period; i++ {
		a, b := coordOf(dF, nF, i), coordOf(dT, nT, i)
		c := full
		if i <= rem {
			c++
		}
		if k := len(out) - 1; k >= 0 && out[k].aF == a && out[k].aT == b {
			out[k].cnt += c
			continue
		}
		out = append(out, coordPair{a, b, c})
	}
	slices.SortFunc(out, byCoords)
	k := 0
	for _, cp := range out {
		if k > 0 && out[k-1].aF == cp.aF && out[k-1].aT == cp.aT {
			out[k-1].cnt += cp.cnt
			continue
		}
		out[k] = cp
		k++
	}
	return append(all[:base], out[:k]...)
}
