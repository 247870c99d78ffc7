// Closed-form nest counting: the RedistLoads treatment applied to
// CountNestOptsExact. For affine nests under block / cyclic /
// replicated / displaced schemes, every quantity the exact walker tallies
// by enumerating the iteration space is a function of per-dimension index
// sets:
//
//   - the instances a processor executes are, per loop variable, the loop
//     range intersected with the affine preimage of the owner-coordinate's
//     owned pattern (a dist.IndexSet), so instance counts factorize across
//     loop variables — and when an inner bound depends on an outer
//     variable (gauss's i = k+1..m) the product becomes a windowed sum
//     over the outer variable, a sum of arithmetic-progression counts
//     evaluated in closed form (sumWindowed);
//   - the elements a processor reads are images of those per-variable
//     sets under the read subscripts — products of sets, diagonals when
//     one variable drives two subscripts, and half-plane bands when a
//     dependent variable and its bound variable drive the two subscripts
//     of one array (L(i,k) below the diagonal) — and the globally deduped
//     (element, processor) "needed" pairs of the walker are counts of
//     unions of such rects, by inclusion-exclusion, minus the part the
//     processor owns;
//   - send attribution and reduction combining trees partition the
//     element space into owner-coordinate cells, exactly like
//     RedistLoads' per-dimension joint count tables; a dependent bound
//     between a reduced variable and a free variable cuts those cells at
//     per-coordinate reach thresholds.
//
// Everything is exact int64 arithmetic, so the Counts returned here are
// identical — not approximately, but word for word — to the enumeration's,
// while the cost is independent of the loop extents. Nor does it grow with
// the square of the processor count: a rank's footprint in an array is
// one inclusion-exclusion over its rects, and each term's count comes back
// split across the array's owner cells in one pass — a product as the
// outer product of its sides' per-coordinate counts (only the coordinates
// a side reaches), a band through the windowed sum, its residue classes
// routed to the coordinate that owns them. A term wholly inside the
// rank's own cell is local, and so is every deeper term under it: the
// walk skips them. A rank whose footprint equals one counted before for
// the array (a replica, consecutive or not) bills that footprint's words
// again, so a count costs one inclusion-exclusion per distinct
// (footprint, array), and each set operation costs Period/64 mask words.
// A count's state lives in a workspace (anEngine) reset in place
// from count to count, so a warm count allocates nothing. Nests or
// schemes outside the eligible class (bounds depending on more than one
// outer variable, rotation, non-unit subscript coefficients, out-of-range
// subscripts) report ok=false and fall back to the reference enumeration.
package cost

import (
	"slices"
	"sync"

	"dmcc/internal/dist"
	"dmcc/internal/grid"
	"dmcc/internal/ir"
)

const (
	// maxAnalyticPeriod bounds the residue-set periods (lcm of N*Block
	// over cyclic dims) the closed forms will carry before bailing out.
	maxAnalyticPeriod = 4096
	// maxFootprintRects bounds the per-(array, processor) rect-union size;
	// inclusion-exclusion is exponential in it.
	maxFootprintRects = 10
	// maxReduceCombos bounds the owner-coordinate cell enumeration of one
	// reduction statement.
	maxReduceCombos = 1 << 14
)

// anSub is a compiled subscript: sign*var + c, or the constant c when
// slot < 0 (the lowered form's one unit-coefficient term, if any).
type anSub struct {
	slot int
	sign int
	c    int
}

// anDep records a loop whose normalized lower or upper bound is
// root_var + c: the range of slot s at root value v is [v+c, hi] when
// low, [lo, v+c] otherwise. e.ranges[s] holds the hull over the root's
// full range. A loop with constant bounds has on unset.
type anDep struct {
	root int
	c    int
	low  bool
	on   bool
}

// anDim is the ownership structure of one array dimension.
type anDim struct {
	replicated bool
	gd         int             // mapped grid dimension
	n          int             // its extent
	pats       []dist.IndexSet // owned index pattern per grid coordinate (nil when replicated)
	held       []bool          // per grid coordinate: its pattern has a member
}

// anArray is one array a nest references, at its index in the engine's
// arrays: its scheme's ownership structure, the layout of its owner cells
// and the footprint the current rank reads of it.
//
// The owner cells partition the array by first-owner rank: cell
// c0*n1 + c1 holds the elements whose mapped dims land on owner
// coordinates (c0, c1), a replicated or absent dim contributing its one
// index 0, so a cell is found from its coordinates by arithmetic.
type anArray struct {
	name   string
	rank   int
	s      dist.Scheme
	sizes  [2]int
	dims   [2]anDim
	fixed  []anGate // the scheme's pinned grid coordinates (Fixed entries other than All)
	n0, n1 int      // the cell layout's extents
	base   int      // the pinned coordinates' part of every cell's first owner
	stride [2]int   // per dim, a coordinate's weight in the first owner (0 when not mapped)
	reads  int      // read references to the array across the nest's statements
	fp     []rect   // the current rank's footprint, room for every read
}

// layoutCells lays out array a's owner cells and pins. Replicated dims,
// Fixed=All dims and All coordinates contribute the canonical coordinate
// 0 to the sending rank, exactly as Scheme.Owners' first entry does. The
// pinned coordinates come from the workspace's arenas.
func (e *anEngine) layoutCells(a *anArray) {
	pinned := 0
	for _, c := range a.s.Fixed {
		if c != dist.All {
			pinned++
		}
	}
	a.fixed = e.gates.take(pinned)[:0]
	a.base = 0
	for gd, c := range a.s.Fixed {
		if c != dist.All {
			a.fixed = append(a.fixed, anGate{gd: gd, coord: c})
			a.base += c * e.strides[gd]
		}
	}
	ext := [2]int{1, 1}
	for k := 0; k < a.rank; k++ {
		if d := a.dims[k]; !d.replicated {
			ext[k], a.stride[k] = d.n, e.strides[d.gd]
		}
	}
	a.n0, a.n1 = ext[0], ext[1]
}

// first is the rank that sends the elements of cell c.
func (a *anArray) first(c int) int {
	return a.base + c/a.n1*a.stride[0] + c%a.n1*a.stride[1]
}

// ownerDim is the distribution of array dim k, an absent dim of a 1-D
// array being replicated.
func (a *anArray) ownerDim(k int) dist.Dim {
	if k >= a.rank {
		return dist.Dim{Replicated: true}
	}
	return a.s.Dims[k]
}

// ownCell returns the index of the one cell the rank at grid coordinates
// q holds, or -1 when it holds no element: a pinned coordinate leaves it
// out, or a coordinate of its owns none.
func (a *anArray) ownCell(q []int) int {
	for _, f := range a.fixed {
		if q[f.gd] != f.coord {
			return -1
		}
	}
	var c [2]int
	for k := 0; k < a.rank; k++ {
		if d := a.dims[k]; !d.replicated {
			if c[k] = q[d.gd]; !d.held[c[k]] {
				return -1
			}
		}
	}
	return c[0]*a.n1 + c[1]
}

// sideSplit is one rect side counted per owner coordinate of its array
// dim: counts is dense over the coordinates, coords lists those with a
// member. Only the entries coords names are ever nonzero.
type sideSplit struct {
	counts []int64
	coords []int
}

// of counts set s per owner coordinate of array a's dim k, clearing the
// previous side's entries first.
func (sd *sideSplit) of(a *anArray, k int, s dist.IndexSet) {
	for _, c := range sd.coords {
		sd.counts[c] = 0
	}
	sd.coords = s.CountOwners(a.ownerDim(k), a.dims[k].n, sd.counts, sd.coords[:0])
}

// fpEntry is one distinct footprint counted for an array in this count:
// its rects fpRects[r0:r1], the words it has in each cell it meets,
// fpBills[b0:b1], and own, the one cell whose words were not counted
// because the rank that counted it holds it (-1 when every cell was).
type fpEntry struct {
	arr, own int32
	r0, r1   int32
	b0, b1   int32
}

// cellWords is n footprint words in cell.
type cellWords struct {
	cell int
	n    int64
}

// anRef is a compiled reference: the array's index in the engine's
// arrays and one compiled subscript per dimension.
type anRef struct {
	arr  int32
	subs [2]anSub
}

// anGate pins one grid coordinate of an executing rank.
type anGate struct{ gd, coord int }

// anConstraint restricts one loop variable per owner grid coordinate:
// sets[a] = loop range ∩ preimage of coordinate a's owned pattern.
type anConstraint struct {
	slot int
	gd   int
	sets []dist.IndexSet
}

type anStmt struct {
	depth       int
	flops       int64
	reduce      bool
	hasAnchor   bool
	lhs, anchor anRef
	owner       anRef
	reads       []anRef
	gates       []anGate
	constraints []anConstraint
}

// arena hands out zeroed slices of one backing array that the workspace
// keeps from count to count: take cuts off the next n elements. A count
// that needs more than the array holds gets fresh slices for the rest and
// leaves its demand for reset, which grows the array to it, so a warm
// workspace allocates nothing.
type arena[T any] struct {
	buf  []T
	used int
	need int
}

func (a *arena[T]) reset() {
	if a.need > len(a.buf) {
		a.buf = make([]T, a.need+a.need/4)
	}
	a.used, a.need = 0, 0
}

func (a *arena[T]) take(n int) []T {
	a.need += n
	if a.used+n > len(a.buf) {
		return make([]T, n)
	}
	s := a.buf[a.used : a.used+n : a.used+n]
	a.used += n
	clear(s)
	return s
}

// resize returns s with length n, reusing its array when it has room;
// the contents are the caller's to set.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// zeroed is resize with the contents cleared.
func zeroed[T any](s []T, n int) []T {
	s = resize(s, n)
	clear(s)
	return s
}

// anEngine is the closed-form counter's workspace: everything one count
// builds — strides, rank coordinates, loop ranges and dependences, the
// compiled arrays and statements, footprints and their bills, the owner
// splits of rect sides and terms, per-rank tallies and the reduction
// cells — lives here and is reset in place by the next count.
// Arrays, statements and dependences are slabs addressed by index;
// variable-length pieces are cut from the arenas. Each count takes an
// engine from enginePool, so concurrent counts each hold their own.
type anEngine struct {
	g       *grid.Grid
	nprocs  int
	q       int
	strides []int
	coords  []int           // rank r's grid coordinates are coords[r*q : (r+1)*q]
	ranges  []dist.IndexSet // per loop slot (the constant hull for dependent slots)
	deps    []anDep         // per loop slot
	depRoot int             // the single root every dependent slot references, or -1
	byID    []int32         // per lowered array: its index in arrays, or -1
	arrays  []anArray
	stmts   []anStmt

	flops   []int64
	in      []int64
	out     []int64
	remote  int64
	reduceW int64
	pairs   int64 // (rank, owner cell) bills of the footprints counted
	unions  int64 // inclusion-exclusions: footprints counted that bill a word

	allowed     []dist.IndexSet
	constrained []bool
	sc          rectScratch
	red         reduceScratch
	space       lastSpace

	// The needed-words pass: the distinct footprints counted (fps, their
	// rects and bills, found through the open-addressed fpSlots), a rect's
	// sides and a line's outer values per owner coordinate (side), a
	// band's sums per outer coordinate (routed), and one union's words per
	// cell (acc, with the cells it has touched).
	fps     []fpEntry
	fpRects []rect
	fpBills []cellWords
	fpSlots []int32
	side    [3]sideSplit
	routed  []int64
	acc     []int64
	hit     []bool
	touched []int

	sets   arena[dist.IndexSet]
	gates  arena[anGate]
	refs   arena[anRef]
	cons   arena[anConstraint]
	rects  arena[rect]
	ints   arena[int]
	bools  arena[bool]
	umasks arena[uMask]
	masks  arena[uint64]
}

var enginePool = sync.Pool{New: func() any { return new(anEngine) }}

// reset readies the workspace for a count of a nest of loops loops over
// arrays lowered arrays on grid g.
func (e *anEngine) reset(g *grid.Grid, loops, arrays int) {
	e.g, e.nprocs, e.q = g, g.Size(), g.Q()
	e.strides = resize(e.strides, e.q)
	stride := 1
	for gd := e.q - 1; gd >= 0; gd-- {
		e.strides[gd] = stride
		stride *= g.Extent(gd)
	}
	e.coords = resize(e.coords, e.nprocs*e.q)
	for r := 0; r < e.nprocs; r++ {
		for gd := 0; gd < e.q; gd++ {
			e.coords[r*e.q+gd] = g.Coord(r, gd)
		}
	}
	e.ranges = resize(e.ranges, loops)
	e.deps = zeroed(e.deps, loops)
	e.depRoot = -1
	e.byID = resize(e.byID, arrays)
	for i := range e.byID {
		e.byID[i] = -1
	}
	e.arrays, e.stmts = e.arrays[:0], e.stmts[:0]
	e.flops, e.in, e.out = zeroed(e.flops, e.nprocs), zeroed(e.in, e.nprocs), zeroed(e.out, e.nprocs)
	e.remote, e.reduceW, e.pairs, e.unions = 0, 0, 0, 0
	e.allowed, e.constrained = resize(e.allowed, loops), resize(e.constrained, loops)
	e.fps, e.fpRects, e.fpBills = e.fps[:0], e.fpRects[:0], e.fpBills[:0]
	e.sc.win.steps, e.sc.win.prods = 0, 0
	e.sets.reset()
	e.gates.reset()
	e.refs.reset()
	e.cons.reset()
	e.rects.reset()
	e.ints.reset()
	e.bools.reset()
	e.umasks.reset()
	e.masks.reset()
}

// coord is rank r's grid coordinates.
func (e *anEngine) coord(r int) []int { return e.coords[r*e.q : (r+1)*e.q] }

// sizeSplits grows the owner-split storage for the widest mapped
// dimension and the largest cell layout of the engine's arrays, and
// clears the footprint table.
func (e *anEngine) sizeSplits() {
	n, cells := 1, 1
	for i := range e.arrays {
		a := &e.arrays[i]
		n = max(n, a.n0, a.n1)
		cells = max(cells, a.n0*a.n1)
	}
	for k := range e.side {
		e.side[k].counts, e.side[k].coords = zeroed(e.side[k].counts, n), e.side[k].coords[:0]
	}
	e.routed = zeroed(e.routed, n)
	e.acc, e.hit = zeroed(e.acc, cells), zeroed(e.hit, cells)
	slots := 16
	for slots < 2*e.nprocs*len(e.arrays) {
		slots *= 2
	}
	e.fpSlots = zeroed(e.fpSlots, slots)
}

// arrayOf compiles lowered array id on first use — its ownership
// structure per dimension under schemes — and returns its index in the
// engine's arrays; false when the scheme is outside the eligible class.
func (e *anEngine) arrayOf(lw *ir.Lowered, schemes map[string]dist.Scheme, id int, periodLCM *int) (int32, bool) {
	if i := e.byID[id]; i >= 0 {
		return i, true
	}
	a, ok := e.compileArray(lw.Names[id], lw.Shapes[id], schemes[lw.Names[id]], periodLCM)
	if !ok {
		return -1, false
	}
	i := int32(len(e.arrays))
	e.byID[id] = i
	e.arrays = append(e.arrays, a)
	return i, true
}

// compileArray compiles an array of the given shape under scheme s: its
// owned pattern per dim and grid coordinate, their periods folded into
// periodLCM. false means the scheme is outside the eligible class.
func (e *anEngine) compileArray(name string, shape []int, s dist.Scheme, periodLCM *int) (anArray, bool) {
	if s.Rot != dist.NoRotation {
		return anArray{}, false
	}
	a := anArray{name: name, rank: len(shape), s: s}
	for k := 0; k < a.rank; k++ {
		a.sizes[k] = shape[k]
		d := s.Dims[k]
		if d.Replicated {
			a.dims[k] = anDim{replicated: true, gd: d.GridDim}
			continue
		}
		n := e.g.Extent(d.GridDim)
		pats, held := e.sets.take(n), e.bools.take(n)
		words := 0
		if d.Cyclic {
			words = dist.PatternWords(d, n)
		}
		for c := 0; c < n; c++ {
			pats[c] = dist.OwnedPatternIn(d, n, c, shape[k], e.masks.take(words))
			held[c] = !pats[c].Empty()
			*periodLCM = dist.LCM(*periodLCM, pats[c].Period)
			if *periodLCM > maxAnalyticPeriod {
				return anArray{}, false
			}
		}
		a.dims[k] = anDim{gd: d.GridDim, n: n, pats: pats, held: held}
	}
	return a, true
}

// compileRef compiles a reference: a subscript compiles to sign*var + c
// when its lowered form has at most one loop term, of coefficient ±1, and
// stays inside the extent.
func (e *anEngine) compileRef(lw *ir.Lowered, schemes map[string]dist.Scheme, r *ir.LRef, periodLCM *int) (anRef, bool) {
	ai, ok := e.arrayOf(lw, schemes, r.Array, periodLCM)
	if !ok {
		return anRef{}, false
	}
	out := anRef{arr: ai}
	for k := range r.Subs {
		slot, coef, n := term(r.Subs[k])
		sp := anSub{slot: -1, c: r.Subs[k].K}
		switch {
		case n == 1 && (coef == 1 || coef == -1):
			sp.slot, sp.sign = slot, coef
		case n != 0:
			return anRef{}, false
		}
		if !subInRange(sp, e.ranges, e.arrays[ai].sizes[k]) {
			return anRef{}, false
		}
		out.subs[k] = sp
	}
	return out, true
}

// countNestAnalytic computes CountNestOptsExact's Counts for nest t in
// closed form. ok=false means the nest or schemes are outside the eligible
// class and the caller must fall back to enumeration. The caller has
// already validated the nest. The count runs in a workspace from
// enginePool.
func countNestAnalytic(lw *ir.Lowered, t int, schemes map[string]dist.Scheme, g *grid.Grid, opts CountOptions) (Counts, bool, error) {
	e := enginePool.Get().(*anEngine)
	defer enginePool.Put(e)
	ct, ok := e.count(lw, t, schemes, g, opts)
	return ct, ok, nil
}

// count is countNestAnalytic in workspace e.
func (e *anEngine) count(lw *ir.Lowered, t int, schemes map[string]dist.Scheme, g *grid.Grid, opts CountOptions) (Counts, bool) {
	nest, ln := lw.Program.Nests[t], &lw.Nests[t]
	e.reset(g, len(ln.Loops), len(lw.Names))

	// Loop ranges: constant bounds once parameters are bound, or one
	// dependent bound of the form outer_var + c. The walker's range
	// semantics: an upward loop covers [lo, hi], a downward loop
	// [hi, lo]; either may be empty. A downward loop's raw Lo is the
	// upper end of the normalized range, so gauss's back-substitution
	// i = j-1..1 step -1 becomes the upper-dependent window [1, j-1].
	for s, l := range ln.Loops {
		lo, hi := l.Lo, l.Hi
		if l.Step < 0 {
			lo, hi = hi, lo
		}
		loSlot, loCoef, nLo := term(lo)
		hiSlot, hiCoef, nHi := term(hi)
		var dp anDep
		switch {
		case nLo == 0 && nHi == 0:
			e.ranges[s] = dist.Interval(lo.K, hi.K)
			continue
		case nHi == 0 && nLo == 1 && loCoef == 1:
			dp = anDep{root: loSlot, c: lo.K, low: true, on: true}
		case nLo == 0 && nHi == 1 && hiCoef == 1:
			dp = anDep{root: hiSlot, c: hi.K, low: false, on: true}
		default:
			return Counts{}, false // both bounds dependent, or not outer_var + c
		}
		if e.deps[dp.root].on {
			return Counts{}, false // chained dependence
		}
		if e.depRoot >= 0 && e.depRoot != dp.root {
			return Counts{}, false // two distinct roots
		}
		e.depRoot = dp.root
		e.deps[s] = dp
		rr := e.ranges[dp.root]
		if dp.low {
			e.ranges[s] = dist.Interval(rr.Lo+dp.c, hi.K)
		} else {
			e.ranges[s] = dist.Interval(lo.K, rr.Hi+dp.c)
		}
	}

	periodLCM := 1
	for si, st := range nest.Stmts {
		ls := &ln.Stmts[si]
		executes := true
		for s := 0; s < st.Depth; s++ {
			if e.ranges[s].Empty() {
				executes = false
			}
		}
		if !executes {
			continue
		}
		as := anStmt{depth: st.Depth, flops: int64(st.Flops), reduce: st.Reduce}
		var ok bool
		if as.lhs, ok = e.compileRef(lw, schemes, &ls.LHS, &periodLCM); !ok {
			return Counts{}, false
		}
		as.owner = as.lhs
		if ls.Anchor >= 0 {
			as.hasAnchor = true
			if as.anchor, ok = e.compileRef(lw, schemes, &ls.Reads[ls.Anchor], &periodLCM); !ok {
				return Counts{}, false
			}
			as.owner = as.anchor
		}
		as.reads = e.refs.take(len(st.Reads))[:0]
		for ri, rd := range st.Reads {
			if st.Reduce && rd.Array == st.LHS.Array {
				continue
			}
			if opts.IncludeRead != nil && !opts.IncludeRead(rd.Array) {
				continue
			}
			ref, ok := e.compileRef(lw, schemes, &ls.Reads[ri], &periodLCM)
			if !ok {
				return Counts{}, false
			}
			as.reads = append(as.reads, ref)
			e.arrays[ref.arr].reads++
		}
		// Compile the executor condition: per grid dim of the owner
		// scheme, either a pinned coordinate (gate) or a per-coordinate
		// restriction of one loop variable (constraint).
		oa := &e.arrays[as.owner.arr]
		as.gates = e.gates.take(len(oa.s.Fixed) + oa.rank)[:0]
		for gd, c := range oa.s.Fixed {
			if c != dist.All {
				as.gates = append(as.gates, anGate{gd: gd, coord: c})
			}
		}
		as.constraints = e.cons.take(oa.rank)[:0]
		for k := 0; k < oa.rank; k++ {
			d := oa.dims[k]
			if d.replicated {
				continue
			}
			sp := as.owner.subs[k]
			if sp.slot < 0 {
				as.gates = append(as.gates, anGate{gd: d.gd, coord: oa.s.DimCoordOf(g, k, sp.c)})
				continue
			}
			sets := e.sets.take(d.n)
			for a := 0; a < d.n; a++ {
				sets[a] = e.ranges[sp.slot].Intersect(d.pats[a].AffinePreimage(sp.sign, sp.c))
			}
			as.constraints = append(as.constraints, anConstraint{slot: sp.slot, gd: d.gd, sets: sets})
		}
		e.stmts = append(e.stmts, as)
	}

	// Reduction eligibility: at most one anchored reduction per LHS array,
	// so partial-sum sets never merge across statements.
	for i := range e.stmts {
		as := &e.stmts[i]
		if !as.reduce || !as.hasAnchor {
			continue
		}
		for _, prev := range e.stmts[:i] {
			if prev.reduce && prev.hasAnchor && prev.lhs.arr == as.lhs.arr {
				return Counts{}, false
			}
		}
	}

	// Footprint storage is one arena cut, each array's list with room for
	// each of its reads: no list outgrows its slot.
	reads := 0
	for i := range e.arrays {
		reads += e.arrays[i].reads
	}
	slab := e.rects.take(reads)
	for i := range e.arrays {
		a := &e.arrays[i]
		a.fp, slab = slab[:0:a.reads], slab[a.reads:]
		if a.reads > 0 {
			e.layoutCells(a)
		}
	}
	e.sizeSplits()

	// Per-rank pass: instance counts (flops), read footprints, and the
	// needed words they bill.
	//
	// Needed words: per (array, rank), the part of the read footprint the
	// rank does not own, billed to each element's first owner. The owner
	// cells partition the array and a rank's owned set is exactly one of
	// them, so the footprint is counted inside every other cell and
	// nowhere else: the own cell's words are local, and no owned part has
	// to be subtracted from the rest. One inclusion-exclusion over the
	// footprint's rects yields its words in every cell (countFootprint).
	// Replicas that execute the same instances have the same footprint and
	// so the same words per cell: the pass keeps every distinct footprint
	// it counted with its words per cell, and a rank with an equal one
	// bills them again without counting, whether or not the replicas are
	// consecutive ranks.
	allowed, constrained := e.allowed, e.constrained
	for pr := 0; pr < e.nprocs; pr++ {
		q := e.coord(pr)
		for i := range e.arrays {
			e.arrays[i].fp = e.arrays[i].fp[:0]
		}
		e.space.depth = -1
		for si := range e.stmts {
			as := &e.stmts[si]
			if !e.rankExecutes(as, q, allowed, constrained) {
				continue
			}
			iter, reff, hasDep := e.space.of(e, as, allowed)
			if iter == 0 {
				continue
			}
			if !opts.Carried {
				e.flops[pr] += as.flops * iter
			}
			for _, rd := range as.reads {
				r, ok, fallback := e.readRect(rd, allowed, reff, hasDep)
				if fallback {
					return Counts{}, false
				}
				if !ok {
					continue
				}
				a := &e.arrays[rd.arr]
				dup := false
				for k := range a.fp {
					if rectEq(&a.fp[k], &r) {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				if len(a.fp) == maxFootprintRects {
					return Counts{}, false
				}
				a.fp = append(a.fp, r)
			}
		}
		for i := range e.arrays {
			a := &e.arrays[i]
			if len(a.fp) == 0 {
				continue
			}
			own := a.ownCell(q)
			fe, fresh := e.footprint(i, own)
			if fe == nil {
				continue
			}
			for _, w := range e.fpBills[fe.b0:fe.b1] {
				if w.cell != own {
					e.remote += w.n
					e.in[pr] += w.n
					e.out[a.first(w.cell)] += w.n
					if fresh {
						e.pairs++
					}
				}
			}
		}
	}

	// Reduction combining trees.
	if !opts.Carried {
		for i := range e.stmts {
			as := &e.stmts[i]
			if !as.reduce || !as.hasAnchor {
				continue
			}
			if !e.reduceStmt(as) {
				return Counts{}, false
			}
		}
	}

	if opts.tally != nil {
		*opts.tally = rankTally{flops: slices.Clone(e.flops), in: slices.Clone(e.in), out: slices.Clone(e.out),
			pairs: e.pairs, unions: e.unions, residueSteps: e.sc.win.steps, prodAts: e.sc.win.prods}
	}
	var ct Counts
	ct.RemoteWords = e.remote
	ct.ReduceWords = e.reduceW
	for _, f := range e.flops {
		ct.TotalFlops += f
		if f > ct.MaxProcFlops {
			ct.MaxProcFlops = f
		}
	}
	for _, v := range e.in {
		if v > ct.MaxProcIn {
			ct.MaxProcIn = v
		}
	}
	for _, v := range e.out {
		if v > ct.MaxProcOut {
			ct.MaxProcOut = v
		}
	}
	return ct, true
}

// footprint returns the entry of array i's current footprint, counted
// for a rank whose own cell is own (-1 for none), and whether it counted
// it now; nil when the footprint is local. Its rects wholly inside the
// own cell are dropped first: they, and their part of any intersection,
// are local. What remains is looked up: the entry of an equal footprint
// counted before when that has the words of every cell but own, else a
// fresh count. An entry counted by a rank with another own cell lacks
// that cell's words and is counted again, every cell this time.
func (e *anEngine) footprint(i, own int) (*fpEntry, bool) {
	a := &e.arrays[i]
	if own >= 0 {
		fp := a.fp[:0]
		for k := range a.fp {
			if !a.local(&a.fp[k], own) {
				fp = append(fp, a.fp[k])
			}
		}
		if a.fp = fp; len(fp) == 0 {
			return nil, false
		}
	}
	mask := len(e.fpSlots) - 1
	h := int(fpHash(i, a.fp)) & mask
	for ; e.fpSlots[h] != 0; h = (h + 1) & mask {
		fe := &e.fps[e.fpSlots[h]-1]
		if int(fe.arr) != i || !slices.EqualFunc(e.fpRects[fe.r0:fe.r1], a.fp, func(x, y rect) bool { return rectEq(&x, &y) }) {
			continue
		}
		if fe.own < 0 || int(fe.own) == own {
			return fe, false
		}
		fe.own = -1
		fe.b0, fe.b1 = e.countFootprint(a, a.fp, -1)
		return fe, true
	}
	r0 := len(e.fpRects)
	e.fpRects = append(e.fpRects, a.fp...)
	fe := fpEntry{arr: int32(i), own: int32(own), r0: int32(r0), r1: int32(len(e.fpRects))}
	fe.b0, fe.b1 = e.countFootprint(a, a.fp, own)
	e.fps = append(e.fps, fe)
	e.fpSlots[h] = int32(len(e.fps))
	return &e.fps[len(e.fps)-1], true
}

// fpHash hashes an array index and a footprint's rects, masks aside
// (equal rects have equal hashes; rectEq decides).
func fpHash(arr int, fp []rect) uint64 {
	h := uint64(14695981039346656037) ^ uint64(arr)
	for i := range fp {
		r := &fp[i]
		for _, x := range [...]int{r.a.Lo, r.a.Hi, r.a.Period, r.b.Lo, r.b.Hi, r.b.Period, r.dlo, r.dhi, r.slo, r.shi} {
			h = (h ^ uint64(x)) * 1099511628211
		}
	}
	return h ^ h>>29
}

// countFootprint appends to fpBills the words footprint fp of array a
// has in each cell but own (every cell when own is -1) and returns their
// range: one inclusion-exclusion over the rects, depth first, each term
// split across the owner cells as it is met (splitTerm). An empty term —
// or one wholly inside the own cell, whose words are local — cuts its
// whole subtree: every deeper term lies inside it.
func (e *anEngine) countFootprint(a *anArray, fp []rect, own int) (int32, int32) {
	sc := &e.sc
	sc.next[0] = 0
	for d := 0; d >= 0; {
		j := sc.next[d]
		if j == len(fp) {
			d--
			continue
		}
		sc.next[d] = j + 1
		cur := &sc.acc[d+1]
		if d == 0 {
			*cur = fp[j]
		} else if !intersectRect(cur, &sc.acc[d], &fp[j]) {
			continue
		}
		sign := int64(1)
		if d%2 == 1 {
			sign = -1
		}
		if !e.splitTerm(a, cur, sign, own) {
			continue
		}
		d++
		sc.next[d] = j + 1
	}
	b0 := len(e.fpBills)
	for _, c := range e.touched {
		if n := e.acc[c]; n != 0 && c != own {
			e.fpBills = append(e.fpBills, cellWords{c, n})
		}
		e.acc[c], e.hit[c] = 0, false
	}
	if len(e.fpBills) > b0 {
		e.unions++
	}
	e.touched = e.touched[:0]
	return int32(b0), int32(len(e.fpBills))
}

// add adds n words to cell c of the union being counted.
func (e *anEngine) add(c int, n int64) {
	if !e.hit[c] {
		e.hit[c] = true
		e.touched = append(e.touched, c)
	}
	e.acc[c] += n
}

// local reports whether rect r of array a lies wholly inside cell own:
// each side within the own coordinate's pattern of its dim.
func (a *anArray) local(r *rect, own int) bool {
	c := [2]int{own / a.n1, own % a.n1}
	for k, side := range [2]*dist.IndexSet{&r.a, &r.b} {
		if k < a.rank && !a.dims[k].replicated && !side.Within(a.dims[k].pats[c[k]]) {
			return false
		}
	}
	return true
}

// splitTerm adds sign × |r ∩ cell| to every owner cell of array a that
// rect r meets. It reports false when r has no point, or none outside
// cell own; then no deeper term has one either.
//
// A rect's sides are counted per owner coordinate first (sideSplit). A
// product's words in cell (c0, c1) are the product of the sides' counts.
// Otherwise the inner side is cut to each inner coordinate's members in
// turn. On a line the outer values whose partner lies in that part are
// counted per outer coordinate like a side. A band is a windowed sum over
// the outer side of the count of the part's members its window admits
// (bandTerm), routed per outer coordinate — a cyclic outer dim sends
// each residue class's sum to the coordinate owning it
// (winStats.sumRouted), a contiguous one is summed block by block — and
// a box of outer and inner parts the bands hold whole is a product, one
// they miss is skipped.
func (e *anEngine) splitTerm(a *anArray, r *rect, sign int64, own int) bool {
	s0, s1 := &e.side[0], &e.side[1]
	s0.of(a, 0, r.a)
	s1.of(a, 1, r.b)
	if len(s0.coords) == 0 || len(s1.coords) == 0 {
		return false
	}
	if own >= 0 && len(s0.coords) == 1 && len(s1.coords) == 1 && s0.coords[0]*a.n1+s1.coords[0] == own {
		return false
	}
	switch r.bandsOver(r.a, r.b) {
	case 1:
		for _, c0 := range s0.coords {
			n0 := sign * s0.counts[c0]
			for _, c1 := range s1.coords {
				e.add(c0*a.n1+c1, n0*s1.counts[c1])
			}
		}
		return true
	case -1:
		return false
	}
	if r.dlo > r.dhi || r.slo > r.shi {
		return false
	}
	// The outer side: a cyclic mapped dim if either is one (routing
	// splits it in one pass), else a mapped one.
	kind := func(k int) int {
		switch d := a.ownerDim(k); {
		case d.Replicated:
			return 0
		case d.Cyclic:
			return 2
		}
		return 1
	}
	outer, inner := 0, 1
	if kind(1) > kind(0) {
		outer, inner = 1, 0
	}
	xs, ys, so, si := r.a, r.b, s0, s1
	if outer == 1 {
		xs, ys, so, si = r.b, r.a, s1, s0
	}
	od, id := a.dims[outer], a.dims[inner]
	met := false
	bill := func(co, ci int, n int64) {
		if n != 0 {
			var c [2]int
			c[outer], c[inner] = co, ci
			e.add(c[0]*a.n1+c[1], sign*n)
			met = true
		}
	}
	// over classifies the bands on the box of an outer and an inner part,
	// whose points are then all in (a product) or all out.
	over := func(x, y dist.IndexSet) int {
		if outer == 1 {
			x, y = y, x
		}
		return r.bandsOver(x, y)
	}
	// A line — one band of width zero, the other open — pairs each outer
	// value v with the one inner value sign*v + c.
	sign1, c := 0, 0
	switch {
	case r.dlo == r.dhi && r.slo <= r.a.Lo+r.b.Lo && r.shi >= r.a.Hi+r.b.Hi:
		sign1, c = 1, r.dlo
		if outer == 1 {
			c = -c
		}
	case r.slo == r.shi && r.dlo <= r.b.Lo-r.a.Hi && r.dhi >= r.b.Hi-r.a.Lo:
		sign1, c = -1, r.slo
	}
	line := &e.side[2]
	for _, ci := range si.coords {
		set := ys
		if kind(inner) != 0 {
			set = ys.Intersect(id.pats[ci])
		}
		if sign1 != 0 {
			// The outer values whose partner is in set, per coordinate.
			line.of(a, outer, xs.Intersect(set.AffinePreimage(sign1, c)))
			for _, co := range line.coords {
				bill(co, ci, line.counts[co])
			}
			continue
		}
		t := [1]winTerm{bandTerm(r, set, outer == 1)}
		if kind(outer) == 1 {
			for _, co := range so.coords {
				p := od.pats[co]
				switch part := xs.Clip(p.Lo, p.Hi); over(part, set) {
				case 1:
					bill(co, ci, so.counts[co]*si.counts[ci])
				case 0:
					bill(co, ci, e.sc.win.sumWindowed(part, t[:]))
				}
			}
			continue
		}
		switch over(xs, set) {
		case 1:
			for _, co := range so.coords {
				bill(co, ci, so.counts[co]*si.counts[ci])
			}
		case 0:
			if kind(outer) == 0 {
				bill(0, ci, e.sc.win.sumWindowed(xs, t[:]))
				continue
			}
			e.sc.win.sumRouted(xs, t[:], &winRoute{d: a.ownerDim(outer), n: od.n, out: e.routed})
			for _, co := range so.coords {
				bill(co, ci, e.routed[co])
				e.routed[co] = 0
			}
		}
	}
	return met
}

// rankExecutes fills allowed[0:depth] with the per-variable instance sets
// of rank q for stmt as, reporting false when a gate already excludes the
// rank. For dependent slots the set is the hull-range restriction; the
// per-root-value window is applied by stmtSpace.
func (e *anEngine) rankExecutes(as *anStmt, q []int, allowed []dist.IndexSet, constrained []bool) bool {
	for _, gt := range as.gates {
		if q[gt.gd] != gt.coord {
			return false
		}
	}
	for s := 0; s < as.depth; s++ {
		allowed[s] = e.ranges[s]
		constrained[s] = false
	}
	for _, c := range as.constraints {
		set := c.sets[q[c.gd]]
		if constrained[c.slot] {
			allowed[c.slot] = allowed[c.slot].Intersect(set)
		} else {
			allowed[c.slot] = set
			constrained[c.slot] = true
		}
	}
	return true
}

// lastSpace is the instance space a rank's previous statement counted:
// the depth (-1 for none) and instance sets it counted over and what
// stmtSpace returned. Statements whose owners share a distribution (L and
// B in gauss's elimination nest) execute the same instances.
type lastSpace struct {
	depth  int
	sets   []dist.IndexSet
	iter   int64
	reff   dist.IndexSet
	hasDep bool
}

// of is stmtSpace, answered from the previous statement's when that ran
// over equal instance sets.
func (ls *lastSpace) of(e *anEngine, as *anStmt, allowed []dist.IndexSet) (int64, dist.IndexSet, bool) {
	if e.depRoot < 0 {
		return e.stmtSpace(as, allowed) // a product of counts: no windowed sum to save
	}
	if ls.depth == as.depth && slices.EqualFunc(ls.sets, allowed[:as.depth], dist.IndexSet.Equal) {
		return ls.iter, ls.reff, ls.hasDep
	}
	ls.iter, ls.reff, ls.hasDep = e.stmtSpace(as, allowed)
	ls.depth, ls.sets = as.depth, append(ls.sets[:0], allowed[:as.depth]...)
	return ls.iter, ls.reff, ls.hasDep
}

// stmtSpace computes the rank's instance count for as over allowed[],
// together with reff — the root values carrying at least one full
// instance, which is the exact projection every root-subscript footprint
// reads from. hasDep reports whether any dependent slot lies below the
// statement's depth; when it does, the instance count is the windowed
// product sum over the root instead of a plain product.
func (e *anEngine) stmtSpace(as *anStmt, allowed []dist.IndexSet) (int64, dist.IndexSet, bool) {
	hasDep := false
	for s := 0; s < as.depth; s++ {
		if e.deps[s].on {
			hasDep = true
			break
		}
	}
	if !hasDep {
		iter := int64(1)
		for s := 0; s < as.depth; s++ {
			iter *= allowed[s].Count()
		}
		return iter, dist.IndexSet{}, false
	}
	root := e.depRoot
	cons := int64(1)
	var termBuf [4]winTerm
	terms := termBuf[:0]
	reff := allowed[root]
	for s := 0; s < as.depth; s++ {
		if s == root {
			continue
		}
		d := e.deps[s]
		if !d.on {
			cons *= allowed[s].Count()
			continue
		}
		t := winTerm{set: allowed[s]}
		if d.low {
			t.los.add(d.c, 1)
			if mx, ok := allowed[s].Max(); ok {
				reff = reff.Clip(bandMin, mx-d.c)
			} else {
				reff = reff.Clip(1, 0)
			}
		} else {
			t.his.add(d.c, 1)
			if mn, ok := allowed[s].Min(); ok {
				reff = reff.Clip(mn-d.c, bandMax)
			} else {
				reff = reff.Clip(1, 0)
			}
		}
		terms = append(terms, t)
	}
	if cons == 0 {
		return 0, reff, true
	}
	return cons * e.sc.win.sumWindowed(allowed[root], terms), reff, true
}

// Subscript-variable kinds for footprint construction.
const (
	kConst = iota // constant subscript
	kPlain        // constant-bounded loop variable
	kRoot         // the variable dependent bounds reference
	kDep          // a variable with a dependent bound
)

// window returns the dependent slot's instance set at root value v.
func (e *anEngine) window(allowed []dist.IndexSet, slot, v int) dist.IndexSet {
	d := e.deps[slot]
	if d.low {
		return allowed[slot].Clip(v+d.c, bandMax)
	}
	return allowed[slot].Clip(bandMin, v+d.c)
}

// readRect builds the element rect a read touches over the instance
// sets. ok=false means the footprint is empty; fallback=true means the
// reference couples dependent variables in a shape the rect algebra
// cannot express, so the whole nest must fall back to enumeration.
//
// With dependent bounds the touched set per reference shape is:
//
//   - root-subscript sides project to reff (root values with a full
//     instance);
//   - a dependent and the root driving the two dims of one array is the
//     half-plane band  sgn_d*e_d - sgn_r*e_r >= c  (or <=) over the box
//     of the two images — exact because unit slopes make the pairing
//     per-element;
//   - dependent sides without the root collapse to the widest window,
//     reached at the extreme root value of reff (windows are nested in
//     the root), provided every dependent side of the reference opens in
//     the same direction.
func (e *anEngine) readRect(rd anRef, allowed []dist.IndexSet, reff dist.IndexSet, hasDep bool) (rect, bool, bool) {
	a := &e.arrays[rd.arr]
	kind := func(sp anSub) int {
		if sp.slot < 0 {
			return kConst
		}
		if !hasDep {
			return kPlain
		}
		if sp.slot == e.depRoot {
			return kRoot
		}
		if e.deps[sp.slot].on {
			return kDep
		}
		return kPlain
	}
	vStar := func(low bool) (int, bool) {
		if low {
			return reff.Min()
		}
		return reff.Max()
	}
	side := func(sp anSub, k int) (dist.IndexSet, bool, bool) {
		switch k {
		case kConst:
			return dist.Interval(sp.c, sp.c), true, false
		case kPlain:
			img := allowed[sp.slot].AffineImage(sp.sign, sp.c)
			return img, !img.Empty(), false
		case kRoot:
			img := reff.AffineImage(sp.sign, sp.c)
			return img, !img.Empty(), false
		default: // kDep
			v, ok := vStar(e.deps[sp.slot].low)
			if !ok {
				return dist.IndexSet{}, false, false
			}
			img := e.window(allowed, sp.slot, v).AffineImage(sp.sign, sp.c)
			return img, !img.Empty(), false
		}
	}
	if a.rank == 1 {
		s0, ok, _ := side(rd.subs[0], kind(rd.subs[0]))
		if !ok {
			return rect{}, false, false
		}
		return prodRect(s0, dist.Interval(1, 1)), true, false
	}
	sp0, sp1 := rd.subs[0], rd.subs[1]
	k0, k1 := kind(sp0), kind(sp1)
	if sp0.slot >= 0 && sp0.slot == sp1.slot {
		// One variable drives both subscripts: a diagonal of its set.
		var base dist.IndexSet
		switch k0 {
		case kRoot:
			base = reff
		case kDep:
			v, ok := vStar(e.deps[sp0.slot].low)
			if !ok {
				return rect{}, false, false
			}
			base = e.window(allowed, sp0.slot, v)
		default:
			base = allowed[sp0.slot]
		}
		if base.Empty() {
			return rect{}, false, false
		}
		return diagRect(base, sp0.sign, sp0.c, sp1.sign, sp1.c), true, false
	}
	if (k0 == kDep && k1 == kRoot) || (k0 == kRoot && k1 == kDep) {
		// The dependent variable and its root drive the two dims: the
		// band  sgn_d*e_d - sgn_r*e_r >= gamma  over the image box.
		dsp, rsp, ddim := sp0, sp1, 0
		if k0 == kRoot {
			dsp, rsp, ddim = sp1, sp0, 1
		}
		d := e.deps[dsp.slot]
		dImg := allowed[dsp.slot].AffineImage(dsp.sign, dsp.c)
		rImg := reff.AffineImage(rsp.sign, rsp.c)
		var r rect
		if ddim == 0 {
			r = prodRect(dImg, rImg)
		} else {
			r = prodRect(rImg, dImg)
		}
		gamma := d.c + dsp.sign*dsp.c - rsp.sign*rsp.c
		if ddim == 0 {
			r = r.halfPlane(dsp.sign, -rsp.sign, gamma, d.low)
		} else {
			r = r.halfPlane(-rsp.sign, dsp.sign, gamma, d.low)
		}
		// Every root value in reff carries an instance, so the band
		// holds a point whenever both images do.
		if dImg.Empty() || rImg.Empty() {
			return rect{}, false, false
		}
		return r, true, false
	}
	if k0 == kDep && k1 == kDep && e.deps[sp0.slot].low != e.deps[sp1.slot].low {
		// Two dependent variables whose windows open in opposite
		// directions: their union over the root is not one box.
		return rect{}, false, true
	}
	s0, ok0, _ := side(sp0, k0)
	s1, ok1, _ := side(sp1, k1)
	if !ok0 || !ok1 {
		return rect{}, false, false
	}
	return prodRect(s0, s1), true, false
}

// uMask gates one grid dimension's coordinates for the elements of one
// reduction cell: the per-coordinate reach of a dependent bound between
// the reduced variable and a free variable.
type uMask struct {
	gd int
	ok []bool
}

// varCombo is one cell of a reduction variable's value space: cnt values
// sharing the same anchor-owner coordinates (pins), the same first-owner
// contribution to the combining root (rootAdd), and the same
// dependent-reach masks.
type varCombo struct {
	cnt     int64
	pins    []anGate
	rootAdd int
	masks   []uMask
}

// uCut cuts reduction variable slot's value space at per-coordinate
// reach thresholds: coordinate a of grid dim gd holds partials of element
// u iff u <= thr[a] (upper) or u >= thr[a] (lower).
type uCut struct {
	slot  int
	gd    int
	upper bool
	thr   []int
}

// redC is one per-coordinate constraint on a reduction variable: an
// anchor dim (pinning a grid coordinate of the partial holders) or an LHS
// dim (selecting the root's coordinate, worth a*stride of rank).
type redC struct {
	gd     int
	stride int
	anchor bool
	sets   []dist.IndexSet
}

// pairCond couples two grid coordinates through one free variable that
// drives both anchor subscripts (a diagonal anchor reference).
type pairCond struct {
	gd0, gd1 int
	n1       int
	ok       []bool
}

// reduceScratch is reduceStmt's working storage in the workspace; what
// varies in length per cell comes from the engine's arenas.
type reduceScratch struct {
	inU, coupled []bool   // per loop slot: reduced (an LHS subscript variable); superseded by reach thresholds
	nFree        []int    // per loop slot: the anchor dims it drives that no LHS subscript does
	freeK        [][2]int // ... and which
	pinBase      []int    // per grid dim: the holders' pinned coordinate, or -1
	coordAllowed [][]bool // per grid dim: the coordinates a free variable reaches, nil for all
	cuts         []uCut
	slotCuts     []uCut // the cuts of the variable being split
	pairs        []pairCond
	uSlots       []int
	cs           []redC
	bs           []int
	combos       []varCombo
	perVar       [][2]int // per reduced variable: its combos' range
	pins         []int
	pinStack     []anGate
	varPins      []anGate
	varMasks     []uMask
	rootBase     int
}

func (as *anStmt) constraintSets(slot, gd int) []dist.IndexSet {
	for _, c := range as.constraints {
		if c.slot == slot && c.gd == gd {
			return c.sets
		}
	}
	return nil
}

// reduceStmt prices the combining tree of one anchored reduction in
// closed form. The walker's semantics: the partial-sum holders of one LHS
// element are the anchor owners over every instance writing it; all
// non-root holders send one word, and the root receives Log2Ceil(n)
// tree-level words (or a single transfer when the only holder is not the
// root). Both the holder set and the root are constant on
// cells of the LHS-variable value space cut by the anchor and LHS owner
// patterns — plus, when a dependent bound ties the reduced variable to a
// free variable, at the per-coordinate reach thresholds of that bound.
// Reports false to request fallback when the cell enumeration would blow
// up or the dependence shape is outside the supported couplings.
func (e *anEngine) reduceStmt(as *anStmt) bool {
	la := &e.arrays[as.lhs.arr]
	aa := &e.arrays[as.anchor.arr]
	rs := &e.red
	slots := len(e.deps)

	// Root rank contributions that do not depend on the reduced element:
	// the LHS scheme's Fixed coordinates (All acts as 0 in a first owner)
	// plus mapped dims with constant subscripts; replicated dims
	// contribute 0.
	rootBase := 0
	for gd, c := range la.s.Fixed {
		if c != dist.All {
			rootBase += c * e.strides[gd]
		}
	}
	rs.inU = zeroed(rs.inU, slots)
	inU := rs.inU
	for k := 0; k < la.rank; k++ {
		sp := as.lhs.subs[k]
		if sp.slot >= 0 {
			inU[sp.slot] = true
		}
		d := la.dims[k]
		if d.replicated {
			continue
		}
		if sp.slot < 0 {
			rootBase += la.s.DimCoordOf(e.g, k, sp.c) * e.strides[d.gd]
		}
	}
	rs.rootBase = rootBase

	// Holder-set conditions that do not depend on the reduced element:
	// anchor Fixed pins, constant-subscript pins, and for free variables
	// the coordinates their loop range can reach.
	pinBase := resize(rs.pinBase, e.q)
	rs.pinBase = pinBase
	for gd := range pinBase {
		pinBase[gd] = -1
	}
	for gd, c := range aa.s.Fixed {
		if c != dist.All {
			pinBase[gd] = c
		}
	}
	rs.coordAllowed = zeroed(rs.coordAllowed, e.q)
	rs.pairs = rs.pairs[:0]
	rs.nFree, rs.freeK = zeroed(rs.nFree, slots), resize(rs.freeK, slots)
	coordAllowed, nFree, freeK := rs.coordAllowed, rs.nFree, rs.freeK
	for k := 0; k < aa.rank; k++ {
		d := aa.dims[k]
		if d.replicated {
			continue
		}
		sp := as.anchor.subs[k]
		if sp.slot < 0 {
			pinBase[d.gd] = aa.s.DimCoordOf(e.g, k, sp.c)
			continue
		}
		if !inU[sp.slot] {
			freeK[sp.slot][nFree[sp.slot]] = k
			nFree[sp.slot]++
		}
	}

	// Dependent-bound coupling: when the reduced variable and a free
	// variable share a dependent bound, holder membership varies with the
	// element — a per-coordinate threshold on the reduced value.
	root := e.depRoot
	rs.coupled = zeroed(rs.coupled, slots)
	coupled := rs.coupled
	rs.cuts = rs.cuts[:0]
	depInU := 0
	for s := 0; s < as.depth; s++ {
		if e.deps[s].on && inU[s] {
			depInU++
		}
	}
	if depInU >= 2 && !inU[root] {
		// Two reduced variables windowed by a root the accumulator omits
		// (k=2..9; i=k+1..9; j=2..k into A(j,i)): the written (i, j) set
		// is the union over k of the window products, not the product of
		// the two hulls the per-variable cells below would enumerate.
		return false
	}
	for s := 0; s < as.depth; s++ {
		d := e.deps[s]
		if !d.on {
			continue
		}
		switch {
		case inU[s] && !inU[root] && nFree[root] > 0:
			// Reduced variable bounded by the free root (gauss back
			// substitution): coordinate a holds u iff the root's owned
			// values reach past u.
			if nFree[root] != 1 {
				return false
			}
			gd := aa.dims[freeK[root][0]].gd
			sets := as.constraintSets(root, gd)
			thr := e.ints.take(len(sets))
			for a2, S := range sets {
				if d.low {
					// u >= v + c: holds iff min(S) + c <= u.
					if mn, ok := S.Min(); ok {
						thr[a2] = mn + d.c
					} else {
						thr[a2] = bandMax
					}
				} else {
					// u <= v + c: holds iff u <= max(S) + c.
					if mx, ok := S.Max(); ok {
						thr[a2] = mx + d.c
					} else {
						thr[a2] = bandMin
					}
				}
			}
			rs.cuts = append(rs.cuts, uCut{slot: s, gd: gd, upper: !d.low, thr: thr})
			coupled[root] = true
		case inU[root] && !inU[s] && nFree[s] > 0:
			// Free variable bounded by the reduced root: coordinate a
			// holds u iff its owned values intersect [u+c, hi] / [lo, u+c].
			if nFree[s] != 1 {
				return false
			}
			gd := aa.dims[freeK[s][0]].gd
			sets := as.constraintSets(s, gd)
			thr := e.ints.take(len(sets))
			for a2, S := range sets {
				if d.low {
					if mx, ok := S.Max(); ok {
						thr[a2] = mx - d.c
					} else {
						thr[a2] = bandMin
					}
				} else {
					if mn, ok := S.Min(); ok {
						thr[a2] = mn - d.c
					} else {
						thr[a2] = bandMax
					}
				}
			}
			rs.cuts = append(rs.cuts, uCut{slot: root, gd: gd, upper: d.low, thr: thr})
			coupled[s] = true
		case inU[s] && !inU[root] && nFree[root] == 0:
			// Spectator root: every hull value of u executes for some
			// root value, and the root drives no holder coordinate.
		case !inU[s] && nFree[s] == 0:
			// Spectator dependent slot: it neither shapes elements nor
			// holders, but its window can empty out part of the root's
			// value space — only safe when the root is also a spectator
			// (the constraint sets below already carry the hull).
			return false
		default:
			return false
		}
	}

	for slot := range nFree {
		if nFree[slot] == 0 || coupled[slot] {
			continue // not free, or superseded by the reach thresholds
		}
		ks := freeK[slot][:nFree[slot]]
		if len(ks) == 1 {
			d := aa.dims[ks[0]]
			sets := as.constraintSets(slot, d.gd)
			all := e.bools.take(d.n)
			for a := range sets {
				all[a] = !sets[a].Empty()
			}
			coordAllowed[d.gd] = all
			continue
		}
		d0, d1 := aa.dims[ks[0]], aa.dims[ks[1]]
		s0 := as.constraintSets(slot, d0.gd)
		s1 := as.constraintSets(slot, d1.gd)
		ok := e.bools.take(d0.n * d1.n)
		for a0 := range s0 {
			for a1 := range s1 {
				if !s0[a0].Intersect(s1[a1]).Empty() {
					ok[a0*d1.n+a1] = true
				}
			}
		}
		rs.pairs = append(rs.pairs, pairCond{gd0: d0.gd, gd1: d1.gd, n1: d1.n, ok: ok})
	}
	if len(rs.cuts) > 0 && len(rs.pairs) > 0 {
		return false
	}

	// Per-LHS-variable cells.
	rs.uSlots = rs.uSlots[:0]
	for s := 0; s < as.depth; s++ {
		if inU[s] {
			rs.uSlots = append(rs.uSlots, s)
		}
	}
	rs.combos, rs.perVar = rs.combos[:0], rs.perVar[:0]
	totalCombos, maxPins, maxMasks := 1, 0, 0
	for _, slot := range rs.uSlots {
		rs.cs = rs.cs[:0]
		for k := 0; k < aa.rank; k++ {
			d := aa.dims[k]
			sp := as.anchor.subs[k]
			if !d.replicated && sp.slot == slot {
				rs.cs = append(rs.cs, redC{gd: d.gd, anchor: true, sets: as.constraintSets(slot, d.gd)})
			}
		}
		for k := 0; k < la.rank; k++ {
			d := la.dims[k]
			sp := as.lhs.subs[k]
			if d.replicated || sp.slot != slot {
				continue
			}
			sets := e.sets.take(d.n)
			for a := 0; a < d.n; a++ {
				sets[a] = e.ranges[slot].Intersect(d.pats[a].AffinePreimage(sp.sign, sp.c))
			}
			rs.cs = append(rs.cs, redC{gd: d.gd, stride: e.strides[d.gd], sets: sets})
		}
		rs.slotCuts = rs.slotCuts[:0]
		for _, ct := range rs.cuts {
			if ct.slot == slot {
				rs.slotCuts = append(rs.slotCuts, ct)
			}
		}
		start := len(rs.combos)
		e.redCells(0, e.ranges[slot], rs.pinStack[:0], 0)
		rs.perVar = append(rs.perVar, [2]int{start, len(rs.combos)})
		pins, masks := 0, 0
		for _, cb := range rs.combos[start:] {
			pins, masks = max(pins, len(cb.pins)), max(masks, len(cb.masks))
		}
		maxPins, maxMasks = maxPins+pins, maxMasks+masks
		totalCombos *= len(rs.combos) - start
		if totalCombos > maxReduceCombos {
			return false
		}
	}

	// Walk the cross product of per-variable cells; each cell holds cnt
	// reduced elements with identical holder set and root.
	rs.pins = resize(rs.pins, e.q)
	rs.varPins = slices.Grow(rs.varPins[:0], maxPins)
	rs.varMasks = slices.Grow(rs.varMasks[:0], maxMasks)
	e.redEmit(0, 1, 0, rs.varPins, rs.varMasks)
	return true
}

// redCells splits the value space of the reduced variable whose
// constraints are e.red.cs, from constraint ci on, into cells of equal
// holder pins and root contribution, appending each to e.red.combos.
// pins is a stack in e.red.pinStack, copied when a cell is kept.
func (e *anEngine) redCells(ci int, acc dist.IndexSet, pins []anGate, rootAdd int) {
	rs := &e.red
	if ci == len(rs.cs) {
		e.redLeaf(acc, pins, rootAdd)
		return
	}
	c := rs.cs[ci]
	for a, set := range c.sets {
		x := acc.Intersect(set)
		if x.Empty() {
			continue
		}
		if c.anchor {
			next := append(pins, anGate{gd: c.gd, coord: a})
			if cap(rs.pinStack) < cap(next) {
				rs.pinStack = next[:0] // keep the grown stack for the next count
			}
			e.redCells(ci+1, x, next, rootAdd)
		} else {
			e.redCells(ci+1, x, pins, rootAdd+a*c.stride)
		}
	}
}

// redLeaf keeps one cell of redCells, split at every reach boundary of
// the variable's cuts so that membership is uniform per piece.
func (e *anEngine) redLeaf(acc dist.IndexSet, pins []anGate, rootAdd int) {
	rs := &e.red
	keep := func(cnt int64, masks []uMask) {
		p := e.gates.take(len(pins))
		copy(p, pins)
		rs.combos = append(rs.combos, varCombo{cnt: cnt, pins: p, rootAdd: rootAdd, masks: masks})
	}
	if len(rs.slotCuts) == 0 {
		if c := acc.Count(); c > 0 {
			keep(c, nil)
		}
		return
	}
	bs := rs.bs[:0]
	for _, ct := range rs.slotCuts {
		for _, t := range ct.thr {
			b := t
			if ct.upper {
				b = t + 1
			}
			if b > acc.Lo && b <= acc.Hi {
				bs = append(bs, b)
			}
		}
	}
	slices.Sort(bs)
	bs = slices.Compact(bs)
	rs.bs = bs
	l := acc.Lo
	for i := 0; i <= len(bs); i++ {
		h := acc.Hi
		if i < len(bs) {
			h = bs[i] - 1
		}
		if h >= l {
			if c := acc.CountIn(l, h); c > 0 {
				masks := e.umasks.take(len(rs.slotCuts))
				for ci, ct := range rs.slotCuts {
					okc := e.bools.take(len(ct.thr))
					for a2, t := range ct.thr {
						if ct.upper {
							okc[a2] = h <= t
						} else {
							okc[a2] = l >= t
						}
					}
					masks[ci] = uMask{gd: ct.gd, ok: okc}
				}
				keep(c, masks)
			}
		}
		if i < len(bs) {
			l = bs[i]
		}
	}
}

// redEmit walks the cross product of the reduced variables' cells from
// variable vi on, and bills the combining tree of each product cell: cnt
// elements whose holders are the ranks matching every pin and mask.
// varPins and varMasks are stacks with room for every variable's.
func (e *anEngine) redEmit(vi int, cnt int64, rootAdd int, varPins []anGate, varMasks []uMask) {
	rs := &e.red
	if vi < len(rs.perVar) {
		span := rs.perVar[vi]
		for _, cb := range rs.combos[span[0]:span[1]] {
			e.redEmit(vi+1, cnt*cb.cnt, rootAdd+cb.rootAdd,
				append(varPins, cb.pins...), append(varMasks, cb.masks...))
		}
		return
	}
	root := rs.rootBase + rootAdd
	pins := rs.pins
	copy(pins, rs.pinBase)
	for _, g := range varPins {
		pins[g.gd] = g.coord
	}
	n, nonRoot := 0, int64(0)
	for pr := 0; pr < e.nprocs; pr++ {
		q := e.coord(pr)
		ok := true
		for gd := 0; gd < e.q; gd++ {
			if pins[gd] >= 0 && q[gd] != pins[gd] {
				ok = false
				break
			}
			if ca := rs.coordAllowed[gd]; ok && ca != nil && !ca[q[gd]] {
				ok = false
				break
			}
		}
		if ok {
			for _, mk := range varMasks {
				if !mk.ok[q[mk.gd]] {
					ok = false
					break
				}
			}
		}
		if ok {
			for _, pc := range rs.pairs {
				if !pc.ok[q[pc.gd0]*pc.n1+q[pc.gd1]] {
					ok = false
					break
				}
			}
		}
		if ok {
			n++
			if pr != root {
				nonRoot++
				e.out[pr] += cnt
			}
		}
	}
	// Every non-root holder sends its partial. The root receives the
	// one word of a lone holder, or Log2Ceil(n) tree levels.
	e.reduceW += nonRoot * cnt
	if n == 1 {
		e.in[root] += nonRoot * cnt
	} else {
		e.in[root] += int64(Log2Ceil(n)) * cnt
	}
}

// term classifies a lowered form by its loop terms: n counts them, and
// when n is 1, slot and coef are that term's.
func term(l ir.Lin) (slot, coef, n int) {
	slot = -1
	for k, c := range l.C {
		if c != 0 {
			slot, coef, n = k, c, n+1
		}
	}
	return slot, coef, n
}

// subInRange checks that the subscript stays inside [1, size] over its
// variable's full loop range (the walker would panic outside the array).
func subInRange(sp anSub, ranges []dist.IndexSet, size int) bool {
	if sp.slot < 0 {
		return sp.c >= 1 && sp.c <= size
	}
	r := ranges[sp.slot]
	if r.Hi < r.Lo {
		return true // never evaluated
	}
	img := r.AffineImage(sp.sign, sp.c)
	return img.Lo >= 1 && img.Hi <= size
}
