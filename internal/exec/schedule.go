// The inspector half of the batched execution engine.
//
// buildSchedule walks each nest's iteration space exactly once per
// (nest, env-binding) — not once per processor per iteration like the
// per-element engine — and precomputes, for every ordered processor
// pair, the element list crossing the wire. The walk is cut into
// epochs: within an epoch no shipped element is written, so all of an
// epoch's pair traffic can be hoisted to the epoch boundary and sent as
// one vectored machine.Send per pair (the inspector/executor move of
// Li & Chen's communication-set generation; message vectorization in
// the Gupta & Banerjee lineage). What comes out of the walk is one
// instruction stream per processor (redistribute / direct-send / reduce
// / eval) that the value executor (executor.go) runs with batched
// communication, deadlock-free by construction: every round of an
// exchange moves at most one vectored message per ordered pair, every
// processor sends its vectors before receiving any, and all per-element
// residual traffic follows one global order shared by all processors.
//
// The hot path works on integers only: each nest is lowered once
// (lower.go) to slot-indexed affine forms and array ids, and elements are
// elemID integers (array id + row-major offset). Names and "arr!i,j"
// strings survive only at the ir.Storage boundary. An epoch's ships are
// one append-only list, lowered in scratch every epoch reuses: lowering
// an epoch takes time in what it moves and allocates only when a chunk
// its plan is carved from runs out.
//
// The inspector's resolution is the executor's input: every operand of an
// opEval, and both ends of every redistribution segment, are recorded as
// local addresses — an offset into the processor's store slab, a position
// in its buffer of received copies, the rank of a direct message or a
// position among its partial sums — so the executor evaluates no
// subscript and looks up no element.

package exec

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"dmcc/internal/core"
	"dmcc/internal/dist"
	"dmcc/internal/grid"
	"dmcc/internal/ir"
)

// elemID packs (array id, 0-based row-major element offset) into one
// integer — the hot-path replacement for pkey strings.
type elemID int64

const elemOffBits = 40

func mkElem(a, off int) elemID { return elemID(int64(a)<<elemOffBits | int64(off)) }
func (e elemID) arr() int      { return int(int64(e) >> elemOffBits) }
func (e elemID) off() int      { return int(int64(e) & (1<<elemOffBits - 1)) }

// arrayMeta is one array's global layout — extents evaluated under the
// binding, row-major, subscripts 1-based — and its local one. Owner cells
// (the sets of elements sharing an owner list) partition the array and a
// rank holds at most one of them, so one table shared by every processor
// turns a global offset into an offset inside the element's cell, and a
// processor's store of the array is exactly as long as its cell. A cell is
// named by its first (lowest) owner rank.
type arrayMeta struct {
	name string
	sch  dist.Scheme
	ext  []int
	size int
	// Per element: its cell and its offset inside the cell.
	cell, loc []int32
	// Per rank: the cell the rank holds (-1 for none). Per cell: its
	// length and its owners, ascending.
	rankCell, cellLen []int32
	cellOwners        [][]int
}

// buildLayout resolves the array's ownership once, before the walk, and
// asserts what the local stores rest on: every element of a cell has the
// same owner list and no rank appears in two cells.
func (am *arrayMeta) buildLayout(g *grid.Grid) error {
	n := g.Size()
	am.cell, am.loc = make([]int32, am.size), make([]int32, am.size)
	am.rankCell, am.cellLen = make([]int32, n), make([]int32, n)
	am.cellOwners = make([][]int, n)
	for r := range am.rankCell {
		am.rankCell[r] = -1
	}
	if am.size == 0 {
		return nil
	}
	var err error
	off := 0
	dist.ForEachIndex(am.ext, func(idx []int) {
		owners := am.sch.Owners(g, idx...)
		c := int32(owners[0])
		if am.cellOwners[c] == nil {
			for _, o := range owners {
				if am.rankCell[o] >= 0 && err == nil {
					err = fmt.Errorf("exec: rank %d owns %s%v under first owner %d and other elements under first owner %d",
						o, am.name, idx, c, am.rankCell[o])
				}
				am.rankCell[o] = c
			}
			am.cellOwners[c] = owners
		} else if !slices.Equal(owners, am.cellOwners[c]) && err == nil {
			err = fmt.Errorf("exec: %s%v is owned by %v, other elements of first owner %d by %v",
				am.name, idx, owners, c, am.cellOwners[c])
		}
		am.cell[off], am.loc[off] = c, am.cellLen[c]
		am.cellLen[c]++
		off++
	})
	return err
}

// storeLen is the length of rank r's local store of the array.
func (am *arrayMeta) storeLen(r int) int {
	if c := am.rankCell[r]; c >= 0 {
		return int(am.cellLen[c])
	}
	return 0
}

// slabOff is element e's offset in rank r's store slab, which holds the
// rank's cells of every array in array order. r must own e.
func (s *progSchedule) slabOff(r int, e elemID) int32 {
	am := &s.arrays[e.arr()]
	return s.base[r*len(s.arrays)+e.arr()] + am.loc[e.off()]
}

// dense is a per-array element table, each array's row materialized on
// first touch.
type dense[T any] [][]T

func (d dense[T]) at(s *progSchedule, e elemID) *T {
	a := e.arr()
	if d[a] == nil {
		d[a] = make([]T, s.arrays[a].size)
	}
	return &d[a][e.off()]
}

// progSchedule is the complete precomputed schedule of one Run call.
type progSchedule struct {
	ss      *core.SchemeSet
	bind    map[string]int
	scalars map[string]float64
	nprocs  int
	arrays  []arrayMeta
	aid     map[string]int
	nests   []*nestSchedule
	// base[r*len(arrays)+a] is where array a's cell starts in rank r's
	// store slab.
	base []int32
	// bufs numbers each rank's buffered copies of other ranks' elements,
	// parts each rank's partial sums of reduction accumulators: one
	// position per (rank, element) for the whole run, which is how long
	// the executor's cbuf and part are.
	bufs, parts posTable
	// Liveness state for fan-out pruning: redArrs marks arrays that
	// appear as a reduction LHS; acc records, per element of
	// those arrays, the program-order sequence of local-read and write
	// events; sites lists every finalize with its position in that
	// sequence. computeFanouts scans forward (cyclically, because the
	// program body repeats each outer iteration) from each site to the
	// element's next write and keeps only the owners that actually read
	// the total in between.
	redArrs []bool
	seq     int
	acc     map[elemID][]accEvent
	sites   []finSite
}

// posTable hands out per-rank positions, one per (rank, element) for the
// life of the table. rows is a dense per-element table of the ranks holding
// a position, ascending — an element reaches few ranks, so a row stays
// short where a per-element array over every rank would not — and n[r] is
// rank r's count.
type posTable struct {
	rows dense[[]rankPos]
	n    []int32
	// free is the slab new rows are cut from, four entries each.
	free []rankPos
}

type rankPos struct{ rank, pos int32 }

// pos returns rank r's position for e, numbering it on first use.
func (t *posTable) pos(s *progSchedule, e elemID, r int) int32 {
	row := t.rows.at(s, e)
	i, n := 0, len(*row)
	for i < n { // binary search for the first rank >= r
		if h := int(uint(i+n) >> 1); (*row)[h].rank < int32(r) {
			i = h + 1
		} else {
			n = h
		}
	}
	if i == len(*row) || (*row)[i].rank != int32(r) {
		if *row == nil {
			if len(t.free) < 4 {
				t.free = make([]rankPos, 1024)
			}
			*row, t.free = t.free[:0:4], t.free[4:]
		}
		*row = slices.Insert(*row, i, rankPos{int32(r), t.n[r]})
		t.n[r]++
	}
	return (*row)[i].pos
}

// accEvent is one liveness event of a reduction-accumulator element:
// either a write (finalize or plain overwrite) or a local read by the
// listed ranks.
type accEvent struct {
	seq     int
	write   bool
	readers []int
}

// finSite is one finalize's position in the liveness sequence.
type finSite struct {
	e   elemID
	seq int
	f   *finOp
}

func (s *progSchedule) noteRead(e elemID, readers []int) {
	s.seq++
	s.acc[e] = append(s.acc[e], accEvent{seq: s.seq, readers: append([]int(nil), readers...)})
}

func (s *progSchedule) noteWrite(e elemID) {
	s.seq++
	s.acc[e] = append(s.acc[e], accEvent{seq: s.seq, write: true})
}

func (s *progSchedule) noteFinalize(e elemID, f *finOp) {
	s.seq++
	s.acc[e] = append(s.acc[e], accEvent{seq: s.seq, write: true})
	s.sites = append(s.sites, finSite{e: e, seq: s.seq, f: f})
}

// computeFanouts prunes every finalize's fan-out to the owners that are
// live readers of the total: ranks that locally read the element after
// this finalize and before its next write. The scan is cyclic — the
// program body repeats each outer iteration, so events before the site
// replay after it — and therefore conservative for the final iteration.
// The root is never in the fan-out: it always folds and stores the
// total, which keeps the ship source (owners[0]) and the first-owner
// result assembly correct even when every other owner is pruned.
func (s *progSchedule) computeFanouts() {
	live := map[int]bool{}
	for _, site := range s.sites {
		f := site.f
		events := s.acc[site.e]
		start := sort.Search(len(events), func(k int) bool { return events[k].seq > site.seq })
		for k := range live {
			delete(live, k)
		}
		n := len(events)
		for k := 0; k < n; k++ {
			ev := &events[(start+k)%n]
			if ev.write {
				break
			}
			for _, r := range ev.readers {
				live[r] = true
			}
		}
		for _, o := range f.owners {
			if o != f.root && live[o] {
				f.fanout = append(f.fanout, o)
			}
		}
	}
}

// nestSchedule is one nest's schedule, built once and replayed for
// every outer iteration (the binding, and hence the walk, is identical
// across iterations).
type nestSchedule struct {
	// loops and stmts are the nest lowered once against the binding.
	loops []lloop
	stmts []lstmt
	// procs[r] is processor r's value-pass instruction stream: flat,
	// pointer-free records indexing the nest's arenas — operands holds
	// every eval's operand addresses, addrs every redistribution
	// segment's, reds and redists the exchanges by index.
	procs    [][]pinstr
	operands []operand
	addrs    []int32
	reds     []*redOp
	redists  []*redistOp
}

// pinstr is one value-pass instruction of one processor.
type pinstr struct {
	op   uint8
	role uint8
	stmt int32
	// arg is opSendDirect's receiver rank, opRed's index into reds,
	// opRedist's index into redists, and a roleReduce opEval's position
	// among the processor's partial sums.
	arg int32
	// off is opEval's first operand, operands[off:off+len(reads)], and
	// opRed's index into the exchange's roles.
	off int32
	// elem is the element opSendDirect ships and opEval writes.
	elem elemID
}

const (
	// opNop is the zero instruction: the slot each epoch reserves for its
	// opRedist, left as is where the redistribution skips the processor.
	opNop uint8 = iota
	// opSendDirect ships one element that was finalized earlier in the
	// same epoch, so its value postdates the epoch-boundary gather.
	opSendDirect
	// opEval receives this processor's remote operands and, unless the
	// role is roleRecvOnly, evaluates the statement instance.
	opEval
	// opRed runs a vectored reduction exchange (two-phase or ring) for a
	// batch of finalizes.
	opRed
	// opRedist runs one epoch's collective redistribution rounds.
	opRedist
)

const (
	roleWrite uint8 = iota
	roleReduce
	roleRecvOnly
)

// operand is one resolved operand of an opEval, in Stmt.Reads order: the
// kind in the top two bits, the executor-local address below them.
type operand uint32

const (
	// opdOwned: an offset into the executor's store slab (slabOff).
	opdOwned operand = iota << 30
	// opdBuffered: a position in the executor's buffer of copies the
	// epoch's redistribution delivered (progSchedule.bufs).
	opdBuffered
	// opdDirect: the rank whose one-word message carries the value.
	opdDirect
	// opdAcc: the reduce accumulator, a position among the executor's
	// partial sums (progSchedule.parts).
	opdAcc

	opdAddr  = 1<<30 - 1
	maxLocal = 1 << 30
)

func (o operand) kind() operand { return o &^ opdAddr }
func (o operand) addr() int     { return int(o & opdAddr) }

// redistOp is one processor's materialized schedule for an epoch's
// collective redistribution. Each round exchanges at most one merged
// vectored message per ordered processor pair, and every processor
// sends its round messages before receiving any, which keeps the
// exchange deadlock-free even on single-message channels. Binomial
// multicast-tree rounds come first (round r moves tree edges of stride
// 2^r, so a relay always receives a step's payload in an earlier round
// than it forwards it), and the residual single-destination traffic is
// the final round, one vectored message per pair.
type redistOp struct {
	rounds []redistRound
}

type redistRound struct {
	sends []redistMsg // ascending peer (destination) order
	recvs []redistMsg // ascending peer (source) order
}

// redistMsg is one merged round message: the segments of every tree
// step (and residual pair list) crossing this ordered pair this round,
// concatenated in step order. Both endpoints hold the same segment
// list, so the wire layout needs no header.
type redistMsg struct {
	peer int32
	segs []redistSeg
}

// redistSeg is one origin's element run inside a merged message. The
// sender gathers it from its store slab when it is the origin, or
// forwards the copies it received in an earlier round; the receiver files
// the words in its copy buffer. The segment's addresses, written after
// the epoch is lowered, are the nest's addrs[addr:addr+2*len(elems)]: the
// sender's (slab offsets at the origin, buffer positions at a relay),
// then the receiver's buffer positions.
type redistSeg struct {
	origin int32
	elems  []elemID
	addr   int32
}

type finOp struct {
	elem     elemID
	contribs []int
	// parts[k] is contribs[k]'s position of the element's partial sum.
	parts  []int32
	owners []int
	root   int
	// fanout is the liveness-pruned total-delivery set: owners other
	// than the root that locally read the total before the element's
	// next write, ascending. Filled by computeFanouts after the walk.
	fanout []int
}

// redOp is one vectored reduction exchange covering a batch of
// finalizes: all reductions forced by one statement instance
// (mid-epoch, ordered) or all reductions still pending at nest end
// (hoistable). Two lowerings share the type:
//
//   - two-phase: a gather phase (one vectored partials message per
//     (contributor, root) pair, items in batch order) and a fan-out
//     phase (one vectored totals message per (root, live reader) pair);
//
//   - ring (Section 5), when ring is true: the running totals travel
//     the contributor chain neighbor-to-neighbor — each hop adds its
//     partials and forwards the vector — and the last contributor
//     delivers the totals to the root and the live readers. This
//     de-serializes the root hot-spot: the root receives one message
//     instead of len(contribs)-1.
//
// Both phases and the ring keep the oracle's left-associative fold
// order (stored value, then contributors ascending), so values stay
// bit-identical to RunExact.
type redOp struct {
	items []*finOp
	ring  bool
	// parts lists the exchange's participants (contributors and owners,
	// ascending) and roles[k] what parts[k] does in it; a participant's
	// opRed carries its k.
	parts []int
	roles []redRole
}

// redRole is one participant's part in a reduction exchange, as indices
// into the items in batch order: the items it holds a partial of (as their
// root or not) with that partial's position (part), the items it folds and
// stores as their root, and those it receives the total of as a live
// reader. The executor walks these, never the whole batch.
type redRole struct {
	contrib, part, root, reads []int32
}

// buildRoles fills every exchange's role lists; it runs after
// computeFanouts, which decides the readers.
func (s *progSchedule) buildRoles() {
	at := make([]int32, s.nprocs) // rank -> index into the exchange's parts
	for _, ns := range s.nests {
		for _, r := range ns.reds {
			for k, p := range r.parts {
				at[p] = int32(k)
			}
			r.roles = make([]redRole, len(r.parts))
			for i, f := range r.items {
				for k, c := range f.contribs {
					role := &r.roles[at[c]]
					role.contrib = append(role.contrib, int32(i))
					role.part = append(role.part, f.parts[k])
				}
				r.roles[at[f.root]].root = append(r.roles[at[f.root]].root, int32(i))
				for _, o := range f.fanout {
					r.roles[at[o]].reads = append(r.roles[at[o]].reads, int32(i))
				}
			}
		}
	}
}

// ringEligible reports whether a mid-epoch batch can be ring-lowered:
// every item must share one contributor chain of length >= 3 that
// starts at the shared root (so the chain's first hop has the stored
// value to fold first and the fold order matches the star's).
func ringEligible(items []*finOp) bool {
	f0 := items[0]
	if len(f0.contribs) < 3 || f0.contribs[0] != f0.root {
		return false
	}
	for _, f := range items[1:] {
		if f.root != f0.root || len(f.contribs) != len(f0.contribs) {
			return false
		}
		for i, c := range f.contribs {
			if c != f0.contribs[i] {
				return false
			}
		}
	}
	return true
}

// buildSchedule runs the inspector over the whole program: finalizes
// lower to vectored two-phase / ring exchanges, and each epoch's operand
// ships to one composed collective redistribution, lowered with low's
// scratch. An unbound variable, an undeclared array or a subscript
// outside its array is an error.
func buildSchedule(p *ir.Program, ss *core.SchemeSet, bind map[string]int, scalars map[string]float64, low *lowering) (*progSchedule, error) {
	s := &progSchedule{
		ss: ss, bind: bind, scalars: scalars,
		nprocs:  ss.Grid.Size(),
		aid:     make(map[string]int, len(p.Arrays)),
		redArrs: make([]bool, len(p.Arrays)),
		acc:     make(map[elemID][]accEvent),
	}
	names := make([]string, 0, len(p.Arrays))
	for name := range p.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		arr := p.Arrays[name]
		am := arrayMeta{name: name, sch: ss.Schemes[name], ext: make([]int, arr.Rank()), size: 1}
		for d, e := range arr.Extents {
			ext, err := s.lowerAffine(e, nil)
			if err != nil {
				return nil, fmt.Errorf("exec: extent %d of array %s: %w", d+1, name, err)
			}
			if ext.c < 0 {
				return nil, fmt.Errorf("exec: extent %d of array %s is %d", d+1, name, ext.c)
			}
			am.ext[d] = ext.c
			am.size *= ext.c
		}
		if err := am.buildLayout(ss.Grid); err != nil {
			return nil, err
		}
		s.aid[name] = len(s.arrays)
		s.arrays = append(s.arrays, am)
	}
	s.base = make([]int32, s.nprocs*len(s.arrays))
	for r := range s.nprocs {
		off := 0
		for a := range s.arrays {
			s.base[r*len(s.arrays)+a] = int32(off)
			off += s.arrays[a].storeLen(r)
		}
	}
	s.bufs = posTable{rows: make(dense[[]rankPos], len(s.arrays)), n: make([]int32, s.nprocs)}
	s.parts = posTable{rows: make(dense[[]rankPos], len(s.arrays)), n: make([]int32, s.nprocs)}
	for _, nest := range p.Nests {
		for _, st := range nest.Stmts {
			if st.Reduce {
				s.redArrs[s.aid[st.LHS.Array]] = true
			}
		}
	}
	s.nests = make([]*nestSchedule, len(p.Nests))
	for i, nest := range p.Nests {
		ns, err := s.buildNest(nest, low)
		if err != nil {
			return nil, err
		}
		s.nests[i] = ns
	}
	for r := range s.nprocs {
		if n := max(s.storeWords(r), int(s.bufs.n[r]), int(s.parts.n[r])); n >= maxLocal {
			return nil, fmt.Errorf("exec: rank %d needs %d local addresses of one kind, more than an operand holds", r, n)
		}
	}
	s.computeFanouts()
	s.buildRoles()
	return s, nil
}

// elemOf maps array a's 1-based subscripts to the element id, checked
// against the declared extents (the dense stores cannot absorb
// out-of-range elements the way the old string maps silently did).
func (s *progSchedule) elemOf(a int, idx []int) (elemID, bool) {
	am := &s.arrays[a]
	off := 0
	for d, v := range idx {
		if v < 1 || v > am.ext[d] {
			return 0, false
		}
		off = off*am.ext[d] + (v - 1)
	}
	return mkElem(a, off), true
}

// decode is elemOf's inverse: the element's 1-based subscripts, used only
// at the ir.Storage boundary and in diagnostics.
func (s *progSchedule) decode(e elemID) []int {
	am := &s.arrays[e.arr()]
	idx := make([]int, len(am.ext))
	off := e.off()
	for d := len(am.ext) - 1; d >= 0; d-- {
		idx[d] = off%am.ext[d] + 1
		off /= am.ext[d]
	}
	return idx
}

// storeWords is the total length of rank r's local stores.
func (s *progSchedule) storeWords(r int) int {
	n := 0
	for a := range s.arrays {
		n += s.arrays[a].storeLen(r)
	}
	return n
}

// ownersOf is the owner list of an element: its cell's.
func (s *progSchedule) ownersOf(e elemID) []int {
	am := &s.arrays[e.arr()]
	return am.cellOwners[am.cell[e.off()]]
}

// nestBuilder is the inspector's per-nest state.
type nestBuilder struct {
	s  *progSchedule
	ns *nestSchedule
	// iv is the loop vector: slot k holds loop k's current value.
	iv []int
	// pending maps a reduction accumulator to its sorted contributor
	// ranks, mirroring engine.pending (globally, not per processor).
	pending map[elemID][]int
	// written stamps elements written earlier in the current epoch with
	// its number; a batched ship of such an element would gather a
	// stale value at the epoch boundary, so it either cuts the epoch
	// (write from an earlier instance) or degrades to a direct send
	// (write by this instance's own finalizes, which no cut can hoist
	// past).
	written dense[uint32]
	epoch   uint32
	// first[p] is one past the slot ns.procs[p] reserves for the current
	// epoch's opRedist, 0 until p's first instruction of the epoch;
	// traffic lists the epoch's batched ships in ship order, and low is
	// the scratch closeEpoch lowers them with.
	first   []int32
	traffic []epochShip
	low     *lowering
	// seen dedups batched ships: bit dst of seen[e] marks that dst holds
	// a live buffered copy of e (its source is always e's first owner, so
	// the destination alone names the pair) and a
	// repeat ship would carry the same value and one copy suffices. A
	// write of e invalidates its entry (the buffered copies go stale),
	// which makes the dedup window every ship since the element's last
	// write — spanning epoch cuts, not reset by them: the surviving
	// ship's value is gathered at its own epoch boundary, before any
	// write that could invalidate it. Every read of a copy, deduped or
	// not, is the destination's one position for e (progSchedule.bufs),
	// which each ship of e to it refills.
	seen dense[[]uint64]
	// scratch; ops[xi*len(reads)+ri] is executor xi's operand ri
	readElem []elemID
	ships    []shipT
	ops      []operand
	forced   []elemID
	readers  []int
}

// shipT is one remote operand: e from its first owner src to executor ex,
// whose operand is ops[at].
type shipT struct {
	src, ex, at int32
	e           elemID
}

func pairKey(src, dst int32) int64 { return int64(src)<<32 | int64(dst) }

func (s *progSchedule) buildNest(nest *ir.Nest, low *lowering) (*nestSchedule, error) {
	ns := &nestSchedule{procs: make([][]pinstr, s.nprocs)}
	if err := s.lowerNest(nest, ns); err != nil {
		return nil, err
	}
	b := &nestBuilder{
		s: s, ns: ns,
		iv:      make([]int, len(nest.Loops)),
		pending: make(map[elemID][]int),
		written: make(dense[uint32], len(s.arrays)),
		epoch:   1,
		first:   make([]int32, s.nprocs),
		low:     low,
		seen:    make(dense[[]uint64], len(s.arrays)),
	}
	if err := b.walk(0); err != nil {
		return nil, err
	}
	// Combine reductions still pending at nest end. Nest-end finalizes are
	// hoistable: no later statement of the nest reads them, so the whole
	// set coalesces into one vectored exchange, in element order.
	elems := make([]elemID, 0, len(b.pending))
	for e := range b.pending {
		elems = append(elems, e)
	}
	slices.Sort(elems)
	b.emitBatch(elems, false)
	b.closeEpoch()
	return ns, nil
}

// walk visits the iteration space below loop level in program order:
// the level's statements before the inner loop, the loop, then the
// statements after it.
func (b *nestBuilder) walk(level int) error {
	for _, post := range [2]bool{false, true} {
		if post && level < len(b.ns.loops) {
			l := &b.ns.loops[level]
			step := 1
			if l.down {
				step = -1
			}
			for v, hi := l.lo.eval(b.iv), l.hi.eval(b.iv); (hi-v)*step >= 0; v += step {
				b.iv[level] = v
				if err := b.walk(level + 1); err != nil {
					return err
				}
			}
		}
		for si := range b.ns.stmts {
			if st := &b.ns.stmts[si]; st.Depth == level && st.post == post {
				if err := b.instance(si, st); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// emit appends in to processor p's stream, reserving in front of p's
// first instruction of an epoch the slot closeEpoch fills with the
// epoch's opRedist — the exchange runs first and no stream is copied.
func (b *nestBuilder) emit(p int, in pinstr) {
	stream := grow(b.ns.procs[p], 2)
	if b.first[p] == 0 {
		stream = append(stream, pinstr{})
		b.first[p] = int32(len(stream))
	}
	b.ns.procs[p] = append(stream, in)
}

// grow makes room for n more elements at the end of an arena, at least
// doubling its capacity: append alone grows a large slice by a quarter at
// a time, which allocates about five times what the arena ends up
// holding.
func grow[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		s = append(make([]T, 0, max(len(s)+n, 2*cap(s))), s...)
	}
	return s
}

// instance inspects one dynamic statement instance, appending its work
// to the per-processor streams.
// The decomposition (forced finalizes, executor set, ship list,
// pending bookkeeping, evaluation) replicates engine.instance exactly.
func (b *nestBuilder) instance(si int, st *lstmt) error {
	s := b.s

	// Resolve the written element and the read elements.
	lhsElem, err := st.lhs.elemAt(b.iv)
	if err != nil {
		return err
	}
	b.readElem = b.readElem[:0]
	for ri := range st.reads {
		e, err := st.reads[ri].elemAt(b.iv)
		if err != nil {
			return err
		}
		b.readElem = append(b.readElem, e)
	}

	// Executor set: anchor owners for reductions, LHS owners otherwise.
	executors := s.ownersOf(lhsElem)
	if st.Reduce && st.anchor >= 0 {
		executors = s.ownersOf(b.readElem[st.anchor])
	}

	// Operands, and the ship list: one word from the element's first
	// owner to every executor that lacks it. The reduce accumulator is
	// never shipped (its operand is the contributor's partial sum, set
	// below), executors that own the element read their store slab, and a
	// shipped operand is addressed when its ship is emitted.
	nr := len(b.readElem)
	b.ops = slices.Grow(b.ops[:0], len(executors)*nr)[:len(executors)*nr]
	b.ships = b.ships[:0]
	acc := opdAcc // the contributor's, executors[0]'s; the others never read it
	if st.Reduce {
		acc |= operand(s.parts.pos(s, lhsElem, executors[0]))
	}
	for ri, e := range b.readElem {
		if st.Reduce && e == lhsElem {
			for xi := range executors {
				b.ops[xi*nr+ri] = opdAcc
			}
			b.ops[ri] = acc
			continue
		}
		owners := s.ownersOf(e)
		src := owners[0]
		for xi, ex := range executors {
			if slices.Contains(owners, ex) {
				b.ops[xi*nr+ri] = opdOwned | operand(s.slabOff(ex, e))
				continue
			}
			b.ships = append(b.ships, shipT{src: int32(src), ex: int32(ex), at: int32(xi*nr + ri), e: e})
		}
	}

	// Epoch cut: a shipped element written by an earlier instance of
	// this epoch would be gathered stale at the epoch boundary, so the
	// boundary moves here, before this whole instance.
	for _, sh := range b.ships {
		if *b.written.at(s, sh.e) == b.epoch {
			b.closeEpoch()
			break
		}
	}

	// Forced finalizes: any pending reduction read by this instance
	// (other than its own accumulator), then a non-reduce write to a
	// pending element. They are mid-epoch — ordered before this
	// instance's reads — so the batch covers exactly this instance's
	// set, folded into one vectored exchange.
	b.forced = b.forced[:0]
	for _, e := range b.readElem {
		if st.Reduce && e == lhsElem {
			continue
		}
		if _, pend := b.pending[e]; pend && !slices.Contains(b.forced, e) {
			b.forced = append(b.forced, e)
		}
	}
	if _, pend := b.pending[lhsElem]; pend && !st.Reduce && !slices.Contains(b.forced, lhsElem) {
		b.forced = append(b.forced, lhsElem)
	}
	b.emitBatch(b.forced, true)

	// Liveness events for fan-out pruning: local reads of
	// reduction-accumulator elements (reads satisfied by ships are the
	// root's job, not the reader's copy), and overwrites.
	for _, e := range b.readElem {
		if !s.redArrs[e.arr()] || (st.Reduce && e == lhsElem) {
			continue
		}
		owners := s.ownersOf(e)
		b.readers = b.readers[:0]
		if st.Reduce {
			// Only the contributor evaluates; replicas just drain
			// their direct operands.
			if slices.Contains(owners, executors[0]) {
				b.readers = append(b.readers, executors[0])
			}
		} else {
			for _, ex := range executors {
				if slices.Contains(owners, ex) {
					b.readers = append(b.readers, ex)
				}
			}
		}
		if len(b.readers) > 0 {
			s.noteRead(e, b.readers)
		}
	}
	if !st.Reduce && s.redArrs[lhsElem.arr()] {
		s.noteWrite(lhsElem)
	}

	// Emit the ships, in the global lockstep order: each is either an
	// epoch-batched pair entry or — for elements this instance's own
	// finalizes just wrote — a residual direct send.
	for _, sh := range b.ships {
		if *b.written.at(s, sh.e) == b.epoch {
			b.emit(int(sh.src), pinstr{op: opSendDirect, arg: sh.ex, elem: sh.e})
			b.ops[sh.at] = opdDirect | operand(sh.src)
			continue
		}
		bits := b.seen.at(s, sh.e)
		if *bits == nil {
			*bits = make([]uint64, (s.nprocs+63)/64)
		}
		if w, m := &(*bits)[sh.ex>>6], uint64(1)<<(sh.ex&63); *w&m == 0 {
			*w |= m
			b.traffic = append(b.traffic, epochShip{pairKey(sh.src, sh.ex), sh.e})
		}
		b.ops[sh.at] = opdBuffered | operand(s.bufs.pos(s, sh.e, int(sh.ex)))
	}

	in := pinstr{op: opEval, stmt: int32(si), elem: lhsElem}
	if st.Reduce {
		// Record the contributor; only it evaluates (into its partial
		// sum, which its accumulator operands read), but every executor
		// still receives its direct operands, exactly like the
		// per-element engine.
		contrib := executors[0]
		list := b.pending[lhsElem]
		if len(list) == 0 || !slices.Contains(list, contrib) {
			b.pending[lhsElem] = insertSorted(list, contrib)
		}
		in.role, in.arg = roleReduce, int32(acc.addr())
		b.emitEval(contrib, in, b.ops[:nr])
		for xi := 1; xi < len(executors); xi++ {
			if ops := b.ops[xi*nr : (xi+1)*nr]; slices.ContainsFunc(ops, func(o operand) bool { return o.kind() == opdDirect }) {
				b.emitEval(executors[xi], pinstr{op: opEval, role: roleRecvOnly, stmt: int32(si), elem: lhsElem}, ops)
			}
		}
		return nil
	}

	for xi, ex := range executors {
		b.emitEval(ex, in, b.ops[xi*nr:(xi+1)*nr])
	}
	b.markWritten(lhsElem)
	return nil
}

// emitEval appends an opEval to processor p's stream with its operands
// copied into the nest's operand arena.
func (b *nestBuilder) emitEval(p int, in pinstr, ops []operand) {
	in.off = int32(len(b.ns.operands))
	b.ns.operands = append(grow(b.ns.operands, len(ops)), ops...)
	b.emit(p, in)
	if b.low.evalTap != nil {
		b.low.evalTap(b.ns, p, len(b.ns.procs[p])-1, b.iv[:b.ns.stmts[in.stmt].Depth])
	}
}

// markWritten records a write of e in the current epoch and drops its
// ship-dedup window: the buffered copies are stale from here on.
func (b *nestBuilder) markWritten(e elemID) {
	*b.written.at(b.s, e) = b.epoch
	clear(*b.seen.at(b.s, e))
}

// recordFinalize pops a pending reduction and records what every
// lowering of its combine needs — the contributors, the owners and the
// root (the accumulator's first owner, which folds the partials in
// contributor order), the liveness site, and the written mark — without
// choosing the lowering; emitBatch does that for the whole batch.
func (b *nestBuilder) recordFinalize(e elemID) *finOp {
	contribs := b.pending[e]
	delete(b.pending, e)
	owners := b.s.ownersOf(e)
	f := &finOp{elem: e, contribs: contribs, parts: make([]int32, len(contribs)), owners: owners, root: owners[0]}
	for k, c := range contribs {
		f.parts[k] = b.s.parts.pos(b.s, e, c)
	}
	b.s.noteFinalize(e, f)
	b.markWritten(e)
	return f
}

// emitBatch lowers a batch of finalizes to one vectored exchange:
// ring-lowered when mid-epoch and the items share one root-anchored
// contributor chain (the Section 5 accumulate-then-sweep shape — SOR),
// two-phase gather + fan-out otherwise. The opRed instruction goes to
// every processor that could participate (roots, contributors, owners);
// buildRoles lists what each does, and an owner pruned from every fan-out
// falls through without touching the wire.
func (b *nestBuilder) emitBatch(elems []elemID, mid bool) {
	if len(elems) == 0 {
		return
	}
	items := make([]*finOp, len(elems))
	for i, e := range elems {
		items[i] = b.recordFinalize(e)
	}
	r := &redOp{items: items, ring: mid && ringEligible(items)}
	for _, f := range items {
		for _, p := range f.contribs {
			if !slices.Contains(r.parts, p) {
				r.parts = insertSorted(r.parts, p)
			}
		}
		for _, p := range f.owners {
			if !slices.Contains(r.parts, p) {
				r.parts = insertSorted(r.parts, p)
			}
		}
	}
	in := pinstr{op: opRed, arg: int32(len(b.ns.reds))}
	b.ns.reds = append(b.ns.reds, r)
	for k, p := range r.parts {
		in.off = int32(k)
		b.emit(p, in)
	}
}

// closeEpoch freezes the current epoch: its batched traffic is lowered to
// the composed collective redistribution and addressed, its opRedist lands
// in each participant's reserved slot (or ends the stream of one that
// emitted nothing else this epoch), and the written set resets (its stamps
// fall behind the epoch number).
func (b *nestBuilder) closeEpoch() {
	if len(b.traffic) > 0 {
		ranks, ops := b.low.lower(b.traffic)
		b.address(ranks, ops)
		for i, p := range ranks {
			in := pinstr{op: opRedist, arg: int32(len(b.ns.redists))}
			b.ns.redists = append(b.ns.redists, &ops[i])
			if at := b.first[p]; at > 0 {
				b.ns.procs[p][at-1] = in
			} else {
				b.ns.procs[p] = append(b.ns.procs[p], in)
			}
		}
		b.traffic = b.traffic[:0]
	}
	clear(b.first)
	b.epoch++
}

// address writes every segment's addresses (see redistSeg) into the
// nest's addrs arena. A segment is shared by its message's two ends and
// addressed once, from the send. Every receiver, relays included, is a
// destination of the segment's elements, so their positions were numbered
// when the ships were listed.
func (b *nestBuilder) address(ranks []int32, ops []redistOp) {
	s := b.s
	for i := range ops {
		snd := int(ranks[i])
		for r := range ops[i].rounds {
			for _, msg := range ops[i].rounds[r].sends {
				for k := range msg.segs {
					seg := &msg.segs[k]
					seg.addr = int32(len(b.ns.addrs))
					b.ns.addrs = grow(b.ns.addrs, 2*len(seg.elems))
					for _, e := range seg.elems {
						if snd == int(seg.origin) {
							b.ns.addrs = append(b.ns.addrs, s.slabOff(snd, e))
						} else {
							b.ns.addrs = append(b.ns.addrs, s.bufs.pos(s, e, snd))
						}
					}
					for _, e := range seg.elems {
						b.ns.addrs = append(b.ns.addrs, s.bufs.pos(s, e, int(msg.peer)))
					}
				}
			}
		}
	}
}

// epochShip is one batched ship: e from its first owner to an executor, k =
// pairKey(owner, executor), at most once per (e, executor) and epoch.
type epochShip struct {
	k int64
	e elemID
}

// lowering is lower's scratch, owned by one buildSchedule call and reused
// by every epoch it closes. Per source: pos[e] is e's index in order (the
// source's elements in first-ship order), xs the index of each of the
// source's ships, and order[x]'s destinations, ascending, are
// dests[start[x]:start[x+1]]. The arenas members and elems hold every
// tree step's members and every step's and residual pair's element run.
type lowering struct {
	pos                    map[elemID]int32
	order, elems           []elemID
	xs, start, fill, dests []int32
	multi, members, ranks  []int32
	steps                  []treeStep
	resid, edges           []edge
	msgs                   []roundMsg
	// The slabs every epoch's plan is carved from (carve).
	elemSlab  []elemID
	segSlab   []redistSeg
	opSlab    []redistOp
	roundSlab []redistRound
	msgSlab   []redistMsg
	// tap (tests only) sees each epoch's sorted traffic and its plan, before
	// the plan is addressed; evalTap (tests only) sees each opEval as it is
	// emitted — ns.procs[p][at] — with the instance's loop vector.
	tap     func(traffic []epochShip, ranks []int32, ops []redistOp)
	evalTap func(ns *nestSchedule, p, at int, iv []int)
}

// carve cuts n zeroed elements off the front of *slab, which it refills
// with a fresh chunk when too short. Plans outlive the epoch that lowers
// them, so a chunk is shared by consecutive epochs and never reused.
func carve[T any](slab *[]T, n int) []T {
	if len(*slab) < n {
		*slab = make([]T, max(n, 512))
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// treeStep is one multicast tree: the elements of one origin sharing one
// destination set, ordered among the origin's steps by the first-ship
// index of their first element; members (origin + destinations,
// ascending, the origin at rootPos) and elems are arena ranges.
type treeStep struct {
	origin, first, rootPos int32
	members, elems         [2]int32
}

// edge is one round's segment: origin's element run crossing pair k.
type edge struct {
	round, origin int32
	k             int64
	elems         [2]int32
}

// roundMsg is one merged message: one round's segments on one pair.
type roundMsg struct {
	round, snd, rcv int32
	segs            []redistSeg
}

// lower composes one epoch's traffic into a collective redistribution
// plan and returns the participating ranks, ascending (l's scratch, valid
// until the next call), with each one's redistOp. Per source (ascending),
// each element's destination set is classified: multi-destination
// elements group by identical destination set and each group becomes a
// binomial multicast-tree step rooted at the source (the tree moves the
// group in log2(W+1) rounds and every edge carries the group once — the
// same total words as the deduped star, with the source's send load
// spread over the relays); single-destination elements remain a vectored
// pair exchange, appended as the final round. Tree edges of all steps
// with the same stride execute in the same round, merged into one message
// per ordered pair, so every round keeps the one-message-per-pair
// sends-before-receives shape that rules out deadlock even on
// single-message channels.
//
// A stable sort by pair key gives each pair's elements in ship order; the
// work is in the epoch's ships, steps and edges, in l's reused scratch,
// and the plan (element runs, segments shared by a message's two ends,
// sends, receives, rounds, ops) is carved from five chunked slabs.
func (l *lowering) lower(traffic []epochShip) ([]int32, []redistOp) {
	slices.SortStableFunc(traffic, func(a, b epochShip) int { return cmp.Compare(a.k, b.k) })
	if l.pos == nil {
		l.pos = make(map[elemID]int32)
	}
	l.members, l.elems, l.steps, l.resid, l.edges = l.members[:0], l.elems[:0], l.steps[:0], l.resid[:0], l.edges[:0]
	for i := 0; i < len(traffic); {
		j := i + 1
		for j < len(traffic) && traffic[j].k>>32 == traffic[i].k>>32 {
			j++
		}
		l.source(int32(traffic[i].k>>32), traffic[i:j])
		i = j
	}

	// Round r moves every step's tree edges of stride 2^r (segments in step
	// order); the residual traffic is the last round.
	rounds := 0
	for _, st := range l.steps {
		rounds = max(rounds, bits.Len(uint(st.members[1]-st.members[0]-1)))
	}
	for r := range rounds {
		for _, st := range l.steps {
			mem, stride := l.members[st.members[0]:st.members[1]], 1<<r
			n, root := len(mem), int(st.rootPos)
			for rel := 0; rel < stride && rel+stride < n; rel++ {
				k := pairKey(mem[(root+rel)%n], mem[(root+rel+stride)%n])
				l.edges = append(l.edges, edge{round: int32(r), origin: st.origin, k: k, elems: st.elems})
			}
		}
	}
	for _, e := range l.resid {
		e.round = int32(rounds)
		l.edges = append(l.edges, e)
	}
	if len(l.resid) > 0 {
		rounds++
	}

	// Into send order, (sender, round, receiver), one message per run.
	slices.SortStableFunc(l.edges, func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.k>>32, b.k>>32), cmp.Compare(a.round, b.round), cmp.Compare(a.k, b.k))
	})
	elems := carve(&l.elemSlab, len(l.elems))
	copy(elems, l.elems)
	segs := carve(&l.segSlab, len(l.edges))
	l.msgs, l.ranks = l.msgs[:0], l.ranks[:0]
	for i, e := range l.edges {
		segs[i] = redistSeg{origin: e.origin, elems: elems[e.elems[0]:e.elems[1]:e.elems[1]]}
		if n := len(l.msgs); n > 0 && e.round == l.edges[i-1].round && e.k == l.edges[i-1].k {
			l.msgs[n-1].segs = segs[i-len(l.msgs[n-1].segs) : i+1 : i+1]
		} else {
			l.msgs = append(l.msgs, roundMsg{round: e.round, snd: int32(e.k >> 32), rcv: int32(e.k), segs: segs[i : i+1 : i+1]})
			l.ranks = append(l.ranks, int32(e.k>>32), int32(e.k))
		}
	}
	slices.Sort(l.ranks)
	l.ranks = slices.Compact(l.ranks)
	ops := carve(&l.opSlab, len(l.ranks))
	rs := carve(&l.roundSlab, len(ops)*rounds)
	for i := range ops {
		ops[i].rounds = rs[i*rounds : (i+1)*rounds : (i+1)*rounds]
	}

	// Per processor and round: sends in ascending destination order, then
	// receives in ascending source order, each a run of one slab.
	sends, recvs := carve(&l.msgSlab, len(l.msgs)), carve(&l.msgSlab, len(l.msgs))
	for i, m := range l.msgs {
		p, _ := slices.BinarySearch(l.ranks, m.snd)
		rd := &ops[p].rounds[m.round]
		sends[i] = redistMsg{peer: m.rcv, segs: m.segs}
		rd.sends = sends[i-len(rd.sends) : i+1 : i+1]
	}
	slices.SortStableFunc(l.msgs, func(a, b roundMsg) int {
		return cmp.Or(cmp.Compare(a.rcv, b.rcv), cmp.Compare(a.round, b.round))
	})
	for i, m := range l.msgs {
		p, _ := slices.BinarySearch(l.ranks, m.rcv)
		rd := &ops[p].rounds[m.round]
		recvs[i] = redistMsg{peer: m.snd, segs: m.segs}
		rd.recvs = recvs[i-len(rd.recvs) : i+1 : i+1]
	}
	if l.tap != nil {
		l.tap(traffic, l.ranks, ops)
	}
	return l.ranks, ops
}

// source classifies one source's traffic, sorted by destination: an
// element shipped to one destination joins that pair's residual run, the
// others group by destination set into tree steps, ordered by their first
// element.
func (l *lowering) source(src int32, run []epochShip) {
	l.order, l.start, l.xs = l.order[:0], l.start[:0], l.xs[:0]
	for _, t := range run {
		x, ok := l.pos[t.e]
		if !ok {
			x = int32(len(l.order))
			l.pos[t.e] = x
			l.order = append(l.order, t.e)
			l.start = append(l.start, 0)
		}
		l.xs = append(l.xs, x)
		l.start[x]++
	}
	// Counts to offsets, then each element's destinations in run order.
	l.start = append(l.start, 0)
	for x, sum := 0, int32(0); x < len(l.start); x++ {
		l.start[x], sum = sum, sum+l.start[x]
	}
	l.fill = append(l.fill[:0], l.start...)
	l.dests = slices.Grow(l.dests[:0], len(run))[:len(run)]
	for i, x := range l.xs {
		l.dests[l.fill[x]] = int32(run[i].k)
		l.fill[x]++
	}
	dests := func(x int32) []int32 { return l.dests[l.start[x]:l.start[x+1]] }

	for i, t := range run {
		if len(dests(l.xs[i])) > 1 {
			continue
		}
		if n := len(l.resid); n > 0 && l.resid[n-1].k == t.k {
			l.resid[n-1].elems[1]++
		} else {
			e0 := int32(len(l.elems))
			l.resid = append(l.resid, edge{origin: src, k: t.k, elems: [2]int32{e0, e0 + 1}})
		}
		l.elems = append(l.elems, t.e)
	}

	l.multi = l.multi[:0]
	for x := range l.order {
		if len(dests(int32(x))) > 1 {
			l.multi = append(l.multi, int32(x))
		}
	}
	slices.SortStableFunc(l.multi, func(a, b int32) int { return slices.Compare(dests(a), dests(b)) })
	s0 := len(l.steps)
	for a := 0; a < len(l.multi); {
		d, b := dests(l.multi[a]), a+1
		for b < len(l.multi) && slices.Equal(dests(l.multi[b]), d) {
			b++
		}
		root, _ := slices.BinarySearch(d, src)
		m0, e0 := int32(len(l.members)), int32(len(l.elems))
		l.members = append(append(append(l.members, d[:root]...), src), d[root:]...)
		for _, x := range l.multi[a:b] {
			l.elems = append(l.elems, l.order[x])
		}
		l.steps = append(l.steps, treeStep{origin: src, first: l.multi[a], rootPos: int32(root),
			members: [2]int32{m0, int32(len(l.members))}, elems: [2]int32{e0, int32(len(l.elems))}})
		a = b
	}
	slices.SortFunc(l.steps[s0:], func(a, b treeStep) int { return cmp.Compare(a.first, b.first) })
	for _, e := range l.order {
		delete(l.pos, e)
	}
}
