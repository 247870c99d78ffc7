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
// strings survive only at the ir.Storage boundary.

package exec

import (
	"fmt"
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
	// pointer-free records indexing the nest's arenas — envs holds each
	// instance's loop vector once (shared by its executors), slots every
	// eval's remote operands, reds and redists the exchanges by index.
	procs   [][]pinstr
	envs    []int32
	slots   []slot
	reds    []*redOp
	redists []*redistOp
}

// pinstr is one value-pass instruction of one processor.
type pinstr struct {
	op   uint8
	role uint8
	stmt int32
	// arg is opSendDirect's receiver rank, opRed's index into reds,
	// opRedist's index into redists.
	arg int32
	// opEval: the loop vector envs[envOff:envOff+depth] and the remote
	// operands slots[slotOff:slotOff+slotN]. opRed: envOff is the
	// processor's index into the exchange's roles.
	envOff         int32
	elem           elemID
	slotOff, slotN int32
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

// slot is one remote operand of an eval: either the copy of elem that
// the epoch's redistribution buffered under its origin rank src, or
// (direct) a dedicated one-word message from src.
type slot struct {
	src    int32
	elem   elemID
	direct bool
}

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
// sender gathers it from its local store when it is the origin, or
// forwards the words it received (and buffered by origin) in an
// earlier round; the receiver files the words under the origin's rank
// for eval's slot lookups.
type redistSeg struct {
	origin int32
	elems  []elemID
}

type finOp struct {
	elem     elemID
	contribs []int
	owners   []int
	root     int
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
// root or not), folds and stores as their root, and receives the total of
// as a live reader. The executor walks these, never the whole batch.
type redRole struct {
	contrib, root, reads []int32
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
				for _, c := range f.contribs {
					r.roles[at[c]].contrib = append(r.roles[at[c]].contrib, int32(i))
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
// ships to one composed collective redistribution. An unbound variable,
// an undeclared array or a subscript outside its array is an error.
func buildSchedule(p *ir.Program, ss *core.SchemeSet, bind map[string]int, scalars map[string]float64) (*progSchedule, error) {
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
	for _, nest := range p.Nests {
		for _, st := range nest.Stmts {
			if st.Reduce {
				s.redArrs[s.aid[st.LHS.Array]] = true
			}
		}
	}
	s.nests = make([]*nestSchedule, len(p.Nests))
	for i, nest := range p.Nests {
		ns, err := s.buildNest(nest)
		if err != nil {
			return nil, err
		}
		s.nests[i] = ns
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
	// pairs the epoch's per-pair vectored element lists.
	first []int32
	pairs map[int64][]elemID
	// seen dedups batched ships: bit dst of seen[e] marks that dst holds
	// a live buffered copy of e (its source is always e's first owner, so
	// the destination alone names the pair) and a
	// repeat ship would carry the same value and one copy suffices. A
	// write of e invalidates its entry (the buffered copies go stale),
	// which makes the dedup window every ship since the element's last
	// write — spanning epoch cuts, not reset by them: the surviving
	// ship's value is gathered at its own epoch boundary, before any
	// write that could invalidate it. Eval slots still reference every
	// operand; they resolve by (origin, element) against the buffered
	// copy.
	seen dense[[]uint64]
	// scratch
	readElem []elemID
	ships    []shipT
	exSlots  [][]slot
	forced   []elemID
	readers  []int
}

type shipT struct {
	src int32
	ex  int32
	e   elemID
}

func pairKey(src, dst int32) int64 { return int64(src)<<32 | int64(dst) }

func (s *progSchedule) buildNest(nest *ir.Nest) (*nestSchedule, error) {
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
		pairs:   make(map[int64][]elemID),
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
	if b.first[p] == 0 {
		b.ns.procs[p] = append(b.ns.procs[p], pinstr{})
		b.first[p] = int32(len(b.ns.procs[p]))
	}
	b.ns.procs[p] = append(b.ns.procs[p], in)
}

// instance inspects one dynamic statement instance, appending its work
// to the per-processor streams.
// The decomposition (forced finalizes, executor set, ship list,
// pending bookkeeping, evaluation) replicates engine.instance exactly.
func (b *nestBuilder) instance(si int, st *lstmt) error {
	s := b.s

	// Resolve the written element and the read elements.
	lhsElem, err := s.elemAt(&st.lhs, b.iv)
	if err != nil {
		return err
	}
	b.readElem = b.readElem[:0]
	for ri := range st.reads {
		e, err := s.elemAt(&st.reads[ri], b.iv)
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

	// Ship list: one word from the element's first owner to every
	// executor that lacks it. (The reduce accumulator is never shipped;
	// executors that own the element read their local copy.)
	b.ships = b.ships[:0]
	for _, e := range b.readElem {
		if st.Reduce && e == lhsElem {
			continue
		}
		owners := s.ownersOf(e)
		src := owners[0]
		for _, ex := range executors {
			if contains(owners, ex) {
				continue
			}
			b.ships = append(b.ships, shipT{src: int32(src), ex: int32(ex), e: e})
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
		if _, pend := b.pending[e]; pend && !containsElem(b.forced, e) {
			b.forced = append(b.forced, e)
		}
	}
	if _, pend := b.pending[lhsElem]; pend && !st.Reduce && !containsElem(b.forced, lhsElem) {
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
			// their shipped slots.
			if contains(owners, executors[0]) {
				b.readers = append(b.readers, executors[0])
			}
		} else {
			for _, ex := range executors {
				if contains(owners, ex) {
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
	for len(b.exSlots) < len(executors) {
		b.exSlots = append(b.exSlots, nil)
	}
	for xi := range executors {
		b.exSlots[xi] = b.exSlots[xi][:0]
	}
	for _, sh := range b.ships {
		xi := indexOf(executors, int(sh.ex))
		if *b.written.at(s, sh.e) == b.epoch {
			b.emit(int(sh.src), pinstr{op: opSendDirect, arg: sh.ex, elem: sh.e})
			b.exSlots[xi] = append(b.exSlots[xi], slot{src: sh.src, elem: sh.e, direct: true})
		} else {
			bits := b.seen.at(s, sh.e)
			if *bits == nil {
				*bits = make([]uint64, (s.nprocs+63)/64)
			}
			if w, m := &(*bits)[sh.ex>>6], uint64(1)<<(sh.ex&63); *w&m == 0 {
				*w |= m
				k := pairKey(sh.src, sh.ex)
				b.pairs[k] = append(b.pairs[k], sh.e)
			}
			b.exSlots[xi] = append(b.exSlots[xi], slot{src: sh.src, elem: sh.e})
		}
	}

	in := pinstr{op: opEval, stmt: int32(si), elem: lhsElem, envOff: int32(len(b.ns.envs))}
	for _, v := range b.iv[:st.Depth] {
		b.ns.envs = append(b.ns.envs, int32(v))
	}

	if st.Reduce {
		// Record the contributor; only it evaluates (into its partial
		// store), but every executor still receives its shipped
		// operands, exactly like the per-element engine.
		contrib := executors[0]
		list := b.pending[lhsElem]
		if len(list) == 0 || !contains(list, contrib) {
			b.pending[lhsElem] = insertSorted(list, contrib)
		}
		for xi, ex := range executors {
			if ex == contrib {
				in.role = roleReduce
				b.emitEval(ex, in, b.exSlots[xi])
			} else if len(b.exSlots[xi]) > 0 {
				b.emitEval(ex, pinstr{op: opEval, role: roleRecvOnly}, b.exSlots[xi])
			}
		}
		return nil
	}

	for xi, ex := range executors {
		b.emitEval(ex, in, b.exSlots[xi])
	}
	b.markWritten(lhsElem)
	return nil
}

// emitEval appends an opEval to processor p's stream with its remote
// operands copied into the nest's slot arena.
func (b *nestBuilder) emitEval(p int, in pinstr, slots []slot) {
	in.slotOff, in.slotN = int32(len(b.ns.slots)), int32(len(slots))
	b.ns.slots = append(b.ns.slots, slots...)
	b.emit(p, in)
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
	f := &finOp{elem: e, contribs: contribs, owners: owners, root: owners[0]}
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
			if !contains(r.parts, p) {
				r.parts = insertSorted(r.parts, p)
			}
		}
		for _, p := range f.owners {
			if !contains(r.parts, p) {
				r.parts = insertSorted(r.parts, p)
			}
		}
	}
	in := pinstr{op: opRed, arg: int32(len(b.ns.reds))}
	b.ns.reds = append(b.ns.reds, r)
	for k, p := range r.parts {
		in.envOff = int32(k)
		b.emit(p, in)
	}
}

func containsElem(xs []elemID, v elemID) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// closeEpoch freezes the current epoch: the accumulated pair traffic
// is lowered to the composed collective redistribution, which lands in
// each participant's reserved slot, and the written set resets (its
// stamps fall behind the epoch number).
func (b *nestBuilder) closeEpoch() {
	if len(b.pairs) > 0 {
		b.lowerCollective()
		b.pairs = make(map[int64][]elemID)
	}
	clear(b.first)
	b.epoch++
}

// lowerCollective composes the epoch's traffic into a collective
// redistribution plan. Per source, each (already deduped) element's
// destination set is classified: multi-destination elements group by
// identical destination set and each group becomes a binomial
// multicast-tree step rooted at the source (the tree moves the group
// in log2(W+1) rounds and every edge carries the group once — the
// same total words as the deduped star, with the source's send load
// spread over the relays); single-destination elements remain a
// vectored pair exchange, appended as the final round. Tree edges of
// all steps with the same stride execute in the same round, merged
// into one message per ordered pair, so every round keeps the
// one-message-per-pair sends-before-receives shape that rules out
// deadlock even on single-message channels.
func (b *nestBuilder) lowerCollective() {
	keys := make([]int64, 0, len(b.pairs))
	for k := range b.pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	// Per source (ascending): each element's destination set, destinations
	// ascending, elements in first-ship order.
	type stepT struct {
		origin  int32
		members []int32 // origin + destinations, ascending
		rootPos int     // origin's index in members
		elems   []elemID
	}
	var steps []stepT
	residual := make(map[int64][]elemID)
	destsOf := make(map[elemID][]int32)
	var order []elemID
	var sig []byte
	for i := 0; i < len(keys); {
		src := int32(keys[i] >> 32)
		for e := range destsOf {
			delete(destsOf, e)
		}
		order = order[:0]
		for ; i < len(keys) && int32(keys[i]>>32) == src; i++ {
			dst := int32(keys[i] & 0xffffffff)
			for _, e := range b.pairs[keys[i]] {
				if destsOf[e] == nil {
					order = append(order, e)
				}
				destsOf[e] = append(destsOf[e], dst)
			}
		}
		groupIdx := make(map[string]int)
		for _, e := range order {
			dests := destsOf[e]
			if len(dests) == 1 {
				k := pairKey(src, dests[0])
				residual[k] = append(residual[k], e)
				continue
			}
			sig = sig[:0]
			for _, d := range dests {
				sig = append(sig, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
			}
			gi, ok := groupIdx[string(sig)]
			if !ok {
				members := make([]int32, len(dests), len(dests)+1)
				copy(members, dests)
				pos := len(members)
				for j, m := range members {
					if src < m {
						pos = j
						break
					}
				}
				members = append(members, 0)
				copy(members[pos+1:], members[pos:])
				members[pos] = src
				gi = len(steps)
				groupIdx[string(sig)] = gi
				steps = append(steps, stepT{origin: src, members: members, rootPos: pos})
			}
			steps[gi].elems = append(steps[gi].elems, e)
		}
	}

	// Round r moves every step's tree edges of stride 2^r, merged into
	// one message per ordered pair (segments in step order, identically
	// derived on both endpoints); the residual traffic is the last round.
	maxRounds := 0
	for _, st := range steps {
		d := 0
		for 1<<d < len(st.members) {
			d++
		}
		if d > maxRounds {
			maxRounds = d
		}
	}
	rounds := make([]map[int64][]redistSeg, 0, maxRounds+1)
	for r := 0; r < maxRounds; r++ {
		stride := 1 << r
		m := make(map[int64][]redistSeg)
		for si := range steps {
			st := &steps[si]
			n := len(st.members)
			for rel := 0; rel < stride && rel+stride < n; rel++ {
				snd := st.members[(st.rootPos+rel)%n]
				rcv := st.members[(st.rootPos+rel+stride)%n]
				k := pairKey(snd, rcv)
				m[k] = append(m[k], redistSeg{origin: st.origin, elems: st.elems})
			}
		}
		rounds = append(rounds, m)
	}
	if len(residual) > 0 {
		m := make(map[int64][]redistSeg)
		for k, elems := range residual {
			m[k] = []redistSeg{{origin: int32(k >> 32), elems: elems}}
		}
		rounds = append(rounds, m)
	}

	// Materialize per-processor round schedules: sends in ascending
	// destination order, then receives in ascending source order.
	ops := make(map[int32]*redistOp)
	get := func(p int32) *redistOp {
		op := ops[p]
		if op == nil {
			op = &redistOp{rounds: make([]redistRound, len(rounds))}
			ops[p] = op
		}
		return op
	}
	ks := make([]int64, 0, 16)
	for r, m := range rounds {
		ks = ks[:0]
		for k := range m {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		for _, k := range ks {
			snd, rcv := int32(k>>32), int32(k&0xffffffff)
			op := get(snd)
			op.rounds[r].sends = append(op.rounds[r].sends, redistMsg{peer: rcv, segs: m[k]})
		}
		sort.Slice(ks, func(i, j int) bool {
			di, dj := ks[i]&0xffffffff, ks[j]&0xffffffff
			if di != dj {
				return di < dj
			}
			return ks[i]>>32 < ks[j]>>32
		})
		for _, k := range ks {
			snd, rcv := int32(k>>32), int32(k&0xffffffff)
			op := get(rcv)
			op.rounds[r].recvs = append(op.rounds[r].recvs, redistMsg{peer: snd, segs: m[k]})
		}
	}
	for p, op := range ops {
		in := pinstr{op: opRedist, arg: int32(len(b.ns.redists))}
		b.ns.redists = append(b.ns.redists, op)
		if at := b.first[p]; at > 0 {
			b.ns.procs[p][at-1] = in
		} else {
			b.ns.procs[p] = append(b.ns.procs[p], in)
		}
	}
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}
