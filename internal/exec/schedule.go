// The inspector half of the batched execution engine.
//
// buildSchedule runs the inspector over one plan segment's nests under its
// schemes (walk.go), and buildPlan joins the segments' schedules by the
// scheme changes between them (change.go). What comes out of
// buildSchedule is one instruction stream per processor (redistribute /
// direct-send / reduce / eval) that the value executor (executor.go) runs
// with batched communication, deadlock-free by construction: every round
// of an exchange moves at most one vectored message per ordered pair,
// every processor sends its vectors before receiving any, and all
// per-element residual traffic follows one global order shared by all
// processors. This file holds the schedule: the streams and their
// operands, the position tables, and the reduction exchanges with the
// liveness scan that prunes their fan-out. Where an element lives is
// layout.go's, how an epoch's ships become rounds redist.go's.
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
	"slices"
	"sort"

	"dmcc/internal/core"
	"dmcc/internal/grid"
	"dmcc/internal/ir"
)

// planSchedule is the complete precomputed schedule of one run of a plan:
// one progSchedule per segment, in order, and the scheme change into each.
type planSchedule struct {
	plan []core.Segment
	segs []*progSchedule
	// changes[k] is the change into segment k: from segment k-1, or for
	// k = 0 from the last segment at an iterative program's iteration
	// boundary; nil where the run crosses none.
	changes []*changeEpoch
}

// progSchedule is the precomputed schedule of one plan segment. What it
// holds per rank, epoch, message or element is in flat, pointer-free
// arrays addressed by int32 ranges, which the collector does not scan.
type progSchedule struct {
	g  *grid.Grid
	lw *ir.Lowered
	// scalars holds the scalar values, by slot (ir.Lowered.ScalarValues).
	scalars []float64
	nprocs  int
	arrays  []arrayMeta // indexed like lw.Names
	nests   []*nestSchedule
	// plan holds the lowered redistributions of every nest's epochs and of
	// the scheme change into the segment.
	plan redistPlan
	// base holds one row of len(arrays)+1 entries per rank: where
	// each array's cell starts in the rank's store slab, then the slab's
	// length.
	base []int32
	// bufs numbers each rank's buffered copies of other ranks' elements,
	// parts each rank's partial sums of reduction accumulators: one
	// position per (rank, element) for the whole run, which is how long
	// the executor's cbuf and part are.
	bufs, parts posTable
	// vecLen[r] is the length of rank r's exchange vector: the most words
	// it sends in one redistribution message (address) or lays out in one
	// phase of a reduction (buildRoles).
	vecLen []int32
	// fw and bw back every rank's executor state (executors); parks[r]
	// says one of rank r's evals waits for a direct operand, and reads is
	// the most operands a statement of the segment has.
	fw    []float64
	bw    []bool
	parks []bool
	reads int32
	// Liveness state for fan-out pruning: redArrs marks arrays that
	// appear as a reduction LHS; events records, in program order, the
	// local reads (by a range of readers) and writes of their elements,
	// and sites every finalize's event. computeFanouts
	// scans forward (cyclically, because the program body repeats each
	// outer iteration) from each site to the element's next write and keeps
	// only the owners that actually read the total in between. The change
	// out of the segment reads last: an owner that keeps the element
	// across it reads its copy there.
	redArrs []bool
	events  []accEvent
	readers []int
	sites   []finSite
}

// posTable hands out per-rank positions, one per (rank, element) for the
// life of the table, and keeps the walk's state of each (element, rank)
// pair beside it. An element's row, in slab, lists the ranks with an
// entry, ascending — an element reaches few ranks, so a row stays short
// where a per-element array over every rank would not — and n[r] is how
// many positions rank r holds.
type posTable struct {
	rows dense[rowRef]
	slab []rankPos
	n    []int32
}

// rankPos is a rank's entry in an element's row: its position, -1 until
// the first use that needs one (a direct send makes an entry in bufs
// without one), and a tick of the builder's clock (nestBuilder.clock),
// below the nest's own tick until the nest first counts the pair in its
// NestCount. In parts that is all stamp says; in bufs it is also the
// version of the element the rank's buffered copy holds (nestBuilder.ship).
type rankPos struct {
	rank, pos int32
	stamp     uint32
}

// shortRow is the longest row entry scans in order; past it, rows (a
// reduction's contributors on a 1×1,024 grid, say) are binary-searched.
const shortRow = 8

// reset empties the table for a segment of arrays arrays on nprocs ranks.
func (t *posTable) reset(arrays, nprocs int) {
	t.rows.reset(arrays)
	t.slab, t.n = t.slab[:0], zeroed(t.n, nprocs)
}

// rowRef is a sorted per-element row kept in a flat slab: slab[at:at+n],
// with room for cap entries.
type rowRef struct{ at, n, cap int32 }

// insertAt makes room for an entry at index i of row r of *slab and
// returns it. A full row moves to the slab's end with twice its room; the
// space it leaves is not reused.
func insertAt[T any](slab *[]T, r *rowRef, i int) *T {
	if r.n == r.cap {
		var at int32
		c := max(4, 2*r.cap)
		*slab, at = extend(*slab, int(c))
		copy((*slab)[at:], (*slab)[r.at:r.at+r.n])
		r.at, r.cap = at, c
	}
	row := (*slab)[r.at : r.at+r.n+1]
	copy(row[i+1:], row[i:])
	r.n++
	return &row[i]
}

// entry is rank r's entry in e's row, made on first use. It stays valid
// until the table makes another.
func (t *posTable) entry(s *progSchedule, e elemID, r int) *rankPos {
	ref, rank := t.rows.at(s, e), int32(r)
	row := t.slab[ref.at : ref.at+ref.n]
	i := 0
	if len(row) <= shortRow {
		for i < len(row) && row[i].rank < rank {
			i++
		}
	} else {
		i, _ = slices.BinarySearchFunc(row, rank, func(p rankPos, r int32) int { return cmp.Compare(p.rank, r) })
	}
	if i < len(row) && row[i].rank == rank {
		return &row[i]
	}
	p := insertAt(&t.slab, ref, i)
	*p = rankPos{rank: rank, pos: -1}
	return p
}

// number returns the entry's position, numbering it on first use.
func (t *posTable) number(p *rankPos) int32 {
	if p.pos < 0 {
		p.pos = t.n[p.rank]
		t.n[p.rank]++
	}
	return p.pos
}

// pos returns rank r's position for e, numbering it on first use.
func (t *posTable) pos(s *progSchedule, e elemID, r int) int32 {
	return t.number(t.entry(s, e, r))
}

// accEvent is one liveness event of a reduction-accumulator element:
// either a write (finalize or plain overwrite) or a local read by the
// ranks in readers.
type accEvent struct {
	e       elemID
	write   bool
	readers span
}

// finSite is one finalize's event, and the finalize: fin of nest's fins.
type finSite struct{ event, nest, fin int32 }

func (s *progSchedule) noteRead(e elemID, readers []int) {
	lo := int32(len(s.readers))
	s.readers = append(s.readers, readers...)
	s.events = append(s.events, accEvent{e: e, readers: span{lo, int32(len(s.readers))}})
}

func (s *progSchedule) noteWrite(e elemID) {
	s.events = append(s.events, accEvent{e: e, write: true})
}

func (s *progSchedule) noteFinalize(e elemID, nest, fin int32) {
	s.noteWrite(e)
	s.sites = append(s.sites, finSite{event: int32(len(s.events) - 1), nest: nest, fin: fin})
}

// computeFanouts prunes every finalize's fan-out to the owners that are
// live readers of the total: ranks that locally read the element after
// this finalize and before its next write. The scan is cyclic — the
// program body repeats each outer iteration, so events before the site
// replay after it — and therefore conservative for the final iteration.
// The root is never in the fan-out: it always folds and stores the
// total, which keeps the ship source (owners[0]) and the first-owner
// result assembly correct even when every other owner is pruned. The
// events are put in element order by a stable sort, which keeps each
// element's in program order. ws lends the scratch.
func (s *progSchedule) computeFanouts(ws *workspace) {
	ws.order = resize(ws.order, len(s.events))
	order := ws.order
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(s.events[a].e, s.events[b].e) })
	ws.live = zeroed(ws.live, s.nprocs)
	live, stamp := ws.live, int32(0)
	for _, site := range s.sites {
		ns := s.nests[site.nest]
		f := &ns.fins[site.fin]
		e := f.elem
		lo := sort.Search(len(order), func(k int) bool { return s.events[order[k]].e >= e })
		hi := sort.Search(len(order), func(k int) bool { return s.events[order[k]].e > e })
		events := order[lo:hi]
		stamp++
		n, start := len(events), sort.Search(hi-lo, func(k int) bool { return events[k] > site.event })
		for k := 0; k < n; k++ {
			ev := &s.events[events[(start+k)%n]]
			if ev.write {
				break
			}
			for _, r := range s.readers[ev.readers.lo:ev.readers.hi] {
				live[r] = stamp
			}
		}
		f.fanout.lo = int32(len(ns.ints))
		for _, o := range s.ownersOf(e) {
			if int32(o) != f.root && live[o] == stamp {
				ns.ints = append(ns.ints, int32(o))
			}
		}
		f.fanout.hi = int32(len(ns.ints))
	}
}

// nestSchedule is one nest's schedule, built once and replayed for
// every outer iteration (the binding, and hence the walk, is identical
// across iterations).
type nestSchedule struct {
	// t is the nest's index in the program, ln its lowering and stmts its
	// statements, ln.Stmts[i] the lowering of stmts[i].
	t     int
	ln    *ir.LNest
	stmts []*ir.Stmt
	// instrs[at[r]:at[r+1]] is processor r's value-pass instruction
	// stream: flat records indexing the nest's arenas — operands holds
	// every eval's operand addresses — and the segment's plan.
	instrs   []pinstr
	at       []int32
	operands []operand
	// The reduction exchanges, their finalizes and their participants'
	// roles; every list these name is a range of ints or of peers.
	reds  []redOp
	fins  []finOp
	roles []redRole
	ints  []int32
	peers []peerWords
	// count is what one execution of the nest does: the walk tallies its
	// flops and ships, buildRoles its reductions.
	count NestCount
}

// stream is processor r's instruction stream.
func (ns *nestSchedule) stream(r int) []pinstr { return ns.instrs[ns.at[r]:ns.at[r+1]] }

// list is a range of the nest's ints.
func (ns *nestSchedule) list(s span) []int32 { return ns.ints[s.lo:s.hi] }

// pinstr is one value-pass instruction of one processor.
type pinstr struct {
	op   uint8
	role uint8
	stmt int32
	// arg is opSendDirect's receiver rank, opRed's index into reds,
	// opRedist's index into the segment plan's ops, and a roleReduce
	// opEval's position among the processor's partial sums.
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

// finOp is one finalize of a reduction accumulator: its contributors,
// ascending, with parts[k] contribs[k]'s position of the element's partial
// sum, and the root, the element's first owner. fanout is the
// liveness-pruned total-delivery set: owners other than the root that
// locally read the total before the element's next write, ascending,
// filled by computeFanouts after the walk. The lists are ranges of the
// nest's ints.
type finOp struct {
	elem                    elemID
	root                    int32
	contribs, parts, fanout span
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
	// items is the batch, a range of the nest's fins.
	items span
	ring  bool
	// parts lists the exchange's participants (contributors and owners,
	// ascending), and roles[roles+k] is what parts[k] does in it; a
	// participant's opRed carries its k.
	parts span
	roles int32
}

// redRole is one participant's part in a reduction exchange: the
// positions of the partials it sends a root other than itself, and the
// items (indices in batch order) it folds and stores as their root and
// those it receives the total of as a live reader. gather and fanout lay
// out its words on the wire; a ring uses fanout alone, for the last hop's
// deliveries and a reader's receive from it. The executor walks these,
// each in its order, never the whole batch.
type redRole struct {
	part, root, reads span
	gather, fanout    phase
}

// phase is one role's words in one phase of an exchange, in the rank's
// exchange vector (valExec.vec): the destinations ascending with their
// word counts (a range of peers), whose ranges lie in that order from 0
// (after the folded totals, for a ring's last hop), and the slot of each
// word the role sends; then the same for the sources, from 0 once the
// sends are out, and the words the role reads.
type phase struct {
	to, from span
	put, get span
}

type peerWords struct{ peer, n int32 }

// buildRoles fills every exchange's role lists, lays out each role's
// words (pack), sizes each rank's exchange vector to its longest phase,
// and counts the exchanges in their nest's count; it runs after
// computeFanouts, which decides the readers. A ring's wire words are the
// two-phase ones plus the total the last hop returns to the root, less
// the one it would deliver itself. Each exchange's lists are counted in
// one pass over its items and filled in a second. ws lends the scratch.
func (s *progSchedule) buildRoles(ws *workspace) {
	ws.at = resize(ws.at, s.nprocs)
	at := ws.at // rank -> index into the exchange's parts
	idx, list := ws.idx, ws.list
	for _, ns := range s.nests {
		cnt := &ns.count
		// pack rewrites a put or get list from peers to slots, base plus the
		// word's place in the peers' ranges, and returns the peers ascending
		// with their counts, a range of ns.peers.
		pack := func(l span, base int32) span {
			seq := ns.list(l)
			idx, list = idx[:0], list[:0]
			for j := range seq {
				idx = append(idx, int32(j))
			}
			slices.SortStableFunc(idx, func(i, j int32) int { return cmp.Compare(seq[i], seq[j]) })
			for k, j := range idx {
				if k == 0 || seq[j] != seq[idx[k-1]] {
					list = append(list, peerWords{seq[j], 0})
				}
				list[len(list)-1].n++
			}
			for k, j := range idx {
				seq[j] = base + int32(k)
			}
			lo := int32(len(ns.peers))
			ns.peers = append(ns.peers, list...)
			return span{lo, int32(len(ns.peers))}
		}
		for ri := range ns.reds {
			r := &ns.reds[ri]
			parts, items := ns.list(r.parts), ns.fins[r.items.lo:r.items.hi]
			for k, p := range parts {
				at[p] = int32(k)
			}
			ns.roles, r.roles = extend(ns.roles, len(parts))
			roles := ns.roles[r.roles:]
			// Two passes over the items visit every entry of every role's
			// lists, in the order the executor moves them: the first counts
			// them (a list's hi is its length) and the exchange's words, the
			// second, once the lists are laid out in one run of ns.ints, fills
			// them (hi is the cursor).
			total, fill := 0, false
			put := func(l *span, v int32) {
				if fill {
					ns.ints[l.hi] = v
				}
				l.hi, total = l.hi+1, total+1
			}
			for _, fill = range [2]bool{false, true} {
				if fill {
					var base int32
					ns.ints, base = extend(ns.ints, total)
					for k := range roles {
						for _, l := range roles[k].lists() {
							*l, base = span{base, base}, base+l.hi
						}
					}
				}
				for i := range items {
					f := &items[i]
					// The put and get lists take the peer of each word.
					root, contribs, fanout := &roles[at[f.root]], ns.list(f.contribs), ns.list(f.fanout)
					sender, src := root, f.root // of a live reader's total
					if last := contribs[len(contribs)-1]; r.ring {
						sender, src = &roles[at[last]], last
					} else {
						put(&root.root, int32(i))
					}
					for k, c := range contribs {
						if c != f.root && !r.ring {
							role := &roles[at[c]]
							put(&role.part, ns.ints[f.parts.lo+int32(k)])
							put(&role.gather.put, f.root)
							put(&root.gather.get, c)
						}
						if c != f.root && !fill {
							cnt.Words++
						}
					}
					for _, o := range fanout {
						reader := &roles[at[o]]
						put(&reader.reads, int32(i))
						if o != src { // a ring's last hop stores its own
							put(&sender.fanout.put, o)
							put(&reader.fanout.get, src)
						}
					}
					if !fill {
						cnt.CombineFlops += int64(len(contribs))
						cnt.FanoutWords += int64(len(fanout))
						cnt.Words += int64(len(fanout))
						if r.ring && !slices.Contains(fanout, contribs[len(contribs)-1]) {
							cnt.Words++
						}
					}
				}
			}
			chain := ns.list(items[0].contribs)
			for k, p := range parts {
				role, base, need := &roles[k], 0, 0
				if r.ring && slices.Contains(chain, p) {
					need = len(items) // the folded totals, before a last hop's deliveries
					if p == chain[len(chain)-1] {
						base = need
					}
				}
				role.gather.to, role.gather.from = pack(role.gather.put, 0), pack(role.gather.get, 0)
				role.fanout.to, role.fanout.from = pack(role.fanout.put, int32(base)), pack(role.fanout.get, 0)
				need = max(need, role.gather.put.n(), role.gather.get.n(), base+role.fanout.put.n(), role.fanout.get.n())
				s.vecLen[p] = max(s.vecLen[p], int32(need))
			}
		}
	}
	ws.idx, ws.list = idx, list
}

// lists are the role's seven lists, which buildRoles lays out in one run.
func (r *redRole) lists() [7]*span {
	return [7]*span{&r.part, &r.root, &r.reads, &r.gather.put, &r.gather.get, &r.fanout.put, &r.fanout.get}
}

// ringEligible reports whether a mid-epoch batch can be ring-lowered:
// every item must share one contributor chain of length >= 3 that
// starts at the shared root (so the chain's first hop has the stored
// value to fold first and the fold order matches the star's).
func (ns *nestSchedule) ringEligible(items []finOp) bool {
	f0 := &items[0]
	chain := ns.list(f0.contribs)
	if len(chain) < 3 || chain[0] != f0.root {
		return false
	}
	for i := range items[1:] {
		f := &items[1+i]
		if f.root != f0.root || !slices.Equal(ns.list(f.contribs), chain) {
			return false
		}
	}
	return true
}

// buildPlan builds the schedule of a plan in ws, in place of the one it
// held: each segment's, then the change into each segment, which the
// changes' keeper reads must precede the fan-out pruning of every
// segment.
func buildPlan(lw *ir.Lowered, segs []core.Segment, scalars map[string]float64, ws *workspace) (*planSchedule, error) {
	sv, err := lw.ScalarValues(scalars)
	if err != nil {
		return nil, err
	}
	pl := &ws.plan
	pl.plan, pl.segs = segs, reuse(pl.segs, len(segs))
	ws.changes, pl.changes = reuse(ws.changes, len(segs)), zeroed(pl.changes, len(segs))
	for k, seg := range segs {
		if err := pl.segs[k].build(lw, seg, sv, ws); err != nil {
			return nil, err
		}
	}
	for k := 1; k < len(segs); k++ {
		pl.changes[k] = redistEpoch(ws.changes[k], pl.segs[k-1], pl.segs[k], ws)
	}
	if len(segs) > 1 && lw.Program.Iterative {
		pl.changes[0] = redistEpoch(ws.changes[0], pl.segs[len(segs)-1], pl.segs[0], ws)
	}
	for _, s := range pl.segs {
		s.computeFanouts(ws)
		s.buildRoles(ws)
	}
	return pl, nil
}

// build runs the inspector over the nests of one plan segment, which lw
// lowers, under the segment's schemes, into s, reset in place: finalizes
// lower to vectored two-phase / ring exchanges, and each epoch's operand
// ships to one composed collective redistribution, lowered with ws's
// scratch. lw is checked (ir.Program.LowerChecked), so every subscript
// lies inside its array. The fan-outs are buildPlan's to prune.
func (s *progSchedule) build(lw *ir.Lowered, seg core.Segment, scalars []float64, ws *workspace) error {
	ss := seg.Schemes
	s.g, s.lw, s.scalars, s.nprocs = ss.Grid, lw, scalars, ss.Grid.Size()
	s.arrays = resize(s.arrays, len(lw.Names))
	s.redArrs, s.vecLen = zeroed(s.redArrs, len(lw.Names)), zeroed(s.vecLen, s.nprocs)
	s.parks = zeroed(s.parks, s.nprocs)
	s.plan.reset()
	s.events, s.readers, s.sites = s.events[:0], s.readers[:0], s.sites[:0]
	for a, name := range lw.Names {
		am := &s.arrays[a]
		am.name, am.ext, am.size = name, lw.Shapes[a], 1
		for _, e := range am.ext {
			am.size *= e
		}
		if err := am.lay.build(am.ext, ss.Schemes[name], ss.Grid); err != nil {
			return fmt.Errorf("exec: array %s: %w", name, err)
		}
	}
	s.base = resize(s.base, s.nprocs*(len(s.arrays)+1))
	for r := range s.nprocs {
		row := s.row(r)
		row[0] = 0
		for a := range s.arrays {
			row[a+1] = row[a] + int32(s.arrays[a].lay.storeLen(r))
		}
	}
	s.bufs.reset(len(s.arrays), s.nprocs)
	s.parts.reset(len(s.arrays), s.nprocs)
	nests := lw.Program.Nests[seg.Start-1 : seg.Start-1+seg.Len]
	for _, nest := range nests {
		for _, st := range nest.Stmts {
			if st.Reduce {
				s.redArrs[lw.Array(st.LHS.Array)] = true
			}
		}
	}
	s.nests = reuse(s.nests, len(nests))
	ws.builder.clock = 0
	for t := range nests {
		s.buildNest(s.nests[t], seg.Start-1+t, t, ws)
	}
	for r := range s.nprocs {
		if n := max(s.storeWords(r), int(s.bufs.n[r]), int(s.parts.n[r])); n >= maxLocal {
			return fmt.Errorf("exec: rank %d needs %d local addresses of one kind, more than an operand holds", r, n)
		}
	}
	return nil
}

// row is rank r's row of base: where each array's cell starts in the
// rank's store slab, which holds the rank's cells of every array in array
// order, and last the slab's length.
func (s *progSchedule) row(r int) []int32 {
	n := len(s.arrays) + 1
	return s.base[r*n : (r+1)*n]
}

// storeWords is the total length of rank r's local stores.
func (s *progSchedule) storeWords(r int) int { return int(s.row(r)[len(s.arrays)]) }

// slabOff is element e's offset in rank r's store slab, and whether r
// holds e (the offset means nothing otherwise).
func (s *progSchedule) slabOff(r int, e elemID) (int32, bool) {
	i, held := s.arrays[e.arr()].lay.local(r, e.off())
	return s.base[r*(len(s.arrays)+1)+e.arr()] + i, held
}

// ownersOf is the owner list of an element.
func (s *progSchedule) ownersOf(e elemID) []int { return s.arrays[e.arr()].lay.owners(e.off()) }
