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

// progSchedule is the precomputed schedule of one plan segment.
type progSchedule struct {
	g       *grid.Grid
	lw      *ir.Lowered
	scalars map[string]float64
	nprocs  int
	arrays  []arrayMeta // indexed like lw.Names
	nests   []*nestSchedule
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
	// Liveness state for fan-out pruning: redArrs marks arrays that
	// appear as a reduction LHS; acc records, per element of
	// those arrays, the program-order sequence of local-read and write
	// events; sites lists every finalize with its position in that
	// sequence. computeFanouts scans forward (cyclically, because the
	// program body repeats each outer iteration) from each site to the
	// element's next write and keeps only the owners that actually read
	// the total in between. The change out of the segment reads last: an
	// owner that keeps the element across it reads its copy there.
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
	s.noteWrite(e)
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
	loops []ir.LLoop
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
	// count is what one execution of the nest does: the walk tallies its
	// flops and ships, buildRoles its reductions.
	count NestCount
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

// redRole is one participant's part in a reduction exchange: the
// positions of the partials it sends a root other than itself, and the
// items (indices in batch order) it folds and stores as their root and
// those it receives the total of as a live reader. gather and fanout lay
// out its words on the wire; a ring uses fanout alone, for the last hop's
// deliveries and a reader's receive from it. The executor walks these,
// each in its order, never the whole batch.
type redRole struct {
	part, root, reads []int32
	gather, fanout    phase
}

// phase is one role's words in one phase of an exchange, in the rank's
// exchange vector (valExec.vec): the destinations ascending with their
// word counts, whose ranges lie in that order from 0 (after the folded
// totals, for a ring's last hop), and the slot of each word the role
// sends; then the same for the sources, from 0 once the sends are out,
// and the words the role reads.
type phase struct {
	to, from []peerWords
	put, get []int32
}

type peerWords struct{ peer, n int32 }

// buildRoles fills every exchange's role lists, lays out each role's
// words (pack), sizes each rank's exchange vector to its longest phase,
// and counts the exchanges in their nest's count; it runs after
// computeFanouts, which decides the readers. A ring's wire words are the
// two-phase ones plus the total the last hop returns to the root, less
// the one it would deliver itself.
func (s *progSchedule) buildRoles() {
	at := make([]int32, s.nprocs) // rank -> index into the exchange's parts
	var idx []int32
	var peers, list []peerWords
	// pack rewrites a put or get list from peers to slots, base plus the
	// word's place in the peers' ranges, and returns the peers ascending
	// with their counts.
	pack := func(seq []int32, base int32) []peerWords {
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
		return append(carve(&peers, len(list))[:0], list...)
	}
	for _, ns := range s.nests {
		cnt := &ns.count
		for _, r := range ns.reds {
			for k, p := range r.parts {
				at[p] = int32(k)
			}
			r.roles = make([]redRole, len(r.parts))
			for i, f := range r.items {
				// The put and get lists take the peer of each word, in the
				// order the executor moves them.
				root := &r.roles[at[f.root]]
				sender, src := root, int32(f.root) // of a live reader's total
				if r.ring {
					last := f.contribs[len(f.contribs)-1]
					sender, src = &r.roles[at[last]], int32(last)
				} else {
					root.root = append(root.root, int32(i))
				}
				for k, c := range f.contribs {
					if c == f.root {
						continue
					}
					cnt.Words++
					if !r.ring {
						role := &r.roles[at[c]]
						role.part = append(role.part, f.parts[k])
						role.gather.put = append(role.gather.put, int32(f.root))
						root.gather.get = append(root.gather.get, int32(c))
					}
				}
				for _, o := range f.fanout {
					reader := &r.roles[at[o]]
					reader.reads = append(reader.reads, int32(i))
					if int32(o) != src { // a ring's last hop stores its own
						sender.fanout.put = append(sender.fanout.put, int32(o))
						reader.fanout.get = append(reader.fanout.get, src)
					}
				}
				cnt.CombineFlops += int64(len(f.contribs))
				cnt.FanoutWords += int64(len(f.fanout))
				cnt.Words += int64(len(f.fanout))
				if r.ring && !slices.Contains(f.fanout, f.contribs[len(f.contribs)-1]) {
					cnt.Words++
				}
			}
			chain := r.items[0].contribs
			for k, p := range r.parts {
				role, base, need := &r.roles[k], 0, 0
				if r.ring && slices.Contains(chain, p) {
					need = len(r.items) // the folded totals, before a last hop's deliveries
					if p == chain[len(chain)-1] {
						base = need
					}
				}
				role.gather.to, role.gather.from = pack(role.gather.put, 0), pack(role.gather.get, 0)
				role.fanout.to, role.fanout.from = pack(role.fanout.put, int32(base)), pack(role.fanout.get, 0)
				need = max(need, len(role.gather.put), len(role.gather.get), base+len(role.fanout.put), len(role.fanout.get))
				s.vecLen[p] = max(s.vecLen[p], int32(need))
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
		if f.root != f0.root || !slices.Equal(f.contribs, f0.contribs) {
			return false
		}
	}
	return true
}

// buildPlan builds the schedule of a plan: each segment's, then the
// change into each segment, which the changes' keeper reads must precede
// the fan-out pruning of every segment.
func buildPlan(lw *ir.Lowered, segs []core.Segment, scalars map[string]float64, low *lowering) (*planSchedule, error) {
	pl := &planSchedule{plan: segs, segs: make([]*progSchedule, len(segs)), changes: make([]*changeEpoch, len(segs))}
	for k, seg := range segs {
		s, err := buildSchedule(lw, seg, scalars, low)
		if err != nil {
			return nil, err
		}
		pl.segs[k] = s
	}
	for k := 1; k < len(segs); k++ {
		pl.changes[k] = redistEpoch(pl.segs[k-1], pl.segs[k], low)
	}
	if len(segs) > 1 && lw.Program.Iterative {
		pl.changes[0] = redistEpoch(pl.segs[len(segs)-1], pl.segs[0], low)
	}
	for _, s := range pl.segs {
		s.computeFanouts()
		s.buildRoles()
	}
	return pl, nil
}

// buildSchedule runs the inspector over the nests of one plan segment,
// which lw lowers, under the segment's schemes: finalizes lower to
// vectored two-phase / ring exchanges, and each epoch's operand ships to
// one composed collective redistribution, lowered with low's scratch. A
// subscript outside its array is an error. The fan-outs are buildPlan's
// to prune.
func buildSchedule(lw *ir.Lowered, seg core.Segment, scalars map[string]float64, low *lowering) (*progSchedule, error) {
	ss := seg.Schemes
	s := &progSchedule{
		g: ss.Grid, lw: lw, scalars: scalars,
		nprocs:  ss.Grid.Size(),
		arrays:  make([]arrayMeta, len(lw.Names)),
		redArrs: make([]bool, len(lw.Names)),
		acc:     make(map[elemID][]accEvent),
		vecLen:  make([]int32, ss.Grid.Size()),
	}
	for a, name := range lw.Names {
		am := &s.arrays[a]
		*am = arrayMeta{name: name, ext: lw.Shapes[a], size: 1}
		for _, e := range am.ext {
			am.size *= e
		}
		var err error
		if am.lay, err = newLayout(am.ext, ss.Schemes[name], ss.Grid); err != nil {
			return nil, fmt.Errorf("exec: array %s: %w", name, err)
		}
	}
	s.base = make([]int32, s.nprocs*(len(s.arrays)+1))
	for r := range s.nprocs {
		row := s.row(r)
		for a := range s.arrays {
			row[a+1] = row[a] + int32(s.arrays[a].lay.storeLen(r))
		}
	}
	s.bufs = posTable{rows: make(dense[[]rankPos], len(s.arrays)), n: make([]int32, s.nprocs)}
	s.parts = posTable{rows: make(dense[[]rankPos], len(s.arrays)), n: make([]int32, s.nprocs)}
	nests := lw.Program.Nests[seg.Start-1 : seg.Start-1+seg.Len]
	for _, nest := range nests {
		for _, st := range nest.Stmts {
			if st.Reduce {
				s.redArrs[lw.Array(st.LHS.Array)] = true
			}
		}
	}
	s.nests = make([]*nestSchedule, len(nests))
	for t := range nests {
		ns, err := s.buildNest(seg.Start-1+t, low)
		if err != nil {
			return nil, err
		}
		s.nests[t] = ns
	}
	for r := range s.nprocs {
		if n := max(s.storeWords(r), int(s.bufs.n[r]), int(s.parts.n[r])); n >= maxLocal {
			return nil, fmt.Errorf("exec: rank %d needs %d local addresses of one kind, more than an operand holds", r, n)
		}
	}
	return s, nil
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
