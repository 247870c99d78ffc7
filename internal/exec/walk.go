// The inspector's walk. buildNest walks each nest's iteration space
// exactly once per (nest, env-binding) — not once per processor per
// iteration like the per-element engine — and lists, for every ordered
// processor pair, the elements crossing the wire. The walk is cut into
// epochs: within an epoch no shipped element is written, so all of an
// epoch's pair traffic can be hoisted to the epoch boundary and sent as
// one vectored machine.Send per pair (the inspector/executor move of
// Li & Chen's communication-set generation; message vectorization in
// the Gupta & Banerjee lineage).
//
// The hot path works on integers only: each nest is lowered once
// (ir.Program.Lower, lower.go) to slot-indexed affine forms and array ids,
// and elements are elemID integers (array id + row-major offset). Names
// and "arr!i,j" strings survive only at the ir.Storage boundary.

package exec

import (
	"slices"
)

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
	// The nest's instructions go to an arena (lowering.chunks), which
	// holds emitted of them, n[p] for rank p, and which cut splits into
	// the ranks' streams at nest end.
	emitted int
	n       []int32
	// first[p] is one past the arena slot p reserves for the current
	// epoch's opRedist, 0 until p's first instruction of the epoch;
	// traffic lists the epoch's batched ships in ship order, and low is
	// the scratch closeEpoch lowers them with.
	first   []int32
	traffic []epochShip
	low     *lowering
	// seen holds three planes of one bit per rank for each element e
	// (firstMark). The first, liveCopy, dedups batched ships: bit dst
	// marks that dst holds a live buffered copy of e (its source is always
	// e's first owner, so the destination alone names the pair) and a
	// repeat ship would carry the same value and one copy suffices. A
	// write of e clears it (the buffered copies go stale),
	// which makes the dedup window every ship since the element's last
	// write — spanning epoch cuts, not reset by them: the surviving
	// ship's value is gathered at its own epoch boundary, before any
	// write that could invalidate it. Every read of a copy, deduped or
	// not, is the destination's one position for e (progSchedule.bufs),
	// which each ship of e to it refills. The other two, which no write
	// clears, are the nest's distinct pairs NestCount counts.
	seen  dense[[]uint64]
	words int // the words of one plane
	// flops[r] is rank r's statement flops in the nest.
	flops []int64
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

func (s *progSchedule) buildNest(t int, low *lowering) (*nestSchedule, error) {
	ns := &nestSchedule{procs: make([][]pinstr, s.nprocs)}
	if err := s.lowerNest(t, ns); err != nil {
		return nil, err
	}
	b := &nestBuilder{
		s: s, ns: ns,
		iv:      make([]int, len(ns.loops)),
		pending: make(map[elemID][]int),
		written: make(dense[uint32], len(s.arrays)),
		epoch:   1,
		n:       make([]int32, s.nprocs),
		first:   make([]int32, s.nprocs),
		low:     low,
		seen:    make(dense[[]uint64], len(s.arrays)),
		words:   (s.nprocs + 63) / 64,
		flops:   make([]int64, s.nprocs),
	}
	if err := b.walk(0); err != nil {
		return nil, err
	}
	for _, f := range b.flops {
		ns.count.TotalFlops += f
		ns.count.MaxProcFlops = max(ns.count.MaxProcFlops, f)
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
	b.cut()
	return ns, nil
}

// walk visits the iteration space below loop level in program order:
// the level's statements before the inner loop, the loop, then the
// statements after it.
func (b *nestBuilder) walk(level int) error {
	for _, post := range [2]bool{false, true} {
		if post && level < len(b.ns.loops) {
			l := &b.ns.loops[level]
			for v, hi := l.Lo.At(b.iv), l.Hi.At(b.iv); (hi-v)*l.Step >= 0; v += l.Step {
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
		b.push(p, pinstr{})
		b.first[p] = int32(b.emitted)
	}
	b.push(p, in)
}

// rankedInstr is one arena entry: an instruction and its rank.
type rankedInstr struct {
	in   pinstr
	rank int32
}

const chunkBits = 10 // an arena chunk holds 1024 entries

// slot is the nest's i-th arena entry.
func (b *nestBuilder) slot(i int) *rankedInstr {
	return &b.low.chunks[i>>chunkBits][i&(1<<chunkBits-1)]
}

// push appends in to the nest's arena, for p. The arena grows a chunk at a
// time, so no entry is ever copied before cut.
func (b *nestBuilder) push(p int, in pinstr) {
	if b.emitted>>chunkBits == len(b.low.chunks) {
		b.low.chunks = append(b.low.chunks, make([]rankedInstr, 1<<chunkBits))
	}
	*b.slot(b.emitted) = rankedInstr{in, int32(p)}
	b.emitted++
	b.n[p]++
}

// cut splits the nest's arena into the processors' streams, each in its
// order, out of one allocation.
func (b *nestBuilder) cut() {
	all, off := make([]pinstr, b.emitted), 0
	for p, n := range b.n {
		b.ns.procs[p] = all[off : off : off+int(n)]
		off += int(n)
	}
	for i := range b.emitted {
		e := b.slot(i)
		b.ns.procs[e.rank] = append(b.ns.procs[e.rank], e.in)
	}
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
		src := s.ownersOf(e)[0]
		for xi, ex := range executors {
			if off, held := s.slabOff(ex, e); held {
				b.ops[xi*nr+ri] = opdOwned | operand(off)
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
	// root's job, not the reader's copy), and overwrites. Of a reduction's
	// executors only the contributor evaluates; replicas just drain their
	// direct operands.
	evaluators := executors
	if st.Reduce {
		evaluators = executors[:1]
	}
	for _, e := range b.readElem {
		if !s.redArrs[e.arr()] || (st.Reduce && e == lhsElem) {
			continue
		}
		owners := s.ownersOf(e)
		b.readers = b.readers[:0]
		for _, ex := range evaluators {
			if slices.Contains(owners, ex) {
				b.readers = append(b.readers, ex)
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
	cnt := &b.ns.count
	for _, sh := range b.ships {
		if b.firstMark(sh.e, shippedTo, sh.ex) {
			cnt.RemoteWords++
		}
		if *b.written.at(s, sh.e) == b.epoch {
			b.emit(int(sh.src), pinstr{op: opSendDirect, arg: sh.ex, elem: sh.e})
			b.ops[sh.at] = opdDirect | operand(sh.src)
			cnt.Words++
			continue
		}
		if b.firstMark(sh.e, liveCopy, sh.ex) {
			b.traffic = append(b.traffic, epochShip{pairKey(sh.src, sh.ex), sh.e})
			cnt.Words++
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
		if i, ok := slices.BinarySearch(list, contrib); !ok {
			b.pending[lhsElem] = slices.Insert(list, i, contrib)
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
// copied into the nest's operand arena, and counts p's flops if it
// evaluates.
func (b *nestBuilder) emitEval(p int, in pinstr, ops []operand) {
	in.off = int32(len(b.ns.operands))
	b.ns.operands = append(grow(b.ns.operands, len(ops)), ops...)
	b.emit(p, in)
	if in.role != roleRecvOnly {
		b.flops[p] += int64(b.ns.stmts[in.stmt].Flops)
	}
	if b.low.evalTap != nil {
		b.low.evalTap(b.ns, p, int(b.n[p])-1, b.iv[:b.ns.stmts[in.stmt].Depth])
	}
}

// The planes of nestBuilder.seen: the live copies, the executors e was
// shipped to, and the contributors whose partial of e was combined at a
// root other than them.
const (
	liveCopy = iota
	shippedTo
	combinedFrom
)

// firstMark sets rank r's bit of e in a plane of seen and reports whether
// it was clear.
func (b *nestBuilder) firstMark(e elemID, plane int, r int32) bool {
	bits := b.seen.at(b.s, e)
	if *bits == nil {
		*bits = make([]uint64, 3*b.words)
	}
	w, m := &(*bits)[plane*b.words+int(r>>6)], uint64(1)<<(r&63)
	first := *w&m == 0
	*w |= m
	return first
}

// markWritten records a write of e in the current epoch and drops its
// ship-dedup window: the buffered copies are stale from here on.
func (b *nestBuilder) markWritten(e elemID) {
	*b.written.at(b.s, e) = b.epoch
	bits := *b.seen.at(b.s, e)
	clear(bits[:min(len(bits), b.words)]) // the liveCopy plane
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
		if c != f.root && b.firstMark(e, combinedFrom, int32(c)) {
			b.ns.count.ReduceWords++
		}
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
		for _, ps := range [2][]int{f.contribs, f.owners} {
			for _, p := range ps {
				if i, ok := slices.BinarySearch(r.parts, p); !ok {
					r.parts = slices.Insert(r.parts, i, p)
				}
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
				b.slot(int(at) - 1).in = in
			} else {
				b.push(int(p), in)
			}
		}
		b.traffic = b.traffic[:0]
	}
	clear(b.first)
	b.epoch++
}

// address writes every segment's addresses (see redistSeg) into the
// nest's addrs arena, and sizes each sender's exchange vector to its
// messages. A segment is shared by its message's two ends and
// addressed once, from the send. Every receiver, relays included, is a
// destination of the segment's elements, so their positions were numbered
// when the ships were listed.
func (b *nestBuilder) address(ranks []int32, ops []redistOp) {
	s := b.s
	for i := range ops {
		snd := int(ranks[i])
		for r := range ops[i].rounds {
			for _, msg := range ops[i].rounds[r].sends {
				words := int32(0)
				for k := range msg.segs {
					seg := &msg.segs[k]
					words += int32(len(seg.elems))
					seg.addr = int32(len(b.ns.addrs))
					b.ns.addrs = grow(b.ns.addrs, 2*len(seg.elems))
					for _, e := range seg.elems {
						if snd == int(seg.origin) {
							off, _ := s.slabOff(snd, e)
							b.ns.addrs = append(b.ns.addrs, off)
						} else {
							b.ns.addrs = append(b.ns.addrs, s.bufs.pos(s, e, snd))
						}
					}
					for _, e := range seg.elems {
						b.ns.addrs = append(b.ns.addrs, s.bufs.pos(s, e, int(msg.peer)))
					}
				}
				s.vecLen[snd] = max(s.vecLen[snd], words)
			}
		}
	}
}
