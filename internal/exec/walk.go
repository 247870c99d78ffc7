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
// The hot path works on integers only, and an instance is a few table
// reads. The walk is ir.LNest.Walk over the program's checked lowering
// (ir.Program.LowerChecked), which visits each loop level's statement
// lists; each reference names its element as an elemID (array id +
// row-major offset) by one affine form of the loop vector, ir.LRef.Flat,
// unchecked because RangeAt has proved every subscript inside its extent.
// A ship's source and a finalize's root are the element's first owner,
// which the layout's cell table holds (layout.first), and what the walk
// knows of an (element, rank) pair — counted in the nest, holding a live
// copy — sits beside the rank's position in the element's row (rankPos).
// The lowering's postfix right-hand sides are what the executor evaluates
// over operand values. Names and "arr!i,j" strings survive only at the
// ir.Storage boundary.

package exec

import "slices"

// nestBuilder is the inspector's per-nest state, a workspace's, reset for
// each nest it builds.
type nestBuilder struct {
	s  *progSchedule
	ns *nestSchedule
	// iv is the loop vector: slot k holds loop k's current value.
	iv  []int
	idx int32 // the nest's index in its segment
	// pending holds each reduction accumulator's sorted contributor ranks,
	// mirroring engine.pending (globally, not per processor), a row of
	// contribs; pendElems lists every element whose row was empty when a
	// contributor joined it.
	pending   dense[rowRef]
	contribs  []int32
	pendElems []elemID
	// written stamps each element the nest writes with the epoch of its
	// last write: a batched ship of an element written earlier in the
	// current epoch would gather a stale value at the epoch boundary, so
	// it either cuts the epoch (write from an earlier instance) or
	// degrades to a direct send (write by this instance's own finalizes,
	// which no cut can hoist past). It also holds the write's tick of
	// clock, the element's version (version).
	written dense[writeMark]
	epoch   uint32
	// clock ticks once per nest, whose tick is nest, and once per write;
	// it restarts with every segment's build, as the position tables
	// holding its stamps do (rankPos).
	clock, nest uint32
	// The nest's instructions go to its instrs in emission order, rank[i]
	// the rank instruction i is for and n[p] how many are p's, and cut
	// puts them in the ranks' streams at nest end.
	rank []int32
	n    []int32
	// first[p] is one past the instruction slot p reserves for the current
	// epoch's opRedist, 0 until p's first instruction of the epoch;
	// traffic lists the epoch's batched ships in ship order, and ws holds
	// the lowering closeEpoch lowers them with.
	first   []int32
	traffic []epochShip
	ws      *workspace
	// flops[r] is rank r's statement flops in the nest.
	flops []int64
	// scratch; ops[xi*len(reads)+ri] is executor xi's operand ri
	readElem []elemID
	ships    []shipT
	ops      []operand
	forced   []elemID
	readers  []int
	parts    []int32
}

// writeMark is an element's last write in the nest: its epoch and its
// tick of the builder's clock.
type writeMark struct{ epoch, tick uint32 }

// shipT is one remote operand: e from its first owner src to executor ex,
// whose operand is ops[at].
type shipT struct {
	src, ex, at int32
	e           elemID
}

// buildNest builds the schedule of program nest t, the segment's idx-th,
// into ns, reset in place, with ws's builder.
func (s *progSchedule) buildNest(ns *nestSchedule, t, idx int, ws *workspace) {
	ns.t, ns.ln, ns.stmts = t, &s.lw.Nests[t], s.lw.Program.Nests[t].Stmts
	ns.operands, ns.reds, ns.fins, ns.roles = ns.operands[:0], ns.reds[:0], ns.fins[:0], ns.roles[:0]
	ns.ints, ns.peers, ns.count = ns.ints[:0], ns.peers[:0], NestCount{}
	b := &ws.builder
	b.s, b.ns, b.idx, b.ws = s, ns, int32(idx), ws
	b.iv = resize(b.iv, len(ns.ln.Loops))
	b.pending.reset(len(s.arrays))
	b.written.reset(len(s.arrays))
	b.contribs, b.pendElems, b.traffic = b.contribs[:0], b.pendElems[:0], b.traffic[:0]
	ns.instrs, b.rank = ns.instrs[:0], b.rank[:0]
	b.epoch, b.clock = 1, b.clock+1
	b.nest = b.clock
	b.n, b.first, b.flops = zeroed(b.n, s.nprocs), zeroed(b.first, s.nprocs), zeroed(b.flops, s.nprocs)
	ns.ln.Walk(b.iv, b.instance)
	for _, f := range b.flops {
		ns.count.TotalFlops += f
		ns.count.MaxProcFlops = max(ns.count.MaxProcFlops, f)
	}
	// Combine reductions still pending at nest end. Nest-end finalizes are
	// hoistable: no later statement of the nest reads them, so the whole
	// set coalesces into one vectored exchange, in element order.
	elems := slices.DeleteFunc(b.pendElems, func(e elemID) bool { return !b.isPending(e) })
	slices.Sort(elems)
	b.emitBatch(slices.Compact(elems), false)
	b.closeEpoch()
	b.cut()
}

// emit appends in to processor p's stream, reserving in front of p's
// first instruction of an epoch the slot closeEpoch fills with the
// epoch's opRedist — the exchange runs first and no stream is copied.
func (b *nestBuilder) emit(p int, in pinstr) {
	if b.first[p] == 0 {
		b.push(p, pinstr{})
		b.first[p] = int32(len(b.rank))
	}
	b.push(p, in)
}

// push appends in to the nest's instructions, for p.
func (b *nestBuilder) push(p int, in pinstr) {
	b.ns.instrs = append(grow(b.ns.instrs, 1), in)
	b.rank = append(grow(b.rank, 1), int32(p))
	b.n[p]++
}

// cut puts the nest's instructions in the processors' streams, each in
// its order, runs of one array: rank[i] becomes instruction i's place,
// and the instructions move there in place, a cycle at a time.
func (b *nestBuilder) cut() {
	ns, dest := b.ns, b.rank
	ns.at = resize(ns.at, len(b.n)+1)
	ns.at[0] = 0
	for p, n := range b.n {
		ns.at[p+1] = ns.at[p] + n
		b.n[p] = ns.at[p] // p's cursor
	}
	for i, p := range dest {
		dest[i] = b.n[p]
		b.n[p]++
	}
	for i := range dest {
		for j := dest[i]; int(j) != i; j = dest[i] {
			ns.instrs[i], ns.instrs[j] = ns.instrs[j], ns.instrs[i]
			dest[i], dest[j] = dest[j], j
		}
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
// to the per-processor streams. It never fails: the walk runs on a checked
// lowering, so every element it names lies inside its array.
// The decomposition (forced finalizes, executor set, ship list,
// pending bookkeeping, evaluation) replicates engine.instance exactly.
func (b *nestBuilder) instance(si int) error {
	s, st, ls := b.s, b.ns.stmts[si], &b.ns.ln.Stmts[si]

	// Resolve the written element and the read elements.
	lhsElem := mkElem(ls.LHS.Array, ls.LHS.Flat.At(b.iv))
	b.readElem = b.readElem[:0]
	for ri := range ls.Reads {
		r := &ls.Reads[ri]
		b.readElem = append(b.readElem, mkElem(r.Array, r.Flat.At(b.iv)))
	}

	// Executor set: anchor owners for reductions, LHS owners otherwise.
	executors := s.ownersOf(lhsElem)
	if ls.Anchor >= 0 {
		executors = s.ownersOf(b.readElem[ls.Anchor])
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
		src := s.arrays[e.arr()].lay.first(e.off())
		for xi, ex := range executors {
			if off, held := s.slabOff(ex, e); held {
				b.ops[xi*nr+ri] = opdOwned | operand(off)
				continue
			}
			b.ships = append(b.ships, shipT{src: src, ex: int32(ex), at: int32(xi*nr + ri), e: e})
		}
	}

	// Epoch cut: a shipped element written by an earlier instance of
	// this epoch would be gathered stale at the epoch boundary, so the
	// boundary moves here, before this whole instance.
	for _, sh := range b.ships {
		if b.written.at(s, sh.e).epoch == b.epoch {
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
		if b.isPending(e) && !slices.Contains(b.forced, e) {
			b.forced = append(b.forced, e)
		}
	}
	if b.isPending(lhsElem) && !st.Reduce && !slices.Contains(b.forced, lhsElem) {
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

	// Emit the ships, in the global lockstep order.
	for _, sh := range b.ships {
		b.ship(sh)
	}

	in := pinstr{op: opEval, stmt: int32(si), elem: lhsElem}
	if st.Reduce {
		// Record the contributor; only it evaluates (into its partial
		// sum, which its accumulator operands read), but every executor
		// still receives its direct operands, exactly like the
		// per-element engine.
		contrib := executors[0]
		ref := b.pending.at(s, lhsElem)
		if i, ok := slices.BinarySearch(b.contribs[ref.at:ref.at+ref.n], int32(contrib)); !ok {
			if ref.n == 0 {
				b.pendElems = append(b.pendElems, lhsElem)
			}
			*insertAt(&b.contribs, ref, i) = int32(contrib)
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
	if slices.ContainsFunc(ops, func(o operand) bool { return o.kind() == opdDirect }) {
		b.s.parks[p] = true
	}
	b.emit(p, in)
	if in.role != roleRecvOnly {
		b.flops[p] += int64(b.ns.stmts[in.stmt].Flops)
	}
	if b.ws.evalTap != nil {
		b.ws.evalTap(b.ns, p, int(b.n[p])-1, b.iv[:b.ns.stmts[in.stmt].Depth])
	}
}

// ship emits one ship: an epoch-batched pair entry or — for an element
// this instance's own finalizes just wrote — a residual direct send. The
// pair's entry in bufs says whether the nest counted it already (its stamp
// is below the nest's tick until then) and whether the executor's buffered
// copy is live (its stamp is the element's version): a batched ship of
// the version the copy holds would carry the same value, and one copy
// suffices (its source is always e's first owner, so the executor alone
// names the pair). That makes the dedup window every ship since the
// element's last write — spanning epoch cuts, not reset by them: the
// surviving ship's value is gathered at its own epoch boundary, before
// any write that could invalidate it. Every read of a copy, deduped or
// not, is the executor's one position for e, which each ship of e to it
// refills. A direct send stamps a pair it counts with the nest's tick,
// which is no version of an element written in the nest.
func (b *nestBuilder) ship(sh shipT) {
	s, cnt := b.s, &b.ns.count
	ent := s.bufs.entry(s, sh.e, int(sh.ex))
	first := ent.stamp < b.nest
	if first {
		cnt.RemoteWords++
	}
	if b.written.at(s, sh.e).epoch == b.epoch {
		if first {
			ent.stamp = b.nest
		}
		b.emit(int(sh.src), pinstr{op: opSendDirect, arg: sh.ex, elem: sh.e})
		b.ops[sh.at] = opdDirect | operand(sh.src)
		cnt.Words++
		return
	}
	if v := b.version(sh.e); ent.stamp != v {
		ent.stamp = v
		b.traffic = append(b.traffic, epochShip{pairKey(sh.src, sh.ex), sh.e})
		cnt.Words++
	}
	b.ops[sh.at] = opdBuffered | operand(s.bufs.number(ent))
}

// version is e's version in the nest: the clock's tick at its last
// write, or the nest's own tick before any. A buffered copy made under
// another version, in an earlier nest or before a write, is stale.
func (b *nestBuilder) version(e elemID) uint32 {
	if t := b.written.at(b.s, e).tick; t != 0 {
		return t
	}
	return b.nest
}

// markWritten records a write of e in the current epoch under a new
// version, which ends its ship-dedup window: the buffered copies are
// stale from here on.
func (b *nestBuilder) markWritten(e elemID) {
	b.clock++
	*b.written.at(b.s, e) = writeMark{b.epoch, b.clock}
}

// isPending reports whether e is a reduction accumulator with a
// contributor not yet combined. Only a reduction's arrays get a row.
func (b *nestBuilder) isPending(e elemID) bool {
	return b.s.redArrs[e.arr()] && b.pending.at(b.s, e).n > 0
}

// recordFinalize pops a pending reduction and records, as the nest's next
// finOp, what every lowering of its combine needs — the contributors, the
// root (the accumulator's first owner, which folds the partials in
// contributor order), the liveness site, and the written mark — without
// choosing the lowering; emitBatch does that for the whole batch.
func (b *nestBuilder) recordFinalize(e elemID) {
	s, ns := b.s, b.ns
	ref := b.pending.at(s, e)
	contribs, n := b.contribs[ref.at:ref.at+ref.n], int32(ref.n)
	ref.n = 0
	f := finOp{elem: e, root: s.arrays[e.arr()].lay.first(e.off())}
	var at int32
	ns.ints, at = extend(ns.ints, 2*int(n))
	f.contribs, f.parts = span{at, at + n}, span{at + n, at + 2*n}
	copy(ns.ints[at:], contribs)
	for k, c := range contribs {
		ent := s.parts.entry(s, e, int(c))
		ns.ints[at+n+int32(k)] = s.parts.number(ent)
		if c != f.root && ent.stamp < b.nest {
			ent.stamp = b.nest
			ns.count.ReduceWords++
		}
	}
	s.noteFinalize(e, b.idx, int32(len(ns.fins)))
	ns.fins = append(ns.fins, f)
	b.markWritten(e)
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
	ns := b.ns
	f0 := int32(len(ns.fins))
	for _, e := range elems {
		b.recordFinalize(e)
	}
	items := ns.fins[f0:]
	b.parts = b.parts[:0]
	for i := range items {
		b.parts = append(b.parts, ns.list(items[i].contribs)...)
		for _, p := range b.s.ownersOf(items[i].elem) {
			b.parts = append(b.parts, int32(p))
		}
	}
	slices.Sort(b.parts)
	b.parts = slices.Compact(b.parts)
	lo := int32(len(ns.ints))
	ns.ints = append(grow(ns.ints, len(b.parts)), b.parts...)
	in := pinstr{op: opRed, arg: int32(len(ns.reds))}
	ns.reds = append(ns.reds, redOp{items: span{f0, int32(len(ns.fins))}, ring: mid && ns.ringEligible(items),
		parts: span{lo, int32(len(ns.ints))}})
	for k, p := range b.parts {
		in.off = int32(k)
		b.emit(int(p), in)
	}
}

// closeEpoch freezes the current epoch: its batched traffic is lowered to
// the composed collective redistribution, in the segment's plan, and
// addressed, its opRedist lands in each participant's reserved slot (or
// ends the stream of one that emitted nothing else this epoch), and the
// written set resets (its stamps fall behind the epoch number).
func (b *nestBuilder) closeEpoch() {
	if len(b.traffic) > 0 {
		// A sender's address is its slab offset at the origin and its buffer
		// position at a relay; every receiver, relays included, is a
		// destination of the segment's elements, so their positions were
		// numbered when the ships were listed.
		s := b.s
		ranks, op0 := b.ws.lower(b.traffic, &s.plan)
		s.plan.address(ranks, op0, s.vecLen, func(r int32, origin bool, e elemID) int32 {
			if origin {
				off, _ := s.slabOff(int(r), e)
				return off
			}
			return s.bufs.pos(s, e, int(r))
		})
		for i, p := range ranks {
			in := pinstr{op: opRedist, arg: op0 + int32(i)}
			if at := b.first[p]; at > 0 {
				b.ns.instrs[at-1] = in
			} else {
				b.push(int(p), in)
			}
		}
		b.traffic = b.traffic[:0]
	}
	clear(b.first)
	b.epoch++
}
