// The executor half of the batched engine: each processor runs its
// precomputed instruction stream (schedule.go) against stores of the
// elements it owns, exchanging each epoch's traffic as one vectored
// machine.Send per processor pair. The stream is allocated once by the
// inspector, which also resolved every operand to a local address, laid
// out every reduction's words and sized every buffer the executor uses.

package exec

import (
	"fmt"
	"math"
	"slices"

	"dmcc/internal/ir"
	"dmcc/internal/machine"
)

// valExec is one processor's value-pass state, all of it proportional to
// what the processor owns and exchanges, and all of it sized by the
// inspector before the machine starts (progSchedule.executors): the
// stores hold its owner cell of each array and nothing else (layout.go's
// shared tables turn a global element into a local offset), the copy
// buffer and the partial sums hold one position per element the inspector
// numbered for this processor, and the exchange vector is as long as its
// longest message or reduction phase. A reduction's peers are lists the
// inspector laid out (redRole), so the value pass keeps no per-peer state
// and allocates none. At N=4096 a processor typically owns a handful of
// elements and talks to a handful of neighbours; sizing any of this by the
// array or by nprocs would make the executor itself the memory bottleneck
// the machine's sparse queues exist to remove. Each piece is a range of
// its segment's slabs (progSchedule.fw and bw), so the only pointers a
// processor's state holds are its schedule and its Proc.
//
// An opEval's operands arrive as local addresses (schedule.go's operand):
// an offset into slab, a position in cbuf, the rank of a direct message or
// a position in part. The executor evaluates no subscript and looks up no
// element to read one. It is a machine step: a method that receives
// returns false where TryRecv parked it, and goes on from the cursor when
// called again. pc is the instruction, stage the phase in it (an opRedist
// round's sends, even, or receives, odd; a reduction's phase; an opEval's
// operand), recv the phase's receives done, start and sent its start
// clock and words sent, for its Note.
type valExec struct {
	s                     *progSchedule
	proc                  *machine.Proc
	me                    int
	pc, stage, recv, sent int
	start                 float64
	// Ranges of the segment's slab fw, from w on, of these lengths: slab
	// holds this processor's stores, its cells of every array in array
	// order, array a's from base[a] (its row of progSchedule.base) and
	// addressed inside it through the array's layout. part holds the
	// running partial sums of reduce statements, zero between a finalize
	// and the next contribution. cbuf holds the copies of other
	// processors' elements that opRedist rounds delivered: a tree relay
	// forwards from it and eval reads it. A position is overwritten in
	// place — a copy stays valid until its element is written, and the
	// inspector re-ships after every write, so a stale value is never
	// visible. vec is the exchange vector: a redistribution message is
	// gathered in it, and a reduction phase lays out its sends in it and,
	// once they are out (machine.Send copies), its receives (phase).
	w, nslab, npart, ncbuf, nvec int32
	// vals, at fw[vals:], holds the current eval's operand values, in Reads
	// order; the processors whose evals never park share one.
	vals int32
	// Ranges of the segment's slab bw, from f on: a mark says the processor
	// wrote or received the stored element, for the first-marked-owner
	// result assembly; filled marks the cbuf positions a receive wrote, and
	// reading one no receive filled is an inspector bug, a panic.
	f int32
}

// executors cuts every rank's value-pass state for the segment out of one
// slab per element type, fw and bw: rank r's stores (storeWords), partial
// sums (parts.n), copy buffer (bufs.n) and exchange vector (vecLen), and
// its marks and filled flags, and, for a rank whose evals can park on a
// direct operand (parks), its operand values (the segment's most Reads);
// the other ranks share one range for those, since their evals run in one
// call. Each is as long as the inspector found r needs, so the whole is
// the sum of what the ranks own and exchange. The caller hands each its
// Proc. xs and the slabs are reset in place.
func (s *progSchedule) executors(xs []valExec) []valExec {
	s.reads = 0
	for _, ns := range s.nests {
		for i := range ns.ln.Stmts {
			s.reads = max(s.reads, int32(len(ns.ln.Stmts[i].Reads)))
		}
	}
	words, flags := s.reads, int32(0) // the shared operand values first
	xs = resize(xs, s.nprocs)
	for r := range xs {
		x := valExec{s: s, me: r, w: words, f: flags,
			nslab: int32(s.storeWords(r)), npart: s.parts.n[r], ncbuf: s.bufs.n[r], nvec: s.vecLen[r]}
		words += x.nslab + x.npart + x.ncbuf + x.nvec
		flags += x.nslab + x.ncbuf
		if s.parks[r] {
			x.vals, words = words, words+s.reads
		}
		xs[r] = x
	}
	s.fw, s.bw = zeroed(s.fw, int(words)), zeroed(s.bw, int(flags))
	return xs
}

// The executor's views of its ranges.
func (x *valExec) stores() []float64 { return x.s.fw[x.w : x.w+x.nslab] }
func (x *valExec) marked() []bool    { return x.s.bw[x.f : x.f+x.nslab] }
func (x *valExec) parts() []float64 {
	lo := x.w + x.nslab
	return x.s.fw[lo : lo+x.npart]
}
func (x *valExec) buf() []machine.Word {
	lo := x.w + x.nslab + x.npart
	return x.s.fw[lo : lo+x.ncbuf]
}
func (x *valExec) isFilled() []bool {
	lo := x.f + x.nslab
	return x.s.bw[lo : lo+x.ncbuf]
}
func (x *valExec) exchange() []machine.Word {
	lo := x.w + x.nslab + x.npart + x.ncbuf
	return x.s.fw[lo : lo+x.nvec]
}

// arrayLoad is one array's initial contents, cell-major: each owner
// cell's values in its local order, cell c's (c named by its first owner)
// from at[c], and set marks the elements the input holds. at is empty
// where the input holds none of the array.
type arrayLoad struct {
	at   []int32
	vals []float64
	set  []bool
}

// buildLoads decodes the initial array contents once into one run per
// array and owner cell, of which every processor copies the run of the
// cell it holds into its stores. (A per-processor scan asking IsOwner per
// element is O(nprocs * elements) with string parsing inside; at N=256 it
// dominated whole-run profiles.) validate has checked every key, so each
// names an element (ir.Lowered.Elem). loads is reset in place.
func buildLoads(s *progSchedule, input ir.Storage, loads []arrayLoad) []arrayLoad {
	loads = resize(loads, len(s.arrays))
	for a := range s.arrays {
		am, ld := &s.arrays[a], &loads[a]
		elems := input[am.name]
		if ld.at = ld.at[:0]; len(elems) == 0 {
			continue
		}
		ld.at, ld.vals, ld.set = zeroed(ld.at, s.nprocs), zeroed(ld.vals, am.size), zeroed(ld.set, am.size)
		for c, n := 0, int32(0); c < s.nprocs; c++ {
			if am.lay.held(c) == int32(c) { // c names the cell it holds
				ld.at[c], n = n, n+int32(am.lay.storeLen(c))
			}
		}
		for key, v := range elems {
			off, _ := s.lw.Elem(a, key)
			c := am.lay.owners(off)[0]
			i, _ := am.lay.local(c, off)
			ld.vals[ld.at[c]+i], ld.set[ld.at[c]+i] = v, true
		}
	}
	return loads
}

// installInput copies this processor's runs of the initial state into its
// stores, free of charge.
func (x *valExec) installInput(loads []arrayLoad) {
	slab, marks, base := x.stores(), x.marked(), x.s.row(x.me)
	for a := range loads {
		if c, ld := x.s.arrays[a].lay.held(x.me), &loads[a]; c >= 0 && len(ld.at) > 0 {
			from, to := ld.at[c], base[a]
			n := base[a+1] - to
			copy(slab[to:to+n], ld.vals[from:from+n])
			copy(marks[to:to+n], ld.set[from:from+n])
		}
	}
}

// local is e's offset in this processor's store slab. Only an owner holds
// an element: every other access the inspector schedules goes through a
// direct message or a buffered copy, so an element of another cell here is
// an inspector bug, and behind the shared offset table it would alias an
// element the processor does own — a panic, which the machine reports as
// Run's error, not a wrong number.
func (x *valExec) local(e elemID) int {
	a := e.arr()
	i, held := x.s.arrays[a].lay.local(x.me, e.off())
	if !held {
		panic(fmt.Sprintf("exec: processor %d accesses %s%v, which it does not own", x.me, x.s.arrays[a].name, x.s.decode(e)))
	}
	return int(x.s.base[x.me*(len(x.s.arrays)+1)+a] + i)
}

// loadElem reads an owned element; one never written reads as zero.
func (x *valExec) loadElem(e elemID) float64 { return x.stores()[x.local(e)] }

func (x *valExec) storeElem(e elemID, v float64) {
	i := x.local(e)
	x.stores()[i], x.marked()[i] = v, true
}

// buffered reads cbuf position p, which a receive must have filled.
func (x *valExec) buffered(p int) machine.Word {
	if !x.isFilled()[p] {
		x.unfilled(p)
	}
	return x.buf()[p]
}

// unfilled reports a read of a buffer position no receive filled: an
// inspector bug, a panic.
func (x *valExec) unfilled(p int) {
	panic(fmt.Sprintf("exec: processor %d reads buffer position %d, which no receive filled", x.me, p))
}

// runNest executes this processor's instruction stream for one nest,
// from the cursor on.
func (x *valExec) runNest(ns *nestSchedule) bool {
	stream := ns.stream(x.me)
	for ; x.pc < len(stream); x.pc++ {
		in := &stream[x.pc]
		ok := true
		switch in.op {
		case opRedist:
			ok = x.runRedist(in.arg, x.stores(), x.buf(), x.isFilled())
		case opSendDirect:
			x.proc.SendValue(int(in.arg), x.loadElem(in.elem))
		case opRed:
			r := &ns.reds[in.arg]
			ok = x.reduceBatch(ns, r, &ns.roles[r.roles+in.off])
		case opEval:
			ok = x.eval(ns, in)
		}
		if !ok {
			return false
		}
	}
	x.pc = 0
	return true
}

// runRedist executes this processor's part of one epoch's collective
// redistribution, op of the segment's plan. Each round sends its merged
// messages in ascending destination order, then receives in ascending
// source order — one message per ordered pair per round. A segment whose
// origin is this processor gathers from origin; a relayed segment
// forwards the copies received in an earlier round. A receive files the
// words in buf and marks them filled, and both ends read their addresses
// from the segment's run of the plan's addrs. A nest epoch gathers from
// the store slab and files in the copy buffer; a scheme change
// (runChange) gathers from the stores of the segment before it and files
// in the stores of the segment after it.
func (x *valExec) runRedist(op int32, origin []float64, buf []machine.Word, filled []bool) bool {
	p := &x.s.plan
	rounds := p.rounds[p.ops[op].lo:p.ops[op].hi]
	for ; x.stage < 2*len(rounds); x.stage++ {
		rd := &rounds[x.stage/2]
		if x.stage%2 == 0 {
			vec := x.exchange()
			for _, msg := range p.msgs[rd.sends.lo:rd.sends.hi] {
				n := 0
				for _, seg := range p.segs[msg.segs.lo:msg.segs.hi] {
					from := p.addrs[seg.addr : seg.addr+int32(seg.elems.n())]
					if seg.origin == int32(x.me) {
						for _, o := range from {
							vec[n] = origin[o]
							n++
						}
					} else {
						for _, q := range from {
							if !filled[q] {
								x.unfilled(int(q))
							}
							vec[n] = buf[q]
							n++
						}
					}
				}
				x.proc.Send(int(msg.peer), vec[:n])
			}
			continue
		}
		recvs := p.msgs[rd.recvs.lo:rd.recvs.hi]
		for ; x.recv < len(recvs); x.recv++ {
			msg := &recvs[x.recv]
			data, ok := x.proc.TryRecv(int(msg.peer))
			if !ok {
				return false
			}
			pos := 0
			for _, seg := range p.segs[msg.segs.lo:msg.segs.hi] {
				n := seg.elems.n()
				if pos+n > len(data) {
					panic(fmt.Sprintf("exec: collective round from %d short by %d words", msg.peer, pos+n-len(data)))
				}
				for k, q := range p.addrs[int(seg.addr)+n : int(seg.addr)+2*n] {
					buf[q], filled[q] = data[pos+k], true
				}
				pos += n
			}
			if pos != len(data) {
				panic(fmt.Sprintf("exec: collective round from %d expected %d words, got %d", msg.peer, pos, len(data)))
			}
		}
		x.recv = 0
	}
	x.stage = 0
	return true
}

// eval reads the instance's operands from the cursor's on — direct
// one-word messages in the shared global order — and, unless this processor
// is a receive-only replica of a reduction, evaluates the statement.
func (x *valExec) eval(ns *nestSchedule, in *pinstr) bool {
	stmt, ls := ns.stmts[in.stmt], &ns.ln.Stmts[in.stmt]
	ops, vals := ns.operands[in.off:int(in.off)+len(ls.Reads)], x.s.fw[x.vals:x.vals+x.s.reads]
	for ; x.stage < len(ops); x.stage++ {
		var v float64
		switch o := ops[x.stage]; {
		case o.kind() == opdDirect:
			data, ok := x.proc.TryRecv(o.addr())
			if !ok {
				return false
			}
			if len(data) != 1 {
				panic(fmt.Sprintf("exec: operand from %d has %d words", o.addr(), len(data)))
			}
			v = data[0]
		case in.role == roleRecvOnly: // a receive-only replica reads nothing else
		case o.kind() == opdOwned:
			v = x.stores()[o.addr()]
		case o.kind() == opdBuffered:
			v = x.buffered(o.addr())
		default:
			v = x.parts()[o.addr()]
		}
		vals[x.stage] = v
	}
	x.stage = 0
	if in.role == roleRecvOnly {
		return true
	}
	v := ls.Eval(vals, x.s.scalars)
	if in.role == roleReduce {
		x.parts()[in.arg] = v
	} else {
		if math.IsNaN(v) {
			panic(fmt.Sprintf("exec: NaN at %s line %d", stmt.LHS, stmt.Line))
		}
		x.storeElem(in.elem, v)
	}
	x.proc.Compute(stmt.Flops)
	return true
}

// takePart returns the partial sum at position p and clears it for the
// element's next reduction.
func (x *valExec) takePart(p int32) float64 {
	part := x.parts()
	v := part[p]
	part[p] = 0
	return v
}

// sendVec sends each destination its range of the exchange vector, the
// ranges in ascending destination order from at on, and returns the words
// sent.
func (x *valExec) sendVec(to []peerWords, at int) int {
	vec, sent := x.exchange(), 0
	for _, d := range to {
		x.proc.Send(int(d.peer), vec[at+sent:at+sent+int(d.n)])
		sent += int(d.n)
	}
	return sent
}

// recvVec receives one vector from each source from the cursor's on, in
// ascending source order, into the source's range of the exchange vector.
func (x *valExec) recvVec(from []peerWords, what string) bool {
	vec, at := x.exchange(), 0
	for i, src := range from {
		if i == x.recv {
			data, ok := x.proc.TryRecv(int(src.peer))
			if !ok {
				return false
			}
			if len(data) != int(src.n) {
				panic(fmt.Sprintf("exec: %s exchange from %d expected %d words, got %d", what, src.peer, src.n, len(data)))
			}
			copy(vec[at:], data)
			x.recv++
		}
		at += int(src.n)
	}
	x.recv = 0
	return true
}

// reduceBatch runs one vectored reduction exchange (opRed), r of ns, in
// this processor's role: the two-phase gather + fan-out lowering, or the
// Section 5 ring when the inspector marked the batch ring-eligible. Both
// fold each element exactly like the oracle's finalize — stored value
// first, then contributors in ascending order — so values stay
// bit-identical. The processor walks only the items of its own role
// lists, and moves its words through the slots the inspector laid out.
// Stage 1 receives the gather phase's words, stage 2 the fan-out's.
func (x *valExec) reduceBatch(ns *nestSchedule, r *redOp, role *redRole) bool {
	if r.ring {
		return x.reduceRing(ns, r, role)
	}
	items, vec := ns.fins[r.items.lo:r.items.hi], x.exchange()
	switch x.stage {
	case 0:
		// Gather phase: one vectored partials message per (contributor,
		// root) pair, items in batch order on both ends.
		x.start = x.proc.Clock()
		put := ns.list(role.gather.put)
		for k, p := range ns.list(role.part) {
			vec[put[k]] = x.takePart(p)
		}
		x.sent, x.stage = x.sendVec(ns.peers[role.gather.to.lo:role.gather.to.hi], 0), 1
		fallthrough
	case 1:
		if !x.recvVec(ns.peers[role.gather.from.lo:role.gather.from.hi], "gather") {
			return false
		}
		get, j := ns.list(role.gather.get), 0
		for _, i := range ns.list(role.root) {
			f := &items[i]
			total := x.loadElem(f.elem)
			parts := ns.list(f.parts)
			for k, c := range ns.list(f.contribs) {
				if int(c) == x.me {
					total += x.takePart(parts[k])
				} else {
					total += vec[get[j]]
					j++
				}
				x.proc.Compute(1)
			}
			x.storeElem(f.elem, total)
		}
		x.proc.Note(machine.EvGather, x.start, x.proc.Clock(), -1, x.sent)

		// Fan-out phase: one vectored totals message per (root, live
		// reader) pair. Owners outside the fan-out were proven by the
		// liveness scan not to read the total before its next write.
		x.start = x.proc.Clock()
		put, j := ns.list(role.fanout.put), 0
		for _, i := range ns.list(role.root) {
			f := &items[i]
			for range f.fanout.n() {
				vec[put[j]] = x.loadElem(f.elem)
				j++
			}
		}
		x.sent, x.stage = x.sendVec(ns.peers[role.fanout.to.lo:role.fanout.to.hi], 0), 2
		fallthrough
	default:
		if !x.storeTotals(ns, r, role, "fanout") {
			return false
		}
		x.proc.Note(machine.EvFanout, x.start, x.proc.Clock(), -1, x.sent)
	}
	x.stage = 0
	return true
}

// reduceRing runs a ring-lowered batch (Section 5): the running totals
// travel the shared contributor chain neighbor-to-neighbor — each hop
// folds its partials into the vector — and the last contributor
// delivers the totals to the root (which always stores) and the live
// readers. The root receives one message instead of len(contribs)-1,
// de-serializing the reduction hot-spot the paper's pipelined SOR removes.
// A hop is at stage 1 until the previous hop's totals arrive, 2 after.
func (x *valExec) reduceRing(ns *nestSchedule, r *redOp, role *redRole) bool {
	items := ns.fins[r.items.lo:r.items.hi]
	order := ns.list(items[0].contribs)
	k, n := len(order), len(items)
	pos := slices.Index(order, int32(x.me))
	if x.stage == 0 {
		x.start, x.sent, x.stage = x.proc.Clock(), 0, 1
		if pos == 0 { // root: fold stored values + own partials, start the ring
			vec, part := x.exchange()[:n], x.parts()
			for i := range items {
				f := &items[i]
				vec[i] = x.loadElem(f.elem) + part[ns.ints[f.parts.lo]]
				x.proc.Compute(1)
			}
			x.proc.Send(int(order[1]), vec)
			x.sent = n
		}
	}
	if x.stage == 1 && pos >= 0 { // the totals from the previous hop
		data, ok := x.proc.TryRecv(int(order[(pos+k-1)%k]))
		if !ok {
			return false
		}
		if len(data) != n {
			panic(fmt.Sprintf("exec: ring totals expected %d words, got %d", n, len(data)))
		}
		x.stage = 2
		switch {
		case pos == 0: // root: store the totals
			for i := range items {
				x.storeElem(items[i].elem, data[i])
			}
		case pos < k-1: // interior hop: fold and forward
			x.proc.Send(int(order[pos+1]), x.foldHop(ns, items, data, pos))
			x.sent += n
		default: // last hop: fold, then deliver the totals
			vec := x.foldHop(ns, items, data, pos)
			for _, i := range ns.list(role.reads) {
				x.storeElem(items[i].elem, vec[i])
			}
			// The root always gets the full vector; live readers get their
			// items, laid out after it. Root = min(owners) < every fan-out
			// rank, so sending it first keeps the destinations ascending.
			x.proc.Send(int(items[0].root), vec)
			x.sent += n
			put, out, j := ns.list(role.fanout.put), x.exchange(), 0
			for i := range items {
				for _, o := range ns.list(items[i].fanout) {
					if int(o) != x.me {
						out[put[j]] = vec[i]
						j++
					}
				}
			}
			x.sent += x.sendVec(ns.peers[role.fanout.to.lo:role.fanout.to.hi], n)
		}
	}
	if (pos < 0 || pos > 0 && pos < k-1) && !x.storeTotals(ns, r, role, "ring") {
		return false
	}
	if pos >= 0 { // every hop of the chain held a partial of every item
		for i := range items {
			x.takePart(ns.ints[items[i].parts.lo+int32(pos)])
		}
	}
	x.proc.Note(machine.EvRing, x.start, x.proc.Clock(), -1, x.sent)
	x.stage = 0
	return true
}

// foldHop folds this hop's partials, the chain's pos-th, into the
// running totals from the previous hop, at the front of the exchange
// vector.
func (x *valExec) foldHop(ns *nestSchedule, items []finOp, data []machine.Word, pos int) []machine.Word {
	vec, part := x.exchange()[:len(items)], x.parts()
	for i := range items {
		vec[i] = data[i] + part[ns.ints[items[i].parts.lo+int32(pos)]]
		x.proc.Compute(1)
	}
	return vec
}

// storeTotals receives the totals this processor is a live reader of —
// from the roots, or from a ring's last hop — and stores them.
func (x *valExec) storeTotals(ns *nestSchedule, r *redOp, role *redRole, what string) bool {
	if !x.recvVec(ns.peers[role.fanout.from.lo:role.fanout.from.hi], what) {
		return false
	}
	vec, get := x.exchange(), ns.list(role.fanout.get)
	for k, i := range ns.list(role.reads) {
		x.storeElem(ns.fins[r.items.lo+i].elem, vec[get[k]])
	}
	return true
}
