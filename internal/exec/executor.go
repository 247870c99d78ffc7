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
// the machine's sparse queues exist to remove.
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
	// slab and marks are this processor's stores, its cells of every array
	// in array order, array a's from base[a] (its row of progSchedule.base)
	// and addressed inside it through the array's layout. A mark says the
	// processor wrote or received the element, for the first-marked-owner
	// result assembly.
	slab  []float64
	marks []bool
	base  []int32
	// part holds the running partial sums of reduce statements, zero
	// between a finalize and the next contribution.
	part []float64
	// cbuf holds the copies of other processors' elements that opRedist
	// rounds delivered, filled marks the positions a receive wrote: a
	// tree relay forwards from it and eval reads it. A position is
	// overwritten in place — a copy stays valid until its element is
	// written, and the inspector re-ships after every write, so a stale
	// value is never visible — and reading one no receive filled is an
	// inspector bug, a panic.
	cbuf   []machine.Word
	filled []bool
	// vals holds the current eval's operand values, in Reads order.
	vals []float64
	// vec is the exchange vector: a redistribution message is gathered in
	// it, and a reduction phase lays out its sends in it and, once they
	// are out (machine.Send copies), its receives (phase).
	vec []machine.Word
}

// executors cuts every rank's value-pass state for the segment out of one
// backing array per element type: rank r's stores (storeWords), partial
// sums (parts.n), operand values (the segment's most Reads), copy buffer
// (bufs.n) and exchange vector (vecLen), and its marks and filled flags.
// Each is as long as the inspector found r needs, so the whole is the sum
// of what the ranks own and exchange. The caller hands each its Proc.
func (s *progSchedule) executors() []valExec {
	reads := 0
	for _, ns := range s.nests {
		for i := range ns.stmts {
			reads = max(reads, len(ns.stmts[i].reads))
		}
	}
	words, flags := 0, 0
	for r := range s.nprocs {
		store, bufs := s.storeWords(r), int(s.bufs.n[r])
		words += store + int(s.parts.n[r]) + reads + bufs + int(s.vecLen[r])
		flags += store + bufs
	}
	fw, bw := make([]float64, words), make([]bool, flags)
	xs := make([]valExec, s.nprocs)
	for r := range xs {
		store, bufs := s.storeWords(r), int(s.bufs.n[r])
		xs[r] = valExec{s: s, me: r, base: s.row(r),
			slab: carve(&fw, store), part: carve(&fw, int(s.parts.n[r])), vals: carve(&fw, reads),
			cbuf: carve(&fw, bufs), vec: carve(&fw, int(s.vecLen[r])),
			marks: carve(&bw, store), filled: carve(&bw, bufs)}
	}
	return xs
}

type elemVal struct {
	elem elemID
	val  float64
}

// buildLoads decodes the initial array contents once and buckets them, per
// array, by owner cell: one shared structure per run, of which every
// processor installs the bucket of the cell it holds. (A per-processor
// scan asking IsOwner per element is O(nprocs * elements) with string
// parsing inside; at N=256 it dominated whole-run profiles.) validate has
// checked every key, so each parses, into a stack buffer, to an element.
func buildLoads(s *progSchedule, input ir.Storage) []map[int32][]elemVal {
	loads := make([]map[int32][]elemVal, len(s.arrays))
	var buf [4]int
	for a := range s.arrays {
		am := &s.arrays[a]
		elems := input[am.name]
		if len(elems) == 0 {
			continue
		}
		loads[a] = make(map[int32][]elemVal)
		for key, v := range elems {
			idx, _ := ir.ParseKey(buf[:0], key)
			e, _ := s.elemOf(a, idx)
			c := int32(am.lay.owners(e.off())[0])
			loads[a][c] = append(loads[a][c], elemVal{e, v})
		}
	}
	return loads
}

// installInput installs this processor's slice of the pre-bucketed
// initial state, free of charge.
func (x *valExec) installInput(loads []map[int32][]elemVal) {
	for a, bucket := range loads {
		for _, ev := range bucket[x.s.arrays[a].lay.held(x.me)] {
			x.storeElem(ev.elem, ev.val)
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
	return int(x.base[a] + i)
}

// loadElem reads an owned element; one never written reads as zero.
func (x *valExec) loadElem(e elemID) float64 { return x.slab[x.local(e)] }

func (x *valExec) storeElem(e elemID, v float64) {
	i := x.local(e)
	x.slab[i], x.marks[i] = v, true
}

// buffered reads cbuf position p, which a receive must have filled.
func (x *valExec) buffered(p int) machine.Word {
	if !x.filled[p] {
		x.unfilled(p)
	}
	return x.cbuf[p]
}

// unfilled reports a read of a buffer position no receive filled: an
// inspector bug, a panic.
func (x *valExec) unfilled(p int) {
	panic(fmt.Sprintf("exec: processor %d reads buffer position %d, which no receive filled", x.me, p))
}

// runNest executes this processor's instruction stream for one nest,
// from the cursor on.
func (x *valExec) runNest(ns *nestSchedule) bool {
	stream := ns.procs[x.me]
	for ; x.pc < len(stream); x.pc++ {
		in := &stream[x.pc]
		ok := true
		switch in.op {
		case opRedist:
			ok = x.runRedist(ns.addrs, ns.redists[in.arg], x.slab, x.cbuf, x.filled)
		case opSendDirect:
			x.proc.SendValue(int(in.arg), x.loadElem(in.elem))
		case opRed:
			r := ns.reds[in.arg]
			ok = x.reduceBatch(r, &r.roles[in.off])
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

// runRedist executes one epoch's collective redistribution. Each round
// sends its merged messages in ascending destination order, then
// receives in ascending source order — one message per ordered pair
// per round. A segment whose origin is this processor gathers from
// origin; a relayed segment forwards the copies received in an earlier
// round. A receive files the words in buf and marks them filled, and
// both ends read their addresses from the segment's run of addrs. A nest
// epoch gathers from the store slab and files in the copy buffer; a
// scheme change (runChange) gathers from the stores of the segment before
// it and files in the stores of the segment after it.
func (x *valExec) runRedist(addrs []int32, op *redistOp, origin []float64, buf []machine.Word, filled []bool) bool {
	for ; x.stage < 2*len(op.rounds); x.stage++ {
		rd := &op.rounds[x.stage/2]
		if x.stage%2 == 0 {
			for i := range rd.sends {
				msg := &rd.sends[i]
				n := 0
				for _, seg := range msg.segs {
					from := addrs[seg.addr : int(seg.addr)+len(seg.elems)]
					if int(seg.origin) == x.me {
						for _, o := range from {
							x.vec[n] = origin[o]
							n++
						}
					} else {
						for _, p := range from {
							if !filled[p] {
								x.unfilled(int(p))
							}
							x.vec[n] = buf[p]
							n++
						}
					}
				}
				x.proc.Send(int(msg.peer), x.vec[:n])
			}
			continue
		}
		for ; x.recv < len(rd.recvs); x.recv++ {
			msg := &rd.recvs[x.recv]
			data, ok := x.proc.TryRecv(int(msg.peer))
			if !ok {
				return false
			}
			pos := 0
			for _, seg := range msg.segs {
				n := len(seg.elems)
				if pos+n > len(data) {
					panic(fmt.Sprintf("exec: collective round from %d short by %d words", msg.peer, pos+n-len(data)))
				}
				for k, p := range addrs[int(seg.addr)+n : int(seg.addr)+2*n] {
					buf[p], filled[p] = data[pos+k], true
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
	stmt := &ns.stmts[in.stmt]
	ops := ns.operands[in.off : int(in.off)+len(stmt.reads)]
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
			v = x.slab[o.addr()]
		case o.kind() == opdBuffered:
			v = x.buffered(o.addr())
		default:
			v = x.part[o.addr()]
		}
		x.vals[x.stage] = v
	}
	x.stage = 0
	if in.role == roleRecvOnly {
		return true
	}
	v := x.evalExpr(stmt.rhs)
	if in.role == roleReduce {
		x.part[in.arg] = v
	} else {
		if math.IsNaN(v) {
			panic(fmt.Sprintf("exec: NaN at %s line %d", stmt.LHS, stmt.Line))
		}
		x.storeElem(in.elem, v)
	}
	x.proc.Compute(stmt.Flops)
	return true
}

// evalExpr evaluates a lowered right-hand side over the operand values
// x.vals.
func (x *valExec) evalExpr(e *lexpr) float64 {
	switch e.op {
	case lNum:
		return e.val
	case lRef:
		return x.vals[e.read]
	case lNeg:
		return -x.evalExpr(e.l)
	}
	l, r := x.evalExpr(e.l), x.evalExpr(e.r)
	switch e.op {
	case '+':
		return l + r
	case '-':
		return l - r
	case '*':
		return l * r
	}
	return l / r // lowerExpr admits no fifth operator
}

// takePart returns the partial sum at position p and clears it for the
// element's next reduction.
func (x *valExec) takePart(p int32) float64 {
	v := x.part[p]
	x.part[p] = 0
	return v
}

// sendVec sends each destination its range of the exchange vector, the
// ranges in ascending destination order from at on, and returns the words
// sent.
func (x *valExec) sendVec(to []peerWords, at int) int {
	sent := 0
	for _, d := range to {
		x.proc.Send(int(d.peer), x.vec[at+sent:at+sent+int(d.n)])
		sent += int(d.n)
	}
	return sent
}

// recvVec receives one vector from each source from the cursor's on, in
// ascending source order, into the source's range of the exchange vector.
func (x *valExec) recvVec(from []peerWords, what string) bool {
	at := 0
	for i, src := range from {
		if i == x.recv {
			data, ok := x.proc.TryRecv(int(src.peer))
			if !ok {
				return false
			}
			if len(data) != int(src.n) {
				panic(fmt.Sprintf("exec: %s exchange from %d expected %d words, got %d", what, src.peer, src.n, len(data)))
			}
			copy(x.vec[at:], data)
			x.recv++
		}
		at += int(src.n)
	}
	x.recv = 0
	return true
}

// reduceBatch runs one vectored reduction exchange (opRed): the
// two-phase gather + fan-out lowering, or the Section 5 ring when the
// inspector marked the batch ring-eligible. Both fold each element
// exactly like the oracle's finalize — stored value first, then
// contributors in ascending order — so values stay bit-identical. The
// processor walks only the items of its own role lists, and moves its
// words through the slots the inspector laid out. Stage 1 receives the
// gather phase's words, stage 2 the fan-out's.
func (x *valExec) reduceBatch(r *redOp, role *redRole) bool {
	if r.ring {
		return x.reduceRing(r, role)
	}
	switch x.stage {
	case 0:
		// Gather phase: one vectored partials message per (contributor,
		// root) pair, items in batch order on both ends.
		x.start = x.proc.Clock()
		for k, p := range role.part {
			x.vec[role.gather.put[k]] = x.takePart(p)
		}
		x.sent, x.stage = x.sendVec(role.gather.to, 0), 1
		fallthrough
	case 1:
		if !x.recvVec(role.gather.from, "gather") {
			return false
		}
		j := 0
		for _, i := range role.root {
			f := r.items[i]
			total := x.loadElem(f.elem)
			for k, c := range f.contribs {
				if c == x.me {
					total += x.takePart(f.parts[k])
				} else {
					total += x.vec[role.gather.get[j]]
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
		j = 0
		for _, i := range role.root {
			f := r.items[i]
			for range f.fanout {
				x.vec[role.fanout.put[j]] = x.loadElem(f.elem)
				j++
			}
		}
		x.sent, x.stage = x.sendVec(role.fanout.to, 0), 2
		fallthrough
	default:
		if !x.storeTotals(r, role, "fanout") {
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
func (x *valExec) reduceRing(r *redOp, role *redRole) bool {
	order := r.items[0].contribs
	k, n := len(order), len(r.items)
	pos := slices.Index(order, x.me)
	if x.stage == 0 {
		x.start, x.sent, x.stage = x.proc.Clock(), 0, 1
		if pos == 0 { // root: fold stored values + own partials, start the ring
			vec := x.vec[:n]
			for i, f := range r.items {
				vec[i] = x.loadElem(f.elem) + x.part[f.parts[0]]
				x.proc.Compute(1)
			}
			x.proc.Send(order[1], vec)
			x.sent = n
		}
	}
	if x.stage == 1 && pos >= 0 { // the totals from the previous hop
		data, ok := x.proc.TryRecv(order[(pos+k-1)%k])
		if !ok {
			return false
		}
		if len(data) != n {
			panic(fmt.Sprintf("exec: ring totals expected %d words, got %d", n, len(data)))
		}
		x.stage = 2
		switch {
		case pos == 0: // root: store the totals
			for i, f := range r.items {
				x.storeElem(f.elem, data[i])
			}
		case pos < k-1: // interior hop: fold and forward
			x.proc.Send(order[pos+1], x.foldHop(r, data, pos))
			x.sent += n
		default: // last hop: fold, then deliver the totals
			vec := x.foldHop(r, data, pos)
			for _, i := range role.reads {
				x.storeElem(r.items[i].elem, vec[i])
			}
			// The root always gets the full vector; live readers get their
			// items, laid out after it. Root = min(owners) < every fan-out
			// rank, so sending it first keeps the destinations ascending.
			x.proc.Send(r.items[0].root, vec)
			x.sent += n
			j := 0
			for i, f := range r.items {
				for _, o := range f.fanout {
					if o != x.me {
						x.vec[role.fanout.put[j]] = vec[i]
						j++
					}
				}
			}
			x.sent += x.sendVec(role.fanout.to, n)
		}
	}
	if (pos < 0 || pos > 0 && pos < k-1) && !x.storeTotals(r, role, "ring") {
		return false
	}
	if pos >= 0 { // every hop of the chain held a partial of every item
		for _, f := range r.items {
			x.takePart(f.parts[pos])
		}
	}
	x.proc.Note(machine.EvRing, x.start, x.proc.Clock(), -1, x.sent)
	x.stage = 0
	return true
}

// foldHop folds this hop's partials, the chain's pos-th, into the
// running totals from the previous hop, at the front of the exchange
// vector.
func (x *valExec) foldHop(r *redOp, data []machine.Word, pos int) []machine.Word {
	vec := x.vec[:len(r.items)]
	for i, f := range r.items {
		vec[i] = data[i] + x.part[f.parts[pos]]
		x.proc.Compute(1)
	}
	return vec
}

// storeTotals receives the totals this processor is a live reader of —
// from the roots, or from a ring's last hop — and stores them.
func (x *valExec) storeTotals(r *redOp, role *redRole, what string) bool {
	if !x.recvVec(role.fanout.from, what) {
		return false
	}
	for k, i := range role.reads {
		x.storeElem(r.items[i].elem, x.vec[role.fanout.get[k]])
	}
	return true
}
