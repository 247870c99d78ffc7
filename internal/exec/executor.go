// The executor half of the batched engine: each processor runs its
// precomputed instruction stream (schedule.go) against stores of the
// elements it owns, exchanging each epoch's traffic as one vectored
// machine.Send per processor pair. The stream is allocated once by the
// inspector, which also resolved every operand to a local address, and the
// executor reuses its scratch buffers across instances.

package exec

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"dmcc/internal/ir"
	"dmcc/internal/machine"
)

// valExec is one processor's value-pass state, all of it proportional to
// what the processor owns and exchanges: the stores hold its owner cell of
// each array and nothing else (layout.go's shared tables turn a global
// element into a local offset), the copy buffer and the partial sums hold
// one position per element the inspector numbered for this processor, and
// the per-peer state is sparse maps made on first use — a processor that
// never reduces makes none. At N=4096 a processor typically owns a handful
// of elements and talks to a handful of neighbours; sizing any of this by
// the array or by nprocs would make the executor itself the memory
// bottleneck the machine's sparse queues exist to remove.
//
// An opEval's operands arrive as local addresses (schedule.go's operand):
// an offset into slab, a position in cbuf, the rank of a direct message or
// a position in part. The executor evaluates no subscript and looks up no
// element to read one.
type valExec struct {
	s    *progSchedule
	proc machine.Port
	me   int
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
	// gather is the vectored-send scratch (machine.Send copies).
	gather []machine.Word
	// Vectored-reduction scratch: per-destination build buffers,
	// per-source receive buffers with cursors and expected counts, and
	// the ring hop vector.
	rsend map[int][]machine.Word
	rrecv map[int]*vbuf
	rneed map[int]int
	rvec  []machine.Word
	// keys is the sorted-peer iteration scratch of flushSends and
	// drainRecvs (map order is random; the wire order must not be).
	keys []int
}

type vbuf struct {
	data []machine.Word
	pos  int
}

// newValExec allocates the processor's stores — one slab of values and one
// of marks, as long as its cells of every array — its copy buffer and its
// partial sums.
func newValExec(s *progSchedule, proc machine.Port) *valExec {
	x := &valExec{s: s, proc: proc, me: proc.Rank()}
	words := s.storeWords(x.me)
	x.slab, x.marks, x.base = make([]float64, words), make([]bool, words), s.row(x.me)
	x.cbuf, x.filled = make([]machine.Word, s.bufs.n[x.me]), make([]bool, s.bufs.n[x.me])
	x.part = make([]float64, s.parts.n[x.me])
	return x
}

// rbuf returns the (created-on-demand) reduction receive buffer for src.
func (x *valExec) rbuf(src int) *vbuf {
	b := x.rrecv[src]
	if b == nil {
		if x.rrecv == nil {
			x.rrecv = make(map[int]*vbuf)
		}
		b = &vbuf{}
		x.rrecv[src] = b
	}
	return b
}

// queue appends one word to the vectored message building for dst.
func (x *valExec) queue(dst int, w machine.Word) {
	if x.rsend == nil {
		x.rsend = make(map[int][]machine.Word)
	}
	x.rsend[dst] = append(x.rsend[dst], w)
}

// expect counts one more word due from src in the next drainRecvs.
func (x *valExec) expect(src int) {
	if x.rneed == nil {
		x.rneed = make(map[int]int)
	}
	x.rneed[src]++
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

// runNest executes this processor's instruction stream for one nest.
func (x *valExec) runNest(ns *nestSchedule) {
	stream := ns.procs[x.me]
	for i := range stream {
		in := &stream[i]
		switch in.op {
		case opRedist:
			x.runRedist(ns.addrs, ns.redists[in.arg], x.slab, x.cbuf, x.filled)
		case opSendDirect:
			x.proc.SendValue(int(in.arg), x.loadElem(in.elem))
		case opRed:
			r := ns.reds[in.arg]
			x.reduceBatch(r, &r.roles[in.off])
		case opEval:
			x.eval(ns, in)
		}
	}
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
func (x *valExec) runRedist(addrs []int32, op *redistOp, origin []float64, buf []machine.Word, filled []bool) {
	for r := range op.rounds {
		rd := &op.rounds[r]
		for i := range rd.sends {
			msg := &rd.sends[i]
			x.gather = x.gather[:0]
			for _, seg := range msg.segs {
				from := addrs[seg.addr : int(seg.addr)+len(seg.elems)]
				if int(seg.origin) == x.me {
					for _, o := range from {
						x.gather = append(x.gather, origin[o])
					}
				} else {
					for _, p := range from {
						if !filled[p] {
							x.unfilled(int(p))
						}
						x.gather = append(x.gather, buf[p])
					}
				}
			}
			x.proc.Send(int(msg.peer), x.gather)
		}
		for i := range rd.recvs {
			msg := &rd.recvs[i]
			data := x.proc.Recv(int(msg.peer))
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
	}
}

// eval reads the instance's operands — direct one-word messages in the
// shared global order — and, unless this processor is a receive-only
// replica of a reduction, evaluates the statement.
func (x *valExec) eval(ns *nestSchedule, in *pinstr) {
	stmt := &ns.stmts[in.stmt]
	ops := ns.operands[in.off : int(in.off)+len(stmt.reads)]
	if in.role == roleRecvOnly {
		for _, o := range ops {
			if o.kind() == opdDirect {
				x.proc.RecvValue(o.addr())
			}
		}
		return
	}
	x.vals = x.vals[:0]
	for _, o := range ops {
		var v float64
		switch o.kind() {
		case opdOwned:
			v = x.slab[o.addr()]
		case opdBuffered:
			v = x.buffered(o.addr())
		case opdDirect:
			v = x.proc.RecvValue(o.addr())
		default:
			v = x.part[o.addr()]
		}
		x.vals = append(x.vals, v)
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

// flushSends transmits every non-empty per-destination build buffer in
// ascending destination order and returns the words sent.
func (x *valExec) flushSends() int {
	sent := 0
	x.keys = x.keys[:0]
	for dst, b := range x.rsend {
		if len(b) > 0 {
			x.keys = append(x.keys, dst)
		}
	}
	sort.Ints(x.keys)
	for _, dst := range x.keys {
		b := x.rsend[dst]
		x.proc.Send(dst, b)
		sent += len(b)
		x.rsend[dst] = b[:0]
	}
	return sent
}

// drainRecvs receives one vectored message per source with a nonzero
// expected count, in ascending source order, resetting the counts.
func (x *valExec) drainRecvs(what string) {
	x.keys = x.keys[:0]
	for src, need := range x.rneed {
		if need > 0 {
			x.keys = append(x.keys, src)
		}
	}
	sort.Ints(x.keys)
	for _, src := range x.keys {
		b := x.rbuf(src)
		if b.pos != len(b.data) {
			panic(fmt.Sprintf("exec: %s buffer from %d not drained (%d of %d words)", what, src, b.pos, len(b.data)))
		}
		data := x.proc.Recv(src)
		if len(data) != x.rneed[src] {
			panic(fmt.Sprintf("exec: %s exchange from %d expected %d words, got %d", what, src, x.rneed[src], len(data)))
		}
		b.data, b.pos = data, 0
		x.rneed[src] = 0
	}
}

// takePart returns the partial sum at position p and clears it for the
// element's next reduction.
func (x *valExec) takePart(p int32) float64 {
	v := x.part[p]
	x.part[p] = 0
	return v
}

func (x *valExec) popRecv(src int) machine.Word {
	b := x.rrecv[src]
	v := b.data[b.pos]
	b.pos++
	return v
}

// reduceBatch runs one vectored reduction exchange (opRed): the
// two-phase gather + fan-out lowering, or the Section 5 ring when the
// inspector marked the batch ring-eligible. Both fold each element
// exactly like the oracle's finalize — stored value first, then
// contributors in ascending order — so values stay bit-identical. The
// processor walks only the items of its own role lists.
func (x *valExec) reduceBatch(r *redOp, role *redRole) {
	if r.ring {
		x.reduceRing(r, role)
		return
	}

	// Gather phase: one vectored partials message per (contributor,
	// root) pair, items in batch order on both ends so cursors align.
	start := x.proc.Clock()
	for k, i := range role.contrib {
		if f := r.items[i]; f.root != x.me {
			x.queue(f.root, x.takePart(role.part[k]))
		}
	}
	sent := x.flushSends()
	for _, i := range role.root {
		for _, c := range r.items[i].contribs {
			if c != x.me {
				x.expect(c)
			}
		}
	}
	x.drainRecvs("gather")
	for _, i := range role.root {
		f := r.items[i]
		total := x.loadElem(f.elem)
		for k, c := range f.contribs {
			var part machine.Word
			if c == x.me {
				part = x.takePart(f.parts[k])
			} else {
				part = x.popRecv(c)
			}
			total += part
			x.proc.Compute(1)
		}
		x.storeElem(f.elem, total)
	}
	x.proc.Note(machine.EvGather, start, x.proc.Clock(), -1, sent)

	// Fan-out phase: one vectored totals message per (root, live
	// reader) pair. Owners outside the fan-out were proven by the
	// liveness scan not to read the total before its next write.
	start = x.proc.Clock()
	for _, i := range role.root {
		f := r.items[i]
		for _, o := range f.fanout {
			x.queue(o, x.loadElem(f.elem))
		}
	}
	sent = x.flushSends()
	for _, i := range role.reads {
		x.expect(r.items[i].root)
	}
	x.drainRecvs("fanout")
	for _, i := range role.reads {
		f := r.items[i]
		x.storeElem(f.elem, x.popRecv(f.root))
	}
	x.proc.Note(machine.EvFanout, start, x.proc.Clock(), -1, sent)
}

// reduceRing runs a ring-lowered batch (Section 5): the running totals
// travel the shared contributor chain neighbor-to-neighbor — each hop
// folds its partials into the vector — and the last contributor
// delivers the totals to the root (which always stores) and the live
// readers. The root receives one message instead of len(contribs)-1,
// de-serializing the reduction hot-spot the paper's pipelined SOR
// removes.
func (x *valExec) reduceRing(r *redOp, role *redRole) {
	start := x.proc.Clock()
	sent := 0
	order := r.items[0].contribs
	k := len(order)
	last := order[k-1]
	pos := slices.Index(order, x.me)
	switch {
	case pos == 0: // root: fold stored values + own partials, start the ring
		x.rvec = x.rvec[:0]
		for _, f := range r.items {
			x.rvec = append(x.rvec, x.loadElem(f.elem)+x.part[f.parts[0]])
			x.proc.Compute(1)
		}
		x.proc.Send(order[1], x.rvec)
		sent += len(x.rvec)
		data := x.proc.Recv(last)
		if len(data) != len(r.items) {
			panic(fmt.Sprintf("exec: ring totals expected %d words, got %d", len(r.items), len(data)))
		}
		for i, f := range r.items {
			x.storeElem(f.elem, data[i])
		}
	case pos > 0 && pos < k-1: // interior hop: fold and forward
		data := x.proc.Recv(order[pos-1])
		x.rvec = x.rvec[:0]
		for i, f := range r.items {
			x.rvec = append(x.rvec, data[i]+x.part[f.parts[pos]])
			x.proc.Compute(1)
		}
		x.proc.Send(order[pos+1], x.rvec)
		sent += len(x.rvec)
		x.ringStoreTotals(r, role, last)
	case pos == k-1: // last hop: fold, then deliver the totals
		data := x.proc.Recv(order[k-2])
		x.rvec = x.rvec[:0]
		for i, f := range r.items {
			x.rvec = append(x.rvec, data[i]+x.part[f.parts[pos]])
			x.proc.Compute(1)
		}
		for _, i := range role.reads {
			x.storeElem(r.items[i].elem, x.rvec[i])
		}
		// The root always gets the full vector; live readers get their
		// items. Root = min(owners) < every fan-out rank, so sending it
		// first keeps the destinations ascending.
		x.proc.Send(r.items[0].root, x.rvec)
		sent += len(x.rvec)
		for i, f := range r.items {
			for _, o := range f.fanout {
				if o != x.me {
					x.queue(o, x.rvec[i])
				}
			}
		}
		sent += x.flushSends()
	default: // pure reader
		x.ringStoreTotals(r, role, last)
	}
	if pos >= 0 { // every hop of the chain held a partial of every item
		for _, f := range r.items {
			x.takePart(f.parts[pos])
		}
	}
	x.proc.Note(machine.EvRing, start, x.proc.Clock(), -1, sent)
}

// ringStoreTotals receives the delivery vector from the ring's last
// contributor and stores the items this processor is a live reader of.
func (x *valExec) ringStoreTotals(r *redOp, role *redRole, last int) {
	if len(role.reads) == 0 {
		return
	}
	for range role.reads {
		x.expect(last)
	}
	x.drainRecvs("ring")
	for _, i := range role.reads {
		x.storeElem(r.items[i].elem, x.popRecv(last))
	}
}
