// The executor half of the batched engine: each processor runs its
// precomputed instruction stream (schedule.go) against stores of the
// elements it owns, exchanging each epoch's traffic as one vectored
// machine.Send per processor pair. The stream is allocated once by the
// inspector and the executor reuses its scratch buffers across instances.

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
// each array and nothing else (schedule.go's shared tables turn a global
// element into a local offset), and the per-peer state is sparse maps made
// on first use — a processor that never reduces or relays makes none. At
// N=4096 a processor typically owns a handful of elements and talks to a
// handful of neighbours; sizing any of this by the array or by nprocs
// would make the executor itself the memory bottleneck the machine's
// sparse queues exist to remove.
type valExec struct {
	s    *progSchedule
	proc machine.Port
	me   int
	// store[a] and has[a] are this processor's cell of array a, addressed
	// through arrayMeta.loc; has marks the elements the processor actually
	// wrote or received, for the first-marked-owner result assembly.
	store [][]float64
	has   [][]bool
	// partials holds running partial sums of reduce statements.
	partials map[elemID]float64
	// cbuf holds collectively-redistributed operand values keyed by the
	// origin (first-owner) rank and element: filled by opRedist rounds,
	// forwarded by tree relays, and read by eval's non-direct slots.
	// Entries are overwritten in place — a buffered copy stays valid
	// until its element is written, and the inspector re-ships after
	// every write, so a stale value is never visible.
	cbuf map[int32]map[elemID]machine.Word
	// iv is the reusable loop vector for RHS evaluation.
	iv []int
	// current eval context for load.
	curSlots  []slot
	curVals   []float64
	curReduce bool
	curAcc    elemID
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

// newValExec allocates the processor's stores: one slab of values and one
// of marks, cut into the cells the processor holds.
func newValExec(s *progSchedule, proc machine.Port) *valExec {
	x := &valExec{
		s: s, proc: proc, me: proc.Rank(),
		store: make([][]float64, len(s.arrays)),
		has:   make([][]bool, len(s.arrays)),
	}
	words := s.storeWords(x.me)
	vals, marks := make([]float64, words), make([]bool, words)
	for a := range s.arrays {
		n := s.arrays[a].storeLen(x.me)
		x.store[a], vals = vals[:n:n], vals[n:]
		x.has[a], marks = marks[:n:n], marks[n:]
	}
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
			idx, _ := appendSubs(buf[:0], key)
			e, _ := s.elemOf(a, idx)
			c := am.cell[e.off()]
			loads[a][c] = append(loads[a][c], elemVal{e, v})
		}
	}
	return loads
}

// installInput installs this processor's slice of the pre-bucketed
// initial state, free of charge.
func (x *valExec) installInput(loads []map[int32][]elemVal) {
	for a, bucket := range loads {
		for _, ev := range bucket[x.s.arrays[a].rankCell[x.me]] {
			x.storeElem(ev.elem, ev.val)
		}
	}
}

// local is e's place in this processor's stores. Only an owner holds an
// element: every other access the inspector schedules goes through a
// shipped slot or a buffered copy, so an element of another cell here is
// an inspector bug, and behind the shared offset table it would alias an
// element the processor does own — a panic, which the machine reports as
// Run's error, not a wrong number.
func (x *valExec) local(e elemID) (a, i int) {
	a = e.arr()
	am, off := &x.s.arrays[a], e.off()
	if am.cell[off] != am.rankCell[x.me] {
		idx := x.s.decode(e)
		panic(fmt.Sprintf("exec: processor %d accesses %s%v, which it does not own", x.me, am.name, idx))
	}
	return a, int(am.loc[off])
}

// loadElem reads an owned element; one never written reads as zero.
func (x *valExec) loadElem(e elemID) float64 {
	a, i := x.local(e)
	return x.store[a][i]
}

func (x *valExec) storeElem(e elemID, v float64) {
	a, i := x.local(e)
	x.store[a][i] = v
	x.has[a][i] = true
}

// load resolves one RHS operand: the redirected reduce accumulator,
// then received remote slots (matched by element), then the local store.
func (x *valExec) load(r *lref) float64 {
	e, err := x.s.elemAt(r, x.iv)
	if err != nil {
		// Every RHS reference is one of the statement's Reads, which the
		// inspector resolved for this very instance.
		panic(err)
	}
	if x.curReduce && e == x.curAcc {
		return x.partials[e]
	}
	for i := range x.curSlots {
		if x.curSlots[i].elem == e {
			return x.curVals[i]
		}
	}
	return x.loadElem(e)
}

// runNest executes this processor's instruction stream for one nest.
func (x *valExec) runNest(ns *nestSchedule) {
	stream := ns.procs[x.me]
	for i := range stream {
		in := &stream[i]
		switch in.op {
		case opRedist:
			x.runRedist(ns.redists[in.arg])
		case opSendDirect:
			x.proc.SendValue(int(in.arg), x.loadElem(in.elem))
		case opRed:
			r := ns.reds[in.arg]
			x.reduceBatch(r, &r.roles[in.envOff])
		case opEval:
			x.eval(ns, in)
		}
	}
}

// runRedist executes one epoch's collective redistribution. Each round
// sends its merged messages in ascending destination order, then
// receives in ascending source order — one message per ordered pair
// per round. A segment whose origin is this processor gathers from the
// local store; a relayed segment forwards the words buffered (under the
// origin's rank) in an earlier round.
func (x *valExec) runRedist(op *redistOp) {
	for r := range op.rounds {
		rd := &op.rounds[r]
		for i := range rd.sends {
			msg := &rd.sends[i]
			x.gather = x.gather[:0]
			for _, seg := range msg.segs {
				if int(seg.origin) == x.me {
					for _, e := range seg.elems {
						x.gather = append(x.gather, x.loadElem(e))
					}
				} else {
					cb := x.cbuf[seg.origin]
					for _, e := range seg.elems {
						w, ok := cb[e]
						if !ok {
							panic(fmt.Sprintf("exec: collective relay at %d missing element %d of origin %d", x.me, e, seg.origin))
						}
						x.gather = append(x.gather, w)
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
				cb := x.cbuf[seg.origin]
				if cb == nil {
					if x.cbuf == nil {
						x.cbuf = make(map[int32]map[elemID]machine.Word)
					}
					cb = make(map[elemID]machine.Word)
					x.cbuf[seg.origin] = cb
				}
				for _, e := range seg.elems {
					if pos >= len(data) {
						panic(fmt.Sprintf("exec: collective round from %d short by %d words", msg.peer, pos-len(data)+1))
					}
					cb[e] = data[pos]
					pos++
				}
			}
			if pos != len(data) {
				panic(fmt.Sprintf("exec: collective round from %d expected %d words, got %d", msg.peer, pos, len(data)))
			}
		}
	}
}

// eval receives the instance's remote operands (buffered copies and
// direct one-word messages, in the shared global order) and, unless this
// processor is a receive-only replica of a reduction, evaluates the
// statement.
func (x *valExec) eval(ns *nestSchedule, in *pinstr) {
	slots := ns.slots[in.slotOff : in.slotOff+in.slotN]
	x.curVals = x.curVals[:0]
	for _, sl := range slots {
		var v float64
		if sl.direct {
			v = x.proc.RecvValue(int(sl.src))
		} else {
			w, ok := x.cbuf[sl.src][sl.elem]
			if !ok {
				panic(fmt.Sprintf("exec: collective buffer at %d missing element %d of origin %d", x.me, sl.elem, sl.src))
			}
			v = w
		}
		x.curVals = append(x.curVals, v)
	}
	if in.role == roleRecvOnly {
		return
	}
	stmt := &ns.stmts[in.stmt]
	x.iv = x.iv[:0]
	for _, v := range ns.envs[in.envOff : int(in.envOff)+stmt.Depth] {
		x.iv = append(x.iv, int(v))
	}
	x.curSlots = slots
	x.curReduce = in.role == roleReduce
	x.curAcc = in.elem
	v := x.evalExpr(stmt.rhs)
	if in.role == roleReduce {
		if x.partials == nil {
			x.partials = make(map[elemID]float64)
		}
		x.partials[in.elem] = v
	} else {
		if math.IsNaN(v) {
			panic(fmt.Sprintf("exec: NaN at %s line %d", stmt.LHS, stmt.Line))
		}
		x.storeElem(in.elem, v)
	}
	x.proc.Compute(stmt.Flops)
}

// evalExpr evaluates a lowered right-hand side at the loop vector x.iv.
func (x *valExec) evalExpr(e *lexpr) float64 {
	switch e.op {
	case lNum:
		return e.val
	case lRef:
		return x.load(&e.ref)
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
	for _, i := range role.contrib {
		if f := r.items[i]; f.root != x.me {
			x.queue(f.root, x.partials[f.elem])
			delete(x.partials, f.elem)
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
		for _, c := range f.contribs {
			var part machine.Word
			if c == x.me {
				part = x.partials[f.elem]
				delete(x.partials, f.elem)
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
			x.rvec = append(x.rvec, x.loadElem(f.elem)+x.partials[f.elem])
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
			x.rvec = append(x.rvec, data[i]+x.partials[f.elem])
			x.proc.Compute(1)
		}
		x.proc.Send(order[pos+1], x.rvec)
		sent += len(x.rvec)
		x.ringStoreTotals(r, role, last)
	case pos == k-1: // last hop: fold, then deliver the totals
		data := x.proc.Recv(order[k-2])
		x.rvec = x.rvec[:0]
		for i, f := range r.items {
			x.rvec = append(x.rvec, data[i]+x.partials[f.elem])
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
			delete(x.partials, f.elem)
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
