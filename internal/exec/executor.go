// The executor half of the batched engine: each processor runs its
// precomputed instruction stream (schedule.go) against dense per-array
// stores, exchanging each epoch's traffic as one vectored machine.Send
// per processor pair. All per-instance map and slice state of the old
// engine is pooled here: the stream is allocated once by the inspector
// and the executor reuses its scratch buffers across instances.

package exec

import (
	"fmt"
	"math"
	"sort"

	"dmcc/internal/dist"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
)

// valExec is one processor's value-pass state. All per-peer state is
// sparse (maps keyed by live peers) and the dense per-array stores
// materialize on first touch: at N=4096 a processor typically owns a
// handful of elements and talks to a handful of neighbours, and
// pre-sizing any of this by nprocs would make the executor itself the
// memory bottleneck the event runtime exists to remove.
type valExec struct {
	s    *progSchedule
	proc machine.Port
	me   int
	// store/has are the per-array local stores, nil until the processor
	// first writes or receives an element of that array; has marks
	// elements this processor actually wrote or received, for the
	// first-owner result assembly.
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

func newValExec(s *progSchedule, proc machine.Port) *valExec {
	return &valExec{
		s: s, proc: proc, me: proc.Rank(),
		store:    make([][]float64, len(s.arrays)),
		has:      make([][]bool, len(s.arrays)),
		partials: make(map[elemID]float64),
		cbuf:     make(map[int32]map[elemID]machine.Word),
		curVals:  make([]float64, 0, 8),
		rsend:    make(map[int][]machine.Word),
		rrecv:    make(map[int]*vbuf),
		rneed:    make(map[int]int),
	}
}

// ensure materializes array a's dense store on first touch.
func (x *valExec) ensure(a int) {
	if x.store[a] == nil {
		x.store[a] = make([]float64, x.s.arrays[a].size)
		x.has[a] = make([]bool, x.s.arrays[a].size)
	}
}

// rbuf returns the (created-on-demand) reduction receive buffer for src.
func (x *valExec) rbuf(src int) *vbuf {
	b := x.rrecv[src]
	if b == nil {
		b = &vbuf{}
		x.rrecv[src] = b
	}
	return b
}

// inputLoads is the pre-decoded initial state, bucketed by owner
// coordinates: one shared structure per run, read by every processor.
// The old per-processor loadInput re-parsed every input key and asked
// IsOwner per (processor, element) — an O(nprocs * elements) scan with
// string parsing inside, which at N=256 already dominated whole-run
// profiles and at N=4096 dwarfs the simulation itself. Here the input
// is decoded once: each element's owner coordinates fold (over the grid
// dimensions the scheme does not replicate along) into an integer
// bucket key, and a processor installs exactly the buckets matching its
// own coordinates.
type inputLoads struct {
	arrays []arrayLoads
}

// arrayLoads buckets one array's initial elements. allDim[d] marks grid
// dimensions the scheme replicates along (owner coordinate All): those
// are skipped by the fold, so every processor along them reads the same
// bucket. The mask is per-scheme constant — All entries come from
// Replicated dims and Fixed[d]=All, never from the subscripts.
type arrayLoads struct {
	allDim []bool
	bucket map[int][]elemVal
}

type elemVal struct {
	elem elemID
	val  float64
}

// buildLoads decodes and buckets the initial array contents.
func buildLoads(s *progSchedule, input ir.Storage) (*inputLoads, error) {
	g := s.ss.Grid
	loads := &inputLoads{arrays: make([]arrayLoads, len(s.arrays))}
	for a, am := range s.arrays {
		elems := input[am.name]
		if len(elems) == 0 {
			continue
		}
		sch := am.sch
		al := arrayLoads{bucket: make(map[int][]elemVal)}
		for key, v := range elems {
			idx := parseKey(key)
			coords := sch.GridCoords(g, idx...)
			if al.allDim == nil {
				al.allDim = make([]bool, g.Q())
				for d, c := range coords {
					al.allDim[d] = c == dist.All
				}
			}
			k := 0
			for d, c := range coords {
				if al.allDim[d] {
					continue
				}
				k = k*g.Extent(d) + c
			}
			e, ok := s.elemOf(a, idx)
			if !ok {
				return nil, fmt.Errorf("exec: input element %s(%s) outside extents %v", am.name, key, am.ext)
			}
			al.bucket[k] = append(al.bucket[k], elemVal{e, v})
		}
		loads.arrays[a] = al
	}
	return loads, nil
}

// installInput installs this processor's slice of the pre-bucketed
// initial state, free of charge.
func (x *valExec) installInput(loads *inputLoads) {
	g := x.s.ss.Grid
	for a := range loads.arrays {
		al := &loads.arrays[a]
		if al.bucket == nil {
			continue
		}
		k := 0
		for d := 0; d < g.Q(); d++ {
			if al.allDim[d] {
				continue
			}
			k = k*g.Extent(d) + g.Coord(x.me, d)
		}
		for _, ev := range al.bucket[k] {
			x.storeElem(ev.elem, ev.val)
		}
	}
}

// loadElem reads an element of the local store; never-touched arrays
// read as zero, matching the dense store's (and the old engine map's)
// default.
func (x *valExec) loadElem(e elemID) float64 {
	if s := x.store[e.arr()]; s != nil {
		return s[e.off()]
	}
	return 0
}

func (x *valExec) storeElem(e elemID, v float64) {
	x.ensure(e.arr())
	x.store[e.arr()][e.off()] = v
	x.has[e.arr()][e.off()] = true
}

// load resolves one RHS operand: the redirected reduce accumulator,
// then received remote slots (matched by element, like the old values
// map), then the local dense store (zero for never-written elements,
// matching the old map's default).
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
			x.reduceBatch(ns.reds[in.arg])
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
// contributors in ascending order — so values stay bit-identical.
func (x *valExec) reduceBatch(r *redOp) {
	if r.ring {
		x.reduceRing(r)
		return
	}

	// Gather phase: one vectored partials message per (contributor,
	// root) pair, items in batch order on both ends so cursors align.
	start := x.proc.Clock()
	for _, f := range r.items {
		if x.me != f.root && contains(f.contribs, x.me) {
			x.rsend[f.root] = append(x.rsend[f.root], x.partials[f.elem])
		}
	}
	sent := x.flushSends()
	for _, f := range r.items {
		if x.me == f.root {
			for _, c := range f.contribs {
				if c != x.me {
					x.rneed[c]++
				}
			}
		}
	}
	x.drainRecvs("gather")
	for _, f := range r.items {
		if x.me == f.root {
			total := x.loadElem(f.elem)
			for _, c := range f.contribs {
				var part machine.Word
				if c == f.root {
					part = x.partials[f.elem]
				} else {
					part = x.popRecv(c)
				}
				total += part
				x.proc.Compute(1)
			}
			x.storeElem(f.elem, total)
		}
		delete(x.partials, f.elem)
	}
	x.proc.Note(machine.EvGather, start, x.proc.Clock(), -1, sent)

	// Fan-out phase: one vectored totals message per (root, live
	// reader) pair. Owners outside the fan-out were proven by the
	// liveness scan not to read the total before its next write.
	start = x.proc.Clock()
	for _, f := range r.items {
		if x.me == f.root {
			for _, o := range f.fanout {
				x.rsend[o] = append(x.rsend[o], x.loadElem(f.elem))
			}
		}
	}
	sent = x.flushSends()
	for _, f := range r.items {
		if x.me != f.root && contains(f.fanout, x.me) {
			x.rneed[f.root]++
		}
	}
	x.drainRecvs("fanout")
	for _, f := range r.items {
		if x.me != f.root && contains(f.fanout, x.me) {
			x.storeElem(f.elem, x.popRecv(f.root))
		}
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
func (x *valExec) reduceRing(r *redOp) {
	start := x.proc.Clock()
	sent := 0
	order := r.items[0].contribs
	k := len(order)
	last := order[k-1]
	switch pos := indexOf(order, x.me); {
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
		x.ringStoreTotals(r, last)
	case pos == k-1: // last hop: fold, then deliver the totals
		data := x.proc.Recv(order[k-2])
		x.rvec = x.rvec[:0]
		for i, f := range r.items {
			total := data[i] + x.partials[f.elem]
			x.proc.Compute(1)
			x.rvec = append(x.rvec, total)
			if contains(f.owners, x.me) {
				x.storeElem(f.elem, total)
			}
		}
		// The root always gets the full vector; live readers get their
		// items. Root = min(owners) < every fan-out rank, so sending it
		// first keeps the destinations ascending.
		x.proc.Send(r.items[0].root, x.rvec)
		sent += len(x.rvec)
		for i, f := range r.items {
			for _, o := range f.fanout {
				if o != x.me {
					x.rsend[o] = append(x.rsend[o], x.rvec[i])
				}
			}
		}
		sent += x.flushSends()
	default: // pure reader
		x.ringStoreTotals(r, last)
	}
	for _, f := range r.items {
		delete(x.partials, f.elem)
	}
	x.proc.Note(machine.EvRing, start, x.proc.Clock(), -1, sent)
}

// ringStoreTotals receives the delivery vector from the ring's last
// contributor and stores the items this processor is a live reader of.
func (x *valExec) ringStoreTotals(r *redOp, last int) {
	for _, f := range r.items {
		if x.me != last && contains(f.fanout, x.me) {
			x.rneed[last]++
		}
	}
	if x.rneed[last] == 0 {
		return
	}
	x.drainRecvs("ring")
	for _, f := range r.items {
		if x.me != last && contains(f.fanout, x.me) {
			x.storeElem(f.elem, x.popRecv(last))
		}
	}
}
