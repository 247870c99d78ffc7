// The lowering of one epoch's batched ships to a collective
// redistribution: binomial multicast trees for elements with several
// destinations, one vectored pair exchange for the rest, put in send and
// receive order by counting passes over the epoch's ranks. Lowering an
// epoch takes time in what it moves, in scratch every epoch reuses, and
// allocates only when an array of the plan it appends to must grow.

package exec

import (
	"cmp"
	"math/bits"
	"slices"
)

// redistPlan holds the lowered redistributions of one plan segment — its
// nests' epochs and the scheme change into it — in flat, pointer-free
// arrays addressed by int32 ranges. ops[i] is one processor's part of one
// epoch (an opRedist's arg, a changeEpoch's ops entry), a range of rounds.
// Each round exchanges at most one merged vectored message per ordered
// processor pair, and every processor sends its round messages before
// receiving any, which keeps the exchange deadlock-free even on
// single-message channels. Binomial multicast-tree rounds come first
// (round r moves tree edges of stride 2^r, so a relay always receives a
// step's payload in an earlier round than it forwards it), and the
// residual single-destination traffic is the final round, one vectored
// message per pair. A processor holds only the rounds in which it sends
// or receives, in round order.
type redistPlan struct {
	ops    []span // into rounds
	rounds []planRound
	msgs   []planMsg
	segs   []planSeg
	elems  []elemID
	// addrs holds every segment's addresses (planSeg.addr).
	addrs []int32
}

// reset empties the plan, keeping its arrays' storage.
func (p *redistPlan) reset() {
	*p = redistPlan{p.ops[:0], p.rounds[:0], p.msgs[:0], p.segs[:0], p.elems[:0], p.addrs[:0]}
}

// span is the range [lo, hi) of one of a plan's arrays.
type span struct{ lo, hi int32 }

func (s span) n() int { return int(s.hi - s.lo) }

// add extends the span to index i: its end, or anywhere if it is empty.
func (s *span) add(i int32) {
	if s.lo == s.hi {
		s.lo = i
	}
	s.hi = i + 1
}

// planRound is one processor's messages in one round: sends in ascending
// peer (destination) order, receives in ascending peer (source) order,
// each a range of msgs.
type planRound struct {
	round        int32
	sends, recvs span
}

// planMsg is one merged round message: the segments of every tree step
// (and residual pair list) crossing this ordered pair this round,
// concatenated in step order. Both endpoints' messages hold the same range
// of segs, so the wire layout needs no header.
type planMsg struct {
	peer int32
	segs span
}

// planSeg is one origin's element run inside a merged message. The sender
// gathers it from its store slab when it is the origin, or forwards the
// copies it received in an earlier round; the receiver files the words in
// its copy buffer. The segment's addresses, written after the epoch is
// lowered, are addrs[addr:addr+2*elems.n()]: the sender's (slab offsets at
// the origin, buffer positions at a relay), then the receiver's buffer
// positions.
type planSeg struct {
	origin int32
	elems  span
	addr   int32
}

// extend lengthens s by n zeroed elements, at least doubling its capacity
// when it must grow, and returns it with the index of the first new one.
func extend[T any](s []T, n int) ([]T, int32) {
	at := len(s)
	s = grow(s, n)[:at+n]
	clear(s[at:])
	return s, int32(at)
}

// epochShip is one batched ship: e from its first owner to an executor, k =
// pairKey(owner, executor), at most once per (e, executor) and epoch.
type epochShip struct {
	k int64
	e elemID
}

func pairKey(src, dst int32) int64 { return int64(src)<<32 | int64(dst) }

// lowering is lower's scratch, a workspace's, reused by every epoch its
// runs close. Per source: pos is a dense index, per
// array, of the source's elements — pos[a][off] is one past the element's
// index in order (the source's elements in first-ship order), zero for
// none, cleared through order when the source is done — xs the index of
// each of the source's ships, and order[x]'s destinations, ascending, are
// dests[start[x]:start[x+1]]. The arenas members and elems hold every
// tree step's members and every step's and residual pair's element run.
// Per epoch: ranks are its ranks, ascending, and at[r] is r's index in
// ranks (at grows to the largest rank so far; an entry of a rank outside
// the epoch is stale and never read), inEpoch is index's bitset and ints the
// counting passes' indices and counters.
type lowering struct {
	pos                    [][]int32
	order, elems           []elemID
	xs, start, fill, dests []int32
	multi, members, ranks  []int32
	at, ints               []int32
	inEpoch                []uint64
	steps                  []treeStep
	resid, edges           []edge
	msgs                   []roundMsg
	// tap (tests only) sees each epoch's sorted traffic and its plan,
	// ranks[i]'s part at p.ops[op0+i], before the plan is addressed;
	// evalTap (tests only) sees each opEval as it is emitted — rank p's
	// instruction at of the nest — with the instance's loop vector.
	tap     func(traffic []epochShip, ranks []int32, p *redistPlan, op0 int32)
	evalTap func(ns *nestSchedule, p, at int, iv []int)
}

// treeStep is one multicast tree: the elements of one origin sharing one
// destination set, ordered among the origin's steps by the first-ship
// index of their first element; members (origin + destinations,
// ascending, the origin at rootPos) and elems are arena ranges.
type treeStep struct {
	origin, first, rootPos int32
	members, elems         [2]int32
}

// edge is one round's segment: origin's element run crossing pair k.
type edge struct {
	round, origin int32
	k             int64
	elems         [2]int32
}

// roundMsg is one merged message: one round's segments on one pair.
type roundMsg struct {
	round, snd, rcv int32
	segs            span
}

// lower composes one epoch's traffic into a collective redistribution
// plan, appended to p, and returns the participating ranks, ascending (l's
// scratch, valid until the next call), and op0: ranks[i]'s part is
// p.ops[op0+i]. Per source (ascending), each element's destination set is
// classified: multi-destination elements group by identical destination
// set and each group becomes a binomial multicast-tree step rooted at the
// source (the tree moves the group in log2(W+1) rounds and every edge
// carries the group once — the same total words as the deduped star, with
// the source's send load spread over the relays); single-destination
// elements remain a vectored pair exchange, appended as the final round.
// Tree edges of all steps with the same stride execute in the same round,
// merged into one message per ordered pair, so every round keeps the
// one-message-per-pair sends-before-receives shape that rules out
// deadlock even on single-message channels.
//
// A stable sort by pair key gives each pair's elements in ship order;
// nothing else is sorted by comparison. The epoch's ranks are numbered
// densely (index), and stable counting passes over those numbers put the
// edges and the receive lists in order. The work is in the epoch's ships,
// steps, edges and ranks, in l's reused scratch, and the plan (element
// runs, segments shared by a message's two ends, sends, receives, the
// (rank, round) lists that carry a message, ops) is appended to p's
// arrays.
func (l *lowering) lower(traffic []epochShip, p *redistPlan) ([]int32, int32) {
	slices.SortStableFunc(traffic, func(a, b epochShip) int { return cmp.Compare(a.k, b.k) })
	l.index(traffic)
	l.members, l.elems, l.steps, l.resid, l.edges = l.members[:0], l.elems[:0], l.steps[:0], l.resid[:0], l.edges[:0]
	for i := 0; i < len(traffic); {
		j := i + 1
		for j < len(traffic) && traffic[j].k>>32 == traffic[i].k>>32 {
			j++
		}
		l.source(int32(traffic[i].k>>32), traffic[i:j])
		i = j
	}

	// Round r moves every step's tree edges of stride 2^r (segments in step
	// order); the residual traffic is the last round. A tree of n members
	// has n-1 edges.
	l.edges = grow(l.edges, len(l.members)-len(l.steps)+len(l.resid))
	rounds := 0
	for _, st := range l.steps {
		rounds = max(rounds, bits.Len(uint(st.members[1]-st.members[0]-1)))
	}
	for r := range rounds {
		for _, st := range l.steps {
			mem, stride := l.members[st.members[0]:st.members[1]], 1<<r
			n, root := len(mem), int(st.rootPos)
			for rel := 0; rel < stride && rel+stride < n; rel++ {
				k := pairKey(mem[(root+rel)%n], mem[(root+rel+stride)%n])
				l.edges = append(l.edges, edge{round: int32(r), origin: st.origin, k: k, elems: st.elems})
			}
		}
	}
	for _, e := range l.resid {
		e.round = int32(rounds)
		l.edges = append(l.edges, e)
	}
	if len(l.resid) > 0 {
		rounds++
	}

	// Into send order, (sender, round, receiver), one message per run, by
	// stable counting passes: by receiver, then by (sender, round).
	n, m := len(l.edges), len(l.ranks)*rounds
	slot := func(rank, round int32) int { return int(l.at[rank])*rounds + int(round) } // rounds' index
	l.ints = grow(l.ints[:0], 2*n+m)[:2*n+m]
	perm, tmp, count := l.ints[:n], l.ints[n:2*n], l.ints[2*n:]
	for i := range perm {
		perm[i] = int32(i)
	}
	order(tmp, perm, count[:len(l.ranks)], func(x int32) int { return int(l.at[int32(l.edges[x].k)]) })
	order(perm, tmp, count, func(x int32) int { return slot(int32(l.edges[x].k>>32), l.edges[x].round) })
	var e0, s0 int32
	p.elems, e0 = extend(p.elems, len(l.elems))
	copy(p.elems[e0:], l.elems)
	p.segs, s0 = extend(p.segs, n)
	l.msgs = grow(l.msgs[:0], n)
	for i, x := range perm {
		e, at := &l.edges[x], s0+int32(i)
		p.segs[at] = planSeg{origin: e.origin, elems: span{e0 + e.elems[0], e0 + e.elems[1]}}
		if n := len(l.msgs); n > 0 && e.round == l.edges[perm[i-1]].round && e.k == l.edges[perm[i-1]].k {
			l.msgs[n-1].segs.hi++
		} else {
			l.msgs = append(l.msgs, roundMsg{round: e.round, snd: int32(e.k >> 32), rcv: int32(e.k), segs: span{at, at + 1}})
		}
	}
	// Receive order: a stable pass by (receiver, round) of the sends.
	for i := range l.msgs {
		tmp[i] = int32(i)
	}
	order(perm[:len(l.msgs)], tmp[:len(l.msgs)], count, func(x int32) int { return slot(l.msgs[x].rcv, l.msgs[x].round) })

	// Only the (rank, round) slots a message leaves or reaches get a
	// round list: live[s] is slot s's list in p.rounds, and a rank's lists
	// are a run of them in round order.
	live, lists := count, int32(0)
	clear(live)
	for _, msg := range l.msgs {
		for _, s := range [2]int{slot(msg.snd, msg.round), slot(msg.rcv, msg.round)} {
			if live[s] == 0 {
				live[s], lists = 1, lists+1
			}
		}
	}
	var op0, r0 int32
	p.ops, op0 = extend(p.ops, len(l.ranks))
	p.rounds, r0 = extend(p.rounds, int(lists))
	k := r0
	for i := range l.ranks {
		k0 := k
		for r := range int32(rounds) {
			if s := i*rounds + int(r); live[s] != 0 {
				live[s], p.rounds[k].round = k, r
				k++
			}
		}
		p.ops[op0+int32(i)] = span{k0, k}
	}

	// Per processor and round: sends in ascending destination order, then
	// receives in ascending source order, each a run of msgs.
	var m0 int32
	p.msgs, m0 = extend(p.msgs, 2*len(l.msgs))
	for i, msg := range l.msgs {
		at := m0 + int32(i)
		p.msgs[at] = planMsg{peer: msg.rcv, segs: msg.segs}
		p.rounds[live[slot(msg.snd, msg.round)]].sends.add(at)
	}
	for i, x := range perm[:len(l.msgs)] {
		msg, at := &l.msgs[x], m0+int32(len(l.msgs)+i)
		p.msgs[at] = planMsg{peer: msg.snd, segs: msg.segs}
		p.rounds[live[slot(msg.rcv, msg.round)]].recvs.add(at)
	}
	if l.tap != nil {
		l.tap(traffic, l.ranks, p, op0)
	}
	return l.ranks, op0
}

// address writes the addresses of every segment of the epoch whose ranks'
// parts are p.ops[op0:] into addrs (see planSeg), from the send that
// carries it — a segment is shared by its message's two ends — and sizes
// each sender's exchange vector, vecLen, to its messages. addr gives an
// element's address at rank r, the sender when origin says whether it is
// the segment's origin, or a receiver.
func (p *redistPlan) address(ranks []int32, op0 int32, vecLen []int32, addr func(r int32, origin bool, e elemID) int32) {
	for i, snd := range ranks {
		op := p.ops[op0+int32(i)]
		for _, rd := range p.rounds[op.lo:op.hi] {
			for _, msg := range p.msgs[rd.sends.lo:rd.sends.hi] {
				words := int32(0)
				for k := msg.segs.lo; k < msg.segs.hi; k++ {
					seg := &p.segs[k]
					elems := p.elems[seg.elems.lo:seg.elems.hi]
					words += int32(len(elems))
					seg.addr = int32(len(p.addrs))
					p.addrs = grow(p.addrs, 2*len(elems))
					for _, e := range elems {
						p.addrs = append(p.addrs, addr(snd, snd == seg.origin, e))
					}
					for _, e := range elems {
						p.addrs = append(p.addrs, addr(msg.peer, false, e))
					}
				}
				vecLen[snd] = max(vecLen[snd], words)
			}
		}
	}
}

// index numbers the epoch's ranks, the ends of its ships: marked in inEpoch,
// collected in order by a scan that clears it.
func (l *lowering) index(traffic []epochShip) {
	top := int32(0)
	for _, t := range traffic {
		top = max(top, int32(t.k>>32), int32(t.k))
	}
	if n := int(top) + 1; n > len(l.at) {
		l.at = append(l.at, make([]int32, n-len(l.at))...)
		l.inEpoch = append(l.inEpoch, make([]uint64, n/64+1-len(l.inEpoch))...)
	}
	for _, t := range traffic {
		for _, r := range [2]int32{int32(t.k >> 32), int32(t.k)} {
			l.inEpoch[r/64] |= 1 << (r % 64)
		}
	}
	l.ranks = l.ranks[:0]
	for w := range l.inEpoch[:top/64+1] {
		for b := l.inEpoch[w]; b != 0; b &= b - 1 {
			r := int32(w*64 + bits.TrailingZeros64(b))
			l.at[r] = int32(len(l.ranks))
			l.ranks = append(l.ranks, r)
		}
		l.inEpoch[w] = 0
	}
}

// order is a stable counting sort of the indices in into out by key, in
// [0, len(count)): a count per key, turned into the offset of its run.
func order(out, in, count []int32, key func(int32) int) {
	clear(count)
	for _, x := range in {
		count[key(x)]++
	}
	for k, sum := 0, int32(0); k < len(count); k++ {
		count[k], sum = sum, sum+count[k]
	}
	for _, x := range in {
		p := &count[key(x)]
		out[*p] = x
		*p++
	}
}

// source classifies one source's traffic, sorted by destination: an
// element shipped to one destination joins that pair's residual run, the
// others group by destination set into tree steps, ordered by their first
// element.
func (l *lowering) source(src int32, run []epochShip) {
	l.order, l.start, l.xs = l.order[:0], l.start[:0], l.xs[:0]
	for _, t := range run {
		at := l.posOf(t.e)
		x := *at - 1
		if x < 0 {
			x = int32(len(l.order))
			*at = x + 1
			l.order = append(l.order, t.e)
			l.start = append(l.start, 0)
		}
		l.xs = append(l.xs, x)
		l.start[x]++
	}
	// Counts to offsets, then each element's destinations in run order.
	l.start = append(l.start, 0)
	for x, sum := 0, int32(0); x < len(l.start); x++ {
		l.start[x], sum = sum, sum+l.start[x]
	}
	l.fill = append(l.fill[:0], l.start...)
	l.dests = slices.Grow(l.dests[:0], len(run))[:len(run)]
	for i, x := range l.xs {
		l.dests[l.fill[x]] = int32(run[i].k)
		l.fill[x]++
	}
	dests := func(x int32) []int32 { return l.dests[l.start[x]:l.start[x+1]] }

	for i, t := range run {
		if len(dests(l.xs[i])) > 1 {
			continue
		}
		if n := len(l.resid); n > 0 && l.resid[n-1].k == t.k {
			l.resid[n-1].elems[1]++
		} else {
			e0 := int32(len(l.elems))
			l.resid = append(l.resid, edge{origin: src, k: t.k, elems: [2]int32{e0, e0 + 1}})
		}
		l.elems = append(l.elems, t.e)
	}

	l.multi = l.multi[:0]
	for x := range l.order {
		if len(dests(int32(x))) > 1 {
			l.multi = append(l.multi, int32(x))
		}
	}
	slices.SortStableFunc(l.multi, func(a, b int32) int { return slices.Compare(dests(a), dests(b)) })
	s0 := len(l.steps)
	for a := 0; a < len(l.multi); {
		d, b := dests(l.multi[a]), a+1
		for b < len(l.multi) && slices.Equal(dests(l.multi[b]), d) {
			b++
		}
		root, _ := slices.BinarySearch(d, src)
		m0, e0 := int32(len(l.members)), int32(len(l.elems))
		l.members = append(append(append(l.members, d[:root]...), src), d[root:]...)
		for _, x := range l.multi[a:b] {
			l.elems = append(l.elems, l.order[x])
		}
		l.steps = append(l.steps, treeStep{origin: src, first: l.multi[a], rootPos: int32(root),
			members: [2]int32{m0, int32(len(l.members))}, elems: [2]int32{e0, int32(len(l.elems))}})
		a = b
	}
	slices.SortFunc(l.steps[s0:], func(a, b treeStep) int { return cmp.Compare(a.first, b.first) })
	for _, e := range l.order {
		*l.posOf(e) = 0
	}
}

// posOf is e's entry of the index pos, which grows to hold it.
func (l *lowering) posOf(e elemID) *int32 {
	a, off := e.arr(), e.off()
	if a >= len(l.pos) {
		l.pos = append(l.pos, make([][]int32, a+1-len(l.pos))...)
	}
	if off >= len(l.pos[a]) {
		l.pos[a] = append(l.pos[a], make([]int32, off+1-len(l.pos[a]))...)
	}
	return &l.pos[a][off]
}
