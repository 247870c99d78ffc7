// The retired map-based lowering of an epoch's redistribution, kept
// verbatim as the oracle of lowering.lower: the same algorithm with its
// state in per-epoch maps, a pure function of the epoch's per-pair element
// lists. Only its signature changed (it took the nestBuilder and placed
// the ops itself) — it returns the ops by rank instead — and its output's
// shape: a processor holds only the rounds it sends or receives in, each
// with its number, as lowering.lower's plans do.

package exec

import (
	"slices"
	"sort"
)

// redistOp is one processor's part of an epoch in the nested shape the
// reference lowering builds and the tests compare: its rounds, each
// round's messages, each message's segments, each segment's elements.
// nested renders lowering.lower's flat plan in it.
type redistOp struct {
	rounds []redistRound
}

type redistRound struct {
	round        int32
	sends, recvs []redistMsg
}

type redistMsg struct {
	peer int32
	segs []redistSeg
}

type redistSeg struct {
	origin int32
	elems  []elemID
	addr   int32
}

// nested renders the parts of n ranks at p.ops[op0:] in the nested shape;
// an empty list is nil, as the reference leaves it.
func nested(p *redistPlan, op0 int32, n int) []redistOp {
	msgs := func(s span) []redistMsg {
		var out []redistMsg
		for _, m := range p.msgs[s.lo:s.hi] {
			var segs []redistSeg
			for _, sg := range p.segs[m.segs.lo:m.segs.hi] {
				segs = append(segs, redistSeg{origin: sg.origin, elems: slices.Clone(p.elems[sg.elems.lo:sg.elems.hi]), addr: sg.addr})
			}
			out = append(out, redistMsg{peer: m.peer, segs: segs})
		}
		return out
	}
	ops := make([]redistOp, n)
	for i := range ops {
		op := p.ops[op0+int32(i)]
		for _, rd := range p.rounds[op.lo:op.hi] {
			ops[i].rounds = append(ops[i].rounds, redistRound{round: rd.round, sends: msgs(rd.sends), recvs: msgs(rd.recvs)})
		}
	}
	return ops
}

// lowerNested lowers traffic on low into a fresh plan and returns the
// ranks and their parts in the nested shape.
func lowerNested(low *lowering, traffic []epochShip) ([]int32, []redistOp) {
	var p redistPlan
	ranks, op0 := low.lower(traffic, &p)
	return ranks, nested(&p, op0, len(ranks))
}

// lowerCollective composes the epoch's traffic into a collective
// redistribution plan. Per source, each (already deduped) element's
// destination set is classified: multi-destination elements group by
// identical destination set and each group becomes a binomial
// multicast-tree step rooted at the source (the tree moves the group
// in log2(W+1) rounds and every edge carries the group once — the
// same total words as the deduped star, with the source's send load
// spread over the relays); single-destination elements remain a
// vectored pair exchange, appended as the final round. Tree edges of
// all steps with the same stride execute in the same round, merged
// into one message per ordered pair, so every round keeps the
// one-message-per-pair sends-before-receives shape that rules out
// deadlock even on single-message channels.
func referenceLowering(pairs map[int64][]elemID) map[int32]*redistOp {
	keys := make([]int64, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	// Per source (ascending): each element's destination set, destinations
	// ascending, elements in first-ship order.
	type stepT struct {
		origin  int32
		members []int32 // origin + destinations, ascending
		rootPos int     // origin's index in members
		elems   []elemID
	}
	var steps []stepT
	residual := make(map[int64][]elemID)
	destsOf := make(map[elemID][]int32)
	var order []elemID
	var sig []byte
	for i := 0; i < len(keys); {
		src := int32(keys[i] >> 32)
		for e := range destsOf {
			delete(destsOf, e)
		}
		order = order[:0]
		for ; i < len(keys) && int32(keys[i]>>32) == src; i++ {
			dst := int32(keys[i] & 0xffffffff)
			for _, e := range pairs[keys[i]] {
				if destsOf[e] == nil {
					order = append(order, e)
				}
				destsOf[e] = append(destsOf[e], dst)
			}
		}
		groupIdx := make(map[string]int)
		for _, e := range order {
			dests := destsOf[e]
			if len(dests) == 1 {
				k := pairKey(src, dests[0])
				residual[k] = append(residual[k], e)
				continue
			}
			sig = sig[:0]
			for _, d := range dests {
				sig = append(sig, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
			}
			gi, ok := groupIdx[string(sig)]
			if !ok {
				members := make([]int32, len(dests), len(dests)+1)
				copy(members, dests)
				pos := len(members)
				for j, m := range members {
					if src < m {
						pos = j
						break
					}
				}
				members = append(members, 0)
				copy(members[pos+1:], members[pos:])
				members[pos] = src
				gi = len(steps)
				groupIdx[string(sig)] = gi
				steps = append(steps, stepT{origin: src, members: members, rootPos: pos})
			}
			steps[gi].elems = append(steps[gi].elems, e)
		}
	}

	// Round r moves every step's tree edges of stride 2^r, merged into
	// one message per ordered pair (segments in step order, identically
	// derived on both endpoints); the residual traffic is the last round.
	maxRounds := 0
	for _, st := range steps {
		d := 0
		for 1<<d < len(st.members) {
			d++
		}
		if d > maxRounds {
			maxRounds = d
		}
	}
	rounds := make([]map[int64][]redistSeg, 0, maxRounds+1)
	for r := 0; r < maxRounds; r++ {
		stride := 1 << r
		m := make(map[int64][]redistSeg)
		for si := range steps {
			st := &steps[si]
			n := len(st.members)
			for rel := 0; rel < stride && rel+stride < n; rel++ {
				snd := st.members[(st.rootPos+rel)%n]
				rcv := st.members[(st.rootPos+rel+stride)%n]
				k := pairKey(snd, rcv)
				m[k] = append(m[k], redistSeg{origin: st.origin, elems: st.elems})
			}
		}
		rounds = append(rounds, m)
	}
	if len(residual) > 0 {
		m := make(map[int64][]redistSeg)
		for k, elems := range residual {
			m[k] = []redistSeg{{origin: int32(k >> 32), elems: elems}}
		}
		rounds = append(rounds, m)
	}

	// Materialize per-processor round schedules: sends in ascending
	// destination order, then receives in ascending source order.
	ops := make(map[int32]*redistOp)
	// get returns p's list of round r; a processor holds only the rounds
	// it sends or receives in, in round order.
	get := func(p int32, r int) *redistRound {
		op := ops[p]
		if op == nil {
			op = &redistOp{}
			ops[p] = op
		}
		if n := len(op.rounds); n == 0 || op.rounds[n-1].round != int32(r) {
			op.rounds = append(op.rounds, redistRound{round: int32(r)})
		}
		return &op.rounds[len(op.rounds)-1]
	}
	ks := make([]int64, 0, 16)
	for r, m := range rounds {
		ks = ks[:0]
		for k := range m {
			ks = append(ks, k)
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		for _, k := range ks {
			snd, rcv := int32(k>>32), int32(k&0xffffffff)
			rd := get(snd, r)
			rd.sends = append(rd.sends, redistMsg{peer: rcv, segs: m[k]})
		}
		sort.Slice(ks, func(i, j int) bool {
			di, dj := ks[i]&0xffffffff, ks[j]&0xffffffff
			if di != dj {
				return di < dj
			}
			return ks[i]>>32 < ks[j]>>32
		})
		for _, k := range ks {
			snd, rcv := int32(k>>32), int32(k&0xffffffff)
			rd := get(rcv, r)
			rd.recvs = append(rd.recvs, redistMsg{peer: snd, segs: m[k]})
		}
	}
	return ops
}
