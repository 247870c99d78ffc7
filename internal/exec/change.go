// A scheme change between two plan segments, as an exec epoch. Every
// element of every array moves from its layout under the segment before
// the change (from) to its layout under the segment after it (to): an
// owner under to that owned the element under from keeps its copy, which
// moves locally between its two stores, and every other owner under to
// receives it from the element's first owner under from. Those ships are
// one epoch's traffic, lowered like a nest epoch's (lowering.lower: one
// word per destination, multicast trees), so a change moves on the
// machine exactly its transfer set, dist.RedistLoadsExact's Words.

package exec

import "slices"

// changeEpoch is the schedule of one scheme change.
type changeEpoch struct {
	// ops[r] is rank r's part of the lowered redistribution, nil where r
	// takes none; addrs holds its segments' addresses (address).
	ops   []*redistOp
	addrs []int32
	// copies[r] lists the runs rank r copies from its stores under from
	// to its stores under to.
	copies [][]copyRun
	// words is what the redistribution moves: one word per (element,
	// owner under to that lacks it).
	words int
}

// copyRun is n consecutive words of a rank's store slab under from, at
// from, kept at to in its slab under to.
type copyRun struct{ from, to, n int32 }

// redistEpoch schedules the change from one segment's layouts to the
// next's. The owners that keep an element read their copy at the change,
// and from's liveness scan must count that read: a copy pruned from a
// reduction's fan-out is stale, and the change would carry it into the
// next segment as current.
func redistEpoch(from, to *progSchedule, low *lowering) *changeEpoch {
	c := &changeEpoch{ops: make([]*redistOp, from.nprocs), copies: make([][]copyRun, from.nprocs)}
	var traffic []epochShip
	var keep []int
	for a := range from.arrays {
		lf, lt := &from.arrays[a].lay, &to.arrays[a].lay
		for off := range from.arrays[a].size {
			e, src := mkElem(a, off), lf.owners(off)
			keep = keep[:0]
			for _, d := range lt.owners(off) {
				if _, held := slices.BinarySearch(src, d); !held {
					traffic = append(traffic, epochShip{pairKey(int32(src[0]), int32(d)), e})
					continue
				}
				keep = append(keep, d)
				f, _ := from.slabOff(d, e)
				t, _ := to.slabOff(d, e)
				c.copy(d, f, t)
			}
			if _, live := from.acc[e]; live && len(keep) > 0 {
				from.noteRead(e, keep)
			}
		}
	}
	c.words = len(traffic)
	if len(traffic) > 0 {
		ranks, ops := low.lower(traffic)
		c.address(from, to, ranks, ops)
		for i, r := range ranks {
			c.ops[r] = &ops[i]
		}
	}
	return c
}

// copy adds one kept element to rank r's copy runs.
func (c *changeEpoch) copy(r int, from, to int32) {
	runs := c.copies[r]
	if n := len(runs); n > 0 && runs[n-1].from+runs[n-1].n == from && runs[n-1].to+runs[n-1].n == to {
		runs[n-1].n++
		return
	}
	c.copies[r] = append(runs, copyRun{from, to, 1})
}

// address writes every segment's addresses into addrs, as a nest epoch's
// (nestBuilder.address): the sender's, then the receiver's. An origin
// gathers from its slab under from; a relay, itself a destination,
// forwards from its slab under to, where every receiver files the words.
// The sender's executor under to runs the change, so its exchange vector
// is sized to the messages.
func (c *changeEpoch) address(from, to *progSchedule, ranks []int32, ops []redistOp) {
	for i := range ops {
		snd := int(ranks[i])
		for r := range ops[i].rounds {
			for _, msg := range ops[i].rounds[r].sends {
				words := int32(0)
				for k := range msg.segs {
					seg := &msg.segs[k]
					words += int32(len(seg.elems))
					seg.addr = int32(len(c.addrs))
					at := to
					if snd == int(seg.origin) {
						at = from
					}
					for _, e := range seg.elems {
						off, _ := at.slabOff(snd, e)
						c.addrs = append(c.addrs, off)
					}
					for _, e := range seg.elems {
						off, _ := to.slabOff(int(msg.peer), e)
						c.addrs = append(c.addrs, off)
					}
				}
				to.vecLen[snd] = max(to.vecLen[snd], words)
			}
		}
	}
}

// runChange crosses the change into x's segment from prev's, prev being
// this rank's executor of the segment before: the copies it keeps (on the
// first call, stage 0), then the redistribution's rounds, gathered at an
// origin from prev's stores and filed in x's, from which a relay forwards
// them. Every element x's rank owns is one or the other.
func (x *valExec) runChange(c *changeEpoch, prev *valExec) bool {
	if x.stage == 0 {
		for _, cp := range c.copies[x.me] {
			copy(x.slab[cp.to:cp.to+cp.n], prev.slab[cp.from:cp.from+cp.n])
			copy(x.marks[cp.to:cp.to+cp.n], prev.marks[cp.from:cp.from+cp.n])
		}
	}
	op := c.ops[x.me]
	return op == nil || x.runRedist(c.addrs, op, prev.slab, x.slab, x.marks)
}
