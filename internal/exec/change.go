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

import (
	"cmp"
	"slices"
)

// changeEpoch is the schedule of one scheme change.
type changeEpoch struct {
	// ops[r] is one past the index of rank r's part of the lowered
	// redistribution in the ops of the plan of the segment after the
	// change, 0 where r takes none.
	ops []int32
	// copies[at[r]:at[r+1]] are the runs rank r copies from its stores
	// under from to its stores under to.
	copies []copyRun
	at     []int32
	// words is what the redistribution moves: one word per (element,
	// owner under to that lacks it).
	words int
}

// copyRun is n consecutive words of rank r's store slab under from, at
// from, kept at to in its slab under to.
type copyRun struct{ r, from, to, n int32 }

// redistEpoch schedules, into c, the change from one segment's layouts to
// the next's, lowered into to's plan with ws's lowering and scratch. The
// owners that keep an element read their copy at the change, and from's
// liveness scan must count that read: a copy pruned from a reduction's
// fan-out is stale, and the change would carry it into the next segment
// as current.
func redistEpoch(c *changeEpoch, from, to *progSchedule, ws *workspace) *changeEpoch {
	c.ops, c.at, c.copies = zeroed(c.ops, from.nprocs), zeroed(c.at, from.nprocs+1), c.copies[:0]
	traffic, keep := ws.ships[:0], ws.keep
	ws.last = zeroed(ws.last, from.nprocs)
	last := ws.last // one past the index of rank r's latest run

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
				if i := last[d] - 1; i >= 0 && c.copies[i].from+c.copies[i].n == f && c.copies[i].to+c.copies[i].n == t {
					c.copies[i].n++
				} else {
					c.copies = append(c.copies, copyRun{int32(d), f, t, 1})
					last[d] = int32(len(c.copies))
					c.at[d+1]++
				}
			}
			if from.redArrs[a] && len(keep) > 0 {
				from.noteRead(e, keep)
			}
		}
	}
	slices.SortStableFunc(c.copies, func(a, b copyRun) int { return cmp.Compare(a.r, b.r) })
	for r := range from.nprocs {
		c.at[r+1] += c.at[r]
	}
	c.words, ws.ships, ws.keep = len(traffic), traffic, keep
	if len(traffic) > 0 {
		// An origin gathers from its slab under from; a relay, itself a
		// destination, forwards from its slab under to, where every receiver
		// files the words. The sender's executor under to runs the change.
		ranks, op0 := ws.lower(traffic, &to.plan)
		to.plan.address(ranks, op0, to.vecLen, func(r int32, origin bool, e elemID) int32 {
			at := to
			if origin {
				at = from
			}
			off, _ := at.slabOff(int(r), e)
			return off
		})
		for i, r := range ranks {
			c.ops[r] = op0 + int32(i) + 1
		}
	}
	return c
}

// runChange crosses the change into x's segment from prev's, prev being
// this rank's executor of the segment before: the copies it keeps (on the
// first call, stage 0), then the redistribution's rounds, gathered at an
// origin from prev's stores and filed in x's, from which a relay forwards
// them. Every element x's rank owns is one or the other.
func (x *valExec) runChange(c *changeEpoch, prev *valExec) bool {
	if x.stage == 0 {
		slab, marks := x.stores(), x.marked()
		pslab, pmarks := prev.stores(), prev.marked()
		for _, cp := range c.copies[c.at[x.me]:c.at[x.me+1]] {
			copy(slab[cp.to:cp.to+cp.n], pslab[cp.from:cp.from+cp.n])
			copy(marks[cp.to:cp.to+cp.n], pmarks[cp.from:cp.from+cp.n])
		}
	}
	op := c.ops[x.me] - 1
	return op < 0 || x.runRedist(op, prev.stores(), x.stores(), x.marked())
}
