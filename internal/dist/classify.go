// Scheme-pair classification for collective redistribution lowering.
//
// A scheme change decomposes, per grid dimension, into one of four
// shapes: identity (same coordinate function on both sides), a
// partition remap (block<->cyclic, displacement/sign change, or a grid
// reshape — concrete coordinates on both sides), a replication widening
// (concrete -> All), or a replication narrowing (All -> concrete).
// Following Rink et al. ("Memory-efficient array redistribution through
// portable collective communication", PAPERS.md), any such change
// lowers to a short composed sequence of collective steps:
//
//	stage 1  AllToAll   personalized exchange delivering exactly one
//	                    copy of each element to a root inside every
//	                    widened destination group (free when a source
//	                    owner already sits in the group);
//	stage 2  Multicast  a binomial tree per widened group fanning the
//	                    payload out to the group's W members,
//	                    O(m log W) instead of the O(m (W-1)) star a
//	                    point-to-point transport pays.
//
// Narrowing is free (every destination already holds a copy), and a
// pure remap degenerates to the single AllToAll stage, whose bottleneck
// per-processor load is the same as the point-to-point transport's —
// the composed lowering is never priced worse, and is asymptotically
// cheaper whenever replication widens.
package dist

import (
	"fmt"
	"math/bits"

	"dmcc/internal/grid"
)

// ChangeKind classifies what happens to one grid dimension's coordinate
// function across a scheme change.
type ChangeKind int

const (
	// ChangeNone: identical coordinate function on both sides.
	ChangeNone ChangeKind = iota
	// ChangeRemap: concrete on both sides but different functions
	// (block<->cyclic, block size, displacement, sign, or reshape).
	ChangeRemap
	// ChangeWiden: concrete -> All; the destination replicates along
	// this grid dimension, so the lowering fans out over a multicast
	// tree of the dimension's extent.
	ChangeWiden
	// ChangeNarrow: All -> concrete; every destination already holds a
	// copy, no traffic.
	ChangeNarrow
)

func (k ChangeKind) String() string {
	switch k {
	case ChangeNone:
		return "none"
	case ChangeRemap:
		return "remap"
	case ChangeWiden:
		return "widen"
	case ChangeNarrow:
		return "narrow"
	}
	return fmt.Sprintf("ChangeKind(%d)", int(k))
}

// StepKind identifies one collective step of a redistribution plan.
type StepKind int

const (
	// StepAllToAll is the stage-1 personalized exchange.
	StepAllToAll StepKind = iota
	// StepMulticast is the stage-2 per-group broadcast tree.
	StepMulticast
)

func (k StepKind) String() string {
	if k == StepMulticast {
		return "multicast"
	}
	return "all-to-all"
}

// Step is one collective step of a redistribution plan.
type Step struct {
	Kind StepKind
	// Dims are the widened grid dimensions (multicast steps only).
	Dims []int
	// Words is the step's wire traffic: total exchanged words for
	// all-to-all, full-tree words (payload x (W-1) per group) for
	// multicast.
	Words float64
}

// RedistPlan is the composed collective lowering of one array's scheme change
// together with the quantities the cost engine prices.
type RedistPlan struct {
	// PerDim classifies each destination-grid dimension.
	PerDim []ChangeKind
	// WidenDims are the grid dimensions with ChangeWiden, ascending.
	WidenDims []int
	// WidenGroup is the multicast tree size W: the product of the
	// widened dimensions' extents (1 when nothing widens).
	WidenGroup int
	// Exchange holds the stage-1 per-processor loads; its MaxLoad is
	// the AllToAll bottleneck, identical to the point-to-point
	// transport's when nothing widens.
	Exchange Loads
	// MulticastWords is the largest per-group stage-2 payload: the
	// words the busiest widened group's roots push down their trees.
	MulticastWords float64
	// Steps is the short composed sequence, in execution order; empty
	// when the change moves no data.
	Steps []Step
}

// Time prices the plan under per-word cost tc: the AllToAll bottleneck
// load plus the busiest group's multicast tree depth.
func (pl RedistPlan) Time(tc float64) float64 {
	t := pl.Exchange.MaxLoad() * tc
	if pl.WidenGroup > 1 && pl.MulticastWords > 0 {
		t += pl.MulticastWords * float64(log2Ceil(pl.WidenGroup)) * tc
	}
	return t
}

// allAlong reports whether scheme s replicates along grid dimension gd:
// either gd is fixed to All or a replicated array dimension maps to it.
func allAlong(s Scheme, gd int) bool {
	if c, ok := s.Fixed[gd]; ok {
		return c == All
	}
	for _, d := range s.Dims {
		if d.GridDim == gd && d.Replicated {
			return true
		}
	}
	return false
}

// sameCoordFn reports whether grid dimension gd computes the same
// coordinate under both schemes (a best-effort syntactic check: equal
// Fixed values, or the same array dimension mapped with an identical
// distribution and no rotation difference).
func sameCoordFn(gFrom, gTo *grid.Grid, from, to Scheme, gd int) bool {
	cF, okF := from.Fixed[gd]
	cT, okT := to.Fixed[gd]
	if okF || okT {
		return okF && okT && cF == cT
	}
	kF, kT := -1, -1
	for k, d := range from.Dims {
		if d.GridDim == gd {
			kF = k
		}
	}
	for k, d := range to.Dims {
		if d.GridDim == gd {
			kT = k
		}
	}
	if kF < 0 || kT < 0 || kF != kT {
		return false
	}
	if from.Dims[kF] != to.Dims[kT] {
		return false
	}
	if gFrom.Extent(gd) != gTo.Extent(gd) {
		return false
	}
	rotF := from.Rot != NoRotation
	rotT := to.Rot != NoRotation
	if rotF || rotT {
		return from.Rot == to.Rot && from.D1 == to.D1 && from.D2 == to.D2
	}
	return true
}

// ClassifyChange classifies the scheme change per grid dimension and
// builds the composed collective plan with its priced loads. The grids
// must have the same total processor count; widening is only detected
// when the grids have the same shape (a reshape degenerates to a pure
// AllToAll plan, priced like the point-to-point transport).
func ClassifyChange(gFrom, gTo *grid.Grid, shape []int, from, to Scheme) (RedistPlan, error) {
	sameShape := gFrom.Q() == gTo.Q()
	if sameShape {
		for gd := 0; gd < gTo.Q(); gd++ {
			if gFrom.Extent(gd) != gTo.Extent(gd) {
				sameShape = false
				break
			}
		}
	}

	pl := RedistPlan{PerDim: make([]ChangeKind, gTo.Q()), WidenGroup: 1, Exchange: NewLoads()}
	for gd := 0; gd < gTo.Q(); gd++ {
		switch {
		case !sameShape:
			pl.PerDim[gd] = ChangeRemap
		case sameCoordFn(gFrom, gTo, from, to, gd):
			pl.PerDim[gd] = ChangeNone
		case allAlong(to, gd) && !allAlong(from, gd):
			pl.PerDim[gd] = ChangeWiden
			pl.WidenDims = append(pl.WidenDims, gd)
			pl.WidenGroup *= gTo.Extent(gd)
		case allAlong(from, gd) && !allAlong(to, gd):
			pl.PerDim[gd] = ChangeNarrow
		default:
			pl.PerDim[gd] = ChangeRemap
		}
	}

	widened := make([]bool, gTo.Q())
	for _, gd := range pl.WidenDims {
		widened[gd] = true
	}

	// Visit the joint coordinate cells like RedistLoads, but split each
	// cell's traffic into the stage-1 exchange and the stage-2 per-group
	// multicast payload. The walk validates both schemes before its first
	// visit; the classification above only compares their fields.
	groupWords := map[int]float64{}
	var exchangeWords, mcastTreeWords float64
	err := walkJointCells(gFrom, gTo, shape, from, to, func(c jointCell) {
		cnt := float64(c.cnt)
		// Group destinations into widened-dimension cosets; the key is
		// the rank of the member with widened coordinates zeroed.
		groups := map[int][]int{}
		coords := make([]int, gTo.Q())
		for _, d := range c.dst {
			for gd := range coords {
				coords[gd] = gTo.Coord(d, gd)
				if widened[gd] {
					coords[gd] = 0
				}
			}
			key := gTo.Rank(coords...)
			groups[key] = append(groups[key], d)
		}
		var srcRanks []int
		for key, members := range groups {
			root := -1
			needy := 0
			for _, m := range members {
				if c.srcOwns(m) {
					if root < 0 {
						root = m
					}
				} else {
					needy++
				}
			}
			if needy == 0 {
				continue
			}
			if root < 0 {
				// Stage 1: ship one copy to the group root, the send
				// split evenly across the source owners as in
				// RedistLoads.
				root = members[0]
				needy--
				if srcRanks == nil {
					srcRanks = c.src()
				}
				pl.Exchange.In[root] += cnt
				share := cnt / float64(len(srcRanks))
				for _, r := range srcRanks {
					pl.Exchange.Out[r] += share
				}
				pl.Exchange.Words += cnt
				exchangeWords += cnt
			}
			// Stage 2: the group's tree fans cnt words out to the
			// remaining members (skipped entirely when the root was the
			// only needy member).
			if needy > 0 {
				groupWords[key] += cnt
				mcastTreeWords += cnt * float64(len(members)-1)
			}
		}
	})
	if err != nil {
		return RedistPlan{}, err
	}

	for _, w := range groupWords {
		if w > pl.MulticastWords {
			pl.MulticastWords = w
		}
	}
	if pl.WidenGroup > 1 && pl.MulticastWords > 0 {
		// When the tree offers no advantage (a small widen group next to
		// a concurrent remap: depth log2(W) is not below star width W-1
		// once the stage-1 exchange serializes in front of it), the
		// better lowering is the flat personalized exchange; fall back
		// to it so the composed plan is never priced above the
		// point-to-point transport.
		ref, err := RedistLoads(gFrom, gTo, shape, from, to)
		if err != nil {
			return RedistPlan{}, err
		}
		if pl.Time(1) > ref.MaxLoad() {
			pl.MulticastWords = 0
			pl.Exchange = ref
			if ref.Words > 0 {
				pl.Steps = append(pl.Steps, Step{Kind: StepAllToAll, Words: ref.Words})
			}
			return pl, nil
		}
	}
	if exchangeWords > 0 {
		pl.Steps = append(pl.Steps, Step{Kind: StepAllToAll, Words: exchangeWords})
	}
	if pl.WidenGroup > 1 && mcastTreeWords > 0 {
		pl.Steps = append(pl.Steps, Step{Kind: StepMulticast, Dims: pl.WidenDims, Words: mcastTreeWords})
	}
	return pl, nil
}

// log2Ceil returns ceil(log2(n)), 0 for n <= 1: the depth of a binomial
// tree over n members.
func log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
