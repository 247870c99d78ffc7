package dist

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dmcc/internal/grid"
)

// setSeeds is the fixed seed list of the randomized set tests; a failure
// prints seed, trial and operands, so it replays by running that seed.
var setSeeds = []int64{1, 2, 3, 5, 8, 13, 21, 34}

// randSet draws a set with a random mask (sometimes empty or full) over
// a small interval that may straddle zero.
func randSet(rng *rand.Rand) IndexSet {
	p := 1 + rng.Intn(7)
	lo := -12 + rng.Intn(20)
	hi := lo - 2 + rng.Intn(30)
	member := make([]bool, p)
	for r := range member {
		member[r] = rng.Intn(3) > 0
	}
	return Periodic(lo, hi, member)
}

// randWideSet draws a set of period p whose mask spans several words:
// sparse, dense, empty or full, over an interval of up to three periods
// that may straddle zero, so that count windows wrap.
func randWideSet(rng *rand.Rand, p int) IndexSet {
	lo := -300 + rng.Intn(400)
	hi := lo - 2 + rng.Intn(3*p+10)
	member := make([]bool, p)
	switch rng.Intn(5) {
	case 0: // sparse
		for k := 1 + rng.Intn(3); k > 0; k-- {
			member[rng.Intn(p)] = true
		}
	case 1: // full
		for r := range member {
			member[r] = true
		}
	case 2: // empty
	default:
		for r := range member {
			member[r] = rng.Intn(3) > 0
		}
	}
	return Periodic(lo, hi, member)
}

// wideOperands draws the two operands of a wide-mask trial: periods up to
// 200, the second one equal to the first, a multiple or divisor of it, or
// unrelated — the word-at-a-time, the lifting and the lcm paths.
func wideOperands(rng *rand.Rand) (IndexSet, IndexSet) {
	pa := 1 + rng.Intn(200)
	pb := 1 + rng.Intn(200)
	switch rng.Intn(4) {
	case 0, 1:
		pb = pa
	case 2:
		if d := 1 + rng.Intn(pa); pa%d == 0 {
			pb = d
		} else {
			pb = pa * (2 + rng.Intn(2))
		}
	}
	return randWideSet(rng, pa), randWideSet(rng, pb)
}

// residue reads bit r of s's mask straight from its words, the oracle's
// view of the set independent of the methods under test.
func residue(s IndexSet, r int) bool { return s.mask[r/64]>>(r%64)&1 == 1 }

// members enumerates s by brute force.
func members(s IndexSet) []int {
	var out []int
	for v := s.Lo; v <= s.Hi; v++ {
		if residue(s, ((v%s.Period)+s.Period)%s.Period) {
			out = append(out, v)
		}
	}
	return out
}

func inRange(xs []int, l, h int) []int {
	var out []int
	for _, x := range xs {
		if x >= l && x <= h {
			out = append(out, x)
		}
	}
	return out
}

// TestIndexSetMatchesEnumeration checks every operation of the set
// algebra against brute-force enumeration of the members.
func TestIndexSetMatchesEnumeration(t *testing.T) {
	for _, seed := range setSeeds {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 300; trial++ {
			a, b := randSet(rng), randSet(rng)
			l, h := -15+rng.Intn(30), -15+rng.Intn(40)
			sign, c := 1-2*rng.Intn(2), -9+rng.Intn(19)
			checkSetOps(t, fmt.Sprintf("seed %d trial %d", seed, trial), a, b, l, h, sign, c)
		}
	}
}

// TestIndexSetWideMasksMatchEnumeration is the same check on masks of up
// to 200 residues — several words, partial last words, windows that wrap
// a word or the period, and shifts and reflections by amounts that are
// not multiples of 64.
func TestIndexSetWideMasksMatchEnumeration(t *testing.T) {
	for _, seed := range setSeeds {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 150; trial++ {
			a, b := wideOperands(rng)
			l, h := -320+rng.Intn(500), -320+rng.Intn(1000)
			sign, c := 1-2*rng.Intn(2), -250+rng.Intn(501)
			checkSetOps(t, fmt.Sprintf("seed %d wide trial %d", seed, trial), a, b, l, h, sign, c)
		}
	}
}

// checkSetOps compares each operation on a (and a ∩ b) with the
// enumeration of the operands' members.
func checkSetOps(t *testing.T, label string, a, b IndexSet, l, h, sign, c int) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s a=%+v b=%+v [l,h]=[%d,%d] sign=%d c=%d: %s",
			label, a, b, l, h, sign, c, fmt.Sprintf(format, args...))
	}
	ma, mb := members(a), members(b)

	if got := a.Count(); got != int64(len(ma)) {
		fail("Count = %d, want %d", got, len(ma))
	}
	if got := a.Empty(); got != (len(ma) == 0) {
		fail("Empty = %v with %d members", got, len(ma))
	}
	if got, want := a.CountIn(l, h), len(inRange(ma, l, h)); got != int64(want) {
		fail("CountIn = %d, want %d", got, want)
	}
	for v := a.Lo - 3; v <= a.Hi+3; v++ {
		if got, want := a.Contains(v), slices.Contains(ma, v); got != want {
			fail("Contains(%d) = %v, want %v", v, got, want)
		}
	}
	mn, okMin := a.Min()
	mx, okMax := a.Max()
	if okMin != (len(ma) > 0) || okMax != (len(ma) > 0) {
		fail("Min ok=%v Max ok=%v with %d members", okMin, okMax, len(ma))
	}
	if len(ma) > 0 && (mn != ma[0] || mx != ma[len(ma)-1]) {
		fail("Min, Max = %d, %d, want %d, %d", mn, mx, ma[0], ma[len(ma)-1])
	}
	if got, want := members(a.Clip(l, h)), inRange(ma, l, h); !slices.Equal(got, want) {
		fail("Clip = %v, want %v", got, want)
	}

	var both []int
	for _, v := range ma {
		if slices.Contains(mb, v) {
			both = append(both, v)
		}
	}
	if got := members(a.Intersect(b)); !slices.Equal(got, both) {
		fail("Intersect = %v, want %v", got, both)
	}
	if got := a.Within(b); got != (len(both) == len(ma)) {
		fail("Within = %v with %d of %d members in b", got, len(both), len(ma))
	}
	if got := b.Within(a); got != (len(both) == len(mb)) {
		fail("b.Within(a) = %v with %d of %d members in a", got, len(both), len(mb))
	}

	var img []int
	for _, v := range ma {
		img = append(img, sign*v+c)
	}
	slices.Sort(img)
	if got := members(a.AffineImage(sign, c)); !slices.Equal(got, img) {
		fail("AffineImage = %v, want %v", got, img)
	}
	var pre []int
	for _, y := range ma {
		pre = append(pre, sign*(y-c))
	}
	slices.Sort(pre)
	if got := members(a.AffinePreimage(sign, c)); !slices.Equal(got, pre) {
		fail("AffinePreimage = %v, want %v", got, pre)
	}

	if !a.Equal(a.Clip(a.Lo, a.Hi)) || a.Equal(a.Clip(a.Lo+1, a.Hi)) {
		fail("Equal is not structural equality")
	}
}

// TestIndexSetOpsDoNotWriteThrough pins the invariant the allocation-free
// paths rest on: Intersect, Clip and AffineImage may hand back an
// operand's mask, so nothing may ever write through a mask. A random
// chain of operations feeds its own results back in as operands (that is
// how shared masks meet each other); every result must equal the
// enumeration computed from the operands' member lists, and at the end
// every set the chain ever held must still have the mask and the members
// it had when it was made.
func TestIndexSetOpsDoNotWriteThrough(t *testing.T) {
	type held struct {
		set  IndexSet
		mask []uint64
		want []int
	}
	for _, seed := range setSeeds {
		rng := rand.New(rand.NewSource(seed))
		var pool []held
		hold := func(s IndexSet, want []int, how string) {
			t.Helper()
			if got := members(s); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: %s = %v (%+v), enumeration %v", seed, len(pool), how, got, s, want)
			}
			pool = append(pool, held{s, slices.Clone(s.mask), want})
		}
		for i := 0; i < 6; i++ {
			s := randSet(rng)
			hold(s, members(s), "randSet")
		}
		for i := 0; i < 2; i++ {
			s := randWideSet(rng, 64+rng.Intn(80))
			hold(s, members(s), "randWideSet")
		}
		full := Interval(-12, 20)
		hold(full, members(full), "Interval")
		for step := 0; step < 400; step++ {
			a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			l, h := -15+rng.Intn(30), -15+rng.Intn(40)
			// Half the shifts are whole periods: the mask-sharing image.
			sign, c := 1-2*rng.Intn(2), (-2+rng.Intn(5))*a.set.Period+rng.Intn(2)*rng.Intn(a.set.Period)
			switch rng.Intn(5) {
			case 0:
				var both []int
				for _, v := range a.want {
					if slices.Contains(b.want, v) {
						both = append(both, v)
					}
				}
				hold(a.set.Intersect(b.set), both, fmt.Sprintf("%+v.Intersect(%+v)", a.set, b.set))
			case 1:
				hold(a.set.Clip(l, h), inRange(a.want, l, h), fmt.Sprintf("%+v.Clip(%d, %d)", a.set, l, h))
			case 2:
				var img []int
				for _, v := range a.want {
					img = append(img, sign*v+c)
				}
				slices.Sort(img)
				hold(a.set.AffineImage(sign, c), img, fmt.Sprintf("%+v.AffineImage(%d, %d)", a.set, sign, c))
			case 3:
				var pre []int
				for _, y := range a.want {
					pre = append(pre, sign*(y-c))
				}
				slices.Sort(pre)
				hold(a.set.AffinePreimage(sign, c), pre, fmt.Sprintf("%+v.AffinePreimage(%d, %d)", a.set, sign, c))
			default:
				mn, okMin := a.set.Min()
				mx, okMax := a.set.Max()
				n := len(a.want)
				if a.set.Count() != int64(n) || a.set.Empty() != (n == 0) || okMin != (n > 0) || okMax != (n > 0) ||
					n > 0 && (mn != a.want[0] || mx != a.want[n-1]) ||
					a.set.CountIn(l, h) != int64(len(inRange(a.want, l, h))) || a.set.Contains(l) != slices.Contains(a.want, l) {
					t.Fatalf("seed %d step %d: counts of %+v disagree with its members %v", seed, step, a.set, a.want)
				}
			}
		}
		for i, e := range pool {
			if !slices.Equal(e.set.mask, e.mask) || !slices.Equal(members(e.set), e.want) {
				t.Fatalf("seed %d: set %d %+v was written through: made with mask %v and members %v", seed, i, e.set, e.mask, e.want)
			}
		}
		masks := map[*uint64]bool{}
		for _, e := range pool {
			masks[&e.set.mask[0]] = true
		}
		if len(masks) > len(pool)/2 {
			t.Fatalf("seed %d: %d sets over %d distinct masks — the sharing paths did not engage", seed, len(pool), len(masks))
		}
	}
}

// distDims are the partitioned dimension shapes of Section 2.1 the owned
// set must reproduce: contiguous, cyclic and block-cyclic, both index
// directions, with a displacement that is not the default -1.
func distDims(size, n int) map[string]Dim {
	dims := map[string]Dim{}
	for _, sign := range []int{1, -1} {
		for _, extra := range []int{0, 3} {
			disp := -1 + extra // z = i + disp >= 0 on 1..size
			if sign == -1 {
				disp = size + extra // z = disp - i >= 0 on 1..size
			}
			zmax := max(sign*1+disp, sign*size+disp)
			tag := fmt.Sprintf("sign%+d-disp%d", sign, disp)
			dims["contiguous-"+tag] = Dim{Sign: sign, Disp: disp, Block: ceilDiv(zmax+1, n)}
			dims["cyclic-"+tag] = Dim{Sign: sign, Disp: disp, Block: 1, Cyclic: true}
			dims["blockcyclic-"+tag] = Dim{Sign: sign, Disp: disp, Block: 3, Cyclic: true}
		}
	}
	return dims
}

// TestOwnedPatternMatchesOwnedIndices checks OwnedPatternOf against the
// mapDim-scanning Scheme.OwnedIndices.
func TestOwnedPatternMatchesOwnedIndices(t *testing.T) {
	for _, n := range []int{1, 3, 4} {
		for _, size := range []int{1, 7, 16, 29} {
			g := grid.New(n)
			for name, d := range distDims(size, n) {
				s := Scheme1D(d, nil)
				if err := s.Validate(g, []int{size}); err != nil {
					t.Fatalf("%s n=%d size=%d: %v", name, n, size, err)
				}
				for a := 0; a < n; a++ {
					set := OwnedPatternOf(d, n, a, size)
					want := s.OwnedIndices(g, 0, size, a)
					if got := members(set); !slices.Equal(got, want) {
						t.Errorf("%s n=%d size=%d coord %d: set %+v has members %v, OwnedIndices %v",
							name, n, size, a, set, got, want)
					}
				}
			}
			if got := OwnedPatternOf(Replicated(0), n, 0, size); got.Count() != int64(size) || got.Lo != 1 {
				t.Errorf("replicated n=%d size=%d: %+v, want all of 1..%d", n, size, got, size)
			}
		}
	}
}

// TestDimJointCountsMatchesBuckets checks the per-dimension joint count
// table against a per-index bucket of mapDim pairs for all nine
// replicated / contiguous / cyclic combinations: the table must list
// exactly the non-empty pairs, in (aF, aT) order, with their counts.
func TestDimJointCountsMatchesBuckets(t *testing.T) {
	kinds := []string{"replicated", "contiguous", "cyclic"}
	kindOf := func(d Dim) string {
		switch {
		case d.Replicated:
			return "replicated"
		case d.Cyclic:
			return "cyclic"
		}
		return "contiguous"
	}
	draw := func(rng *rand.Rand, kind string, size, n int) Dim {
		for {
			if d := randomDim(rng, size, n, 0); kindOf(d) == kind {
				return d
			}
		}
	}
	for _, kF := range kinds {
		for _, kT := range kinds {
			for _, seed := range setSeeds {
				rng := rand.New(rand.NewSource(seed))
				for trial := 0; trial < 25; trial++ {
					size := 1 + rng.Intn(40)
					nF, nT := 1+rng.Intn(6), 1+rng.Intn(6)
					dF, dT := draw(rng, kF, size, nF), draw(rng, kT, size, nT)
					gF, gT := grid.New(nF), grid.New(nT)

					bucket := map[[2]int]int64{}
					for i := 1; i <= size; i++ {
						bucket[[2]int{dF.mapDim(gF, i), dT.mapDim(gT, i)}]++
					}
					var want []coordPair
					for k, c := range bucket {
						want = append(want, coordPair{k[0], k[1], c})
					}
					slices.SortFunc(want, func(x, y coordPair) int {
						if x.aF != y.aF {
							return x.aF - y.aF
						}
						return x.aT - y.aT
					})

					got := new(jointScratch).dimJointCounts(nil, dF, nF, dT, nT, size)
					if !slices.Equal(got, want) {
						t.Fatalf("%s x %s seed %d trial %d size=%d dF=%+v nF=%d dT=%+v nT=%d:\n got %v\nwant %v",
							kF, kT, seed, trial, size, dF, nF, dT, nT, got, want)
					}
				}
			}
		}
	}
}

// jointCountsPairwise is the joint count table by the nF x nT double loop
// over the two dims' owned sets — every pair tried, the empty ones
// dropped — kept as the oracle of dimJointCounts' merge. Two cyclic dims
// have no intervals to pair and go to jointCyclicCyclic, as there.
func jointCountsPairwise(dF Dim, nF int, dT Dim, nT int, size int) []coordPair {
	cycF, cycT := dF.Cyclic && !dF.Replicated, dT.Cyclic && !dT.Replicated
	if cycF && cycT {
		return jointCyclicCyclic(nil, dF, nF, dT, nT, size)
	}
	coordsF, setsF := ownedIntervals(nil, nil, dF, nF, size)
	coordsT, setsT := ownedIntervals(nil, nil, dT, nT, size)
	var out []coordPair
	for i, a := range coordsF {
		for j, b := range coordsT {
			var c int64
			switch {
			case cycF:
				c = cyclicCountIn(dF, nF, a, setsT[j].Lo, setsT[j].Hi)
			case cycT:
				c = cyclicCountIn(dT, nT, b, setsF[i].Lo, setsF[i].Hi)
			default:
				c = int64(min(setsF[i].Hi, setsT[j].Hi) - max(setsF[i].Lo, setsT[j].Lo) + 1)
			}
			if c > 0 {
				out = append(out, coordPair{a, b, c})
			}
		}
	}
	return out
}

// TestDimJointCountsMatchesPairwise checks the interval merge against the
// double loop on wide grids: n up to 1024, both index directions,
// displaced and slack blocks — so that many coordinates own nothing —
// beside replicated and cyclic partners.
func TestDimJointCountsMatchesPairwise(t *testing.T) {
	for _, seed := range setSeeds {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 40; trial++ {
			size := 1 + rng.Intn(3000)
			nF, nT := 1+rng.Intn(1024), 1+rng.Intn(1024)
			draw := func(n int) Dim {
				d := randomDim(rng, size, n, 0)
				if !d.Cyclic && !d.Replicated && rng.Intn(3) == 0 {
					d.Block += rng.Intn(d.Block + 1) // slack: the top coordinates own nothing
				}
				return d
			}
			dF, dT := draw(nF), draw(nT)
			got, want := new(jointScratch).dimJointCounts(nil, dF, nF, dT, nT, size), jointCountsPairwise(dF, nF, dT, nT, size)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d trial %d size=%d dF=%+v nF=%d dT=%+v nT=%d:\n got %v\nwant %v",
					seed, trial, size, dF, nF, dT, nT, got, want)
			}
		}
	}
}

// TestCountOwnersMatchesOwners checks CountOwners against the owners of
// a set's members, found by mapDim one member at a time: every coordinate
// gets its members' count, the coordinate list names each coordinate with
// a member once and no other, and a counts slice cleared along that list
// serves the next set. Sets are drawn inside the dimension, with periods
// equal to, a multiple or divisor of, or unrelated to the dimension's
// n*Block, and spans on both sides of the lcm of the two periods.
func TestCountOwnersMatchesOwners(t *testing.T) {
	for _, seed := range setSeeds {
		rng := rand.New(rand.NewSource(seed))
		counts := make([]int64, 40)
		for trial := 0; trial < 200; trial++ {
			size, n := 1+rng.Intn(60), 1+rng.Intn(40)
			d := randomDim(rng, size, n, 0)
			g := grid.New(n)
			p := 1
			switch rng.Intn(4) {
			case 1:
				p = n * max(d.Block, 1)
			case 2:
				p = n * max(d.Block, 1) * (1 + rng.Intn(3))
			case 3:
				p = 1 + rng.Intn(70)
			}
			member := make([]bool, p)
			for r := range member {
				member[r] = rng.Intn(3) == 0
			}
			lo := 1 + rng.Intn(size)
			s := Periodic(lo, lo+rng.Intn(size-lo+1), member)
			want, ms := make([]int64, n), members(s)
			for _, x := range ms {
				if a := d.mapDim(g, x); a == All {
					want[0]++
				} else {
					want[a]++
				}
			}
			coords := s.CountOwners(d, n, counts, nil)
			listed := make([]bool, n)
			for _, a := range coords {
				if listed[a] || want[a] == 0 {
					t.Fatalf("seed %d trial %d: d=%+v n=%d set %+v: coordinate %d listed twice or owning no member (list %v)",
						seed, trial, d, n, s, a, coords)
				}
				listed[a] = true
			}
			for a := 0; a < n; a++ {
				if counts[a] != want[a] || want[a] != 0 && !listed[a] {
					t.Fatalf("seed %d trial %d: d=%+v n=%d set %+v (members %v): coordinate %d counted %d, listed %v, owns %d",
						seed, trial, d, n, s, ms, a, counts[a], listed[a], want[a])
				}
			}
			for _, a := range coords {
				counts[a] = 0
			}
		}
	}
}
