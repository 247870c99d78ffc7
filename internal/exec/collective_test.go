// The collective redistribution lowering: the gauss word drop it was
// built for, the lowering against its retired map-based reference and
// the determinism of the schedules it feeds.

package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

// TestCollectiveGaussWordDrop: at m=64 on 16 processors the composed
// collective transport must move at least 5x fewer words than the
// point-to-point vectored exchange it replaced (144150 words and 18820
// messages when that lowering was deleted; the bar is 28830 words),
// while staying bit-identical to RunExact on values and flops and never
// exceeding the per-element transport (only-drop).
func TestCollectiveGaussWordDrop(t *testing.T) {
	const m, n = 64, 16
	const p2pWords, p2pMessages = 144150, 18820
	p := ir.Gauss()
	a, bvec, _ := matrix.DiagonallyDominant(m, 401)
	input := loadLinearSystem(p, a, bvec, nil)
	ss := wholeProgramSchemes(t, p, m, n)
	bind := map[string]int{"m": m}
	cfg := machine.DefaultConfig()

	coll, err := Run(p, ss, bind, nil, 1, cfg, input)
	if err != nil {
		t.Fatalf("collective: %v", err)
	}
	want, err := runExact(mustLower(t, p, bind), wholeProgram(p, ss), nil, 1, cfg, input)
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	requireIdentical(t, "gauss collective", coll, want)

	if p2pWords < 5*coll.Transport.Words {
		t.Errorf("collective words %d not a 5x drop from the point-to-point exchange's %d",
			coll.Transport.Words, p2pWords)
	}
	if coll.Transport.Messages > p2pMessages {
		t.Errorf("collective transport sent %d messages, the point-to-point exchange only %d",
			coll.Transport.Messages, p2pMessages)
	}
}

// TestScheduleDeterministic: two inspections of one program are the same
// schedule, down to the numbering of every epoch's plan entries (which once
// followed map order).
func TestScheduleDeterministic(t *testing.T) {
	for _, c := range []struct {
		p    *ir.Program
		m, n int
	}{{ir.Gauss(), 32, 16}, {ir.Jacobi(), 16, 64}} {
		ss := wholeProgramSchemes(t, c.p, c.m, c.n)
		bind := map[string]int{"m": c.m}
		first, err := wholeSchedule(mustLower(t, c.p, bind), ss, nil, &workspace{})
		if err != nil {
			t.Fatal(err)
		}
		second, err := wholeSchedule(mustLower(t, c.p, bind), ss, nil, &workspace{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s m=%d n=%d: two builds of the schedule differ", c.p.Name, c.m, c.n)
		}
	}
}

// roundOf is op's list of round r; op must send or receive in it.
func roundOf(op *redistOp, r int32) *redistRound {
	return &op.rounds[slices.IndexFunc(op.rounds, func(rd redistRound) bool { return rd.round == r })]
}

// checkLowering compares one epoch's plan with the reference lowering of
// the same per-pair element lists, rank by rank: rounds, peers, segment
// origins and element runs.
func checkLowering(t *testing.T, label string, traffic []epochShip, ranks []int32, ops []redistOp) {
	t.Helper()
	pairs := map[int64][]elemID{}
	for _, sh := range traffic {
		pairs[sh.k] = append(pairs[sh.k], sh.e)
	}
	want := referenceLowering(pairs)
	if len(ranks) != len(want) {
		t.Fatalf("%s: %d ranks take part, the reference has %d", label, len(ranks), len(want))
	}
	for i, p := range ranks {
		if i > 0 && ranks[i-1] >= p {
			t.Fatalf("%s: ranks %v not ascending", label, ranks)
		}
		if w := want[p]; w == nil || !reflect.DeepEqual(ops[i], *w) {
			t.Fatalf("%s: rank %d lowers to\n %+v\nthe reference to\n %+v", label, p, ops[i], w)
		}
	}
}

// randomEpoch draws one epoch's traffic over 2-64 ranks: each element
// goes from a random source to one destination, to 2..all other ranks, or
// to the destination set of an earlier element of the same source (so
// steps share sets), and the ships arrive shuffled.
func randomEpoch(rng *rand.Rand) []epochShip {
	n := 2 + rng.Intn(63)
	ranks := make([]int32, n)
	for i := range ranks {
		ranks[i] = int32(i)
	}
	return epochOver(rng, ranks, 1+rng.Intn(48))
}

// epochOver draws randomEpoch's traffic of elems elements over ranks (at
// least two).
func epochOver(rng *rand.Rand, ranks []int32, elems int) []epochShip {
	n := len(ranks)
	type draw struct {
		src   int32
		dests []int32
	}
	var draws []draw
	var traffic []epochShip
	for e := range elems {
		var d draw
		switch k := rng.Intn(3); {
		case k == 0 && len(draws) > 0:
			d = draws[rng.Intn(len(draws))]
		default:
			src := rng.Intn(n)
			d.src = ranks[src]
			want := 1
			if k == 2 {
				want = 1 + rng.Intn(n-1)
			}
			for _, r := range rng.Perm(n) {
				if r != src && len(d.dests) < want {
					d.dests = append(d.dests, ranks[r])
				}
			}
		}
		draws = append(draws, d)
		for _, dst := range d.dests {
			traffic = append(traffic, epochShip{pairKey(d.src, dst), mkElem(rng.Intn(3), e)})
		}
	}
	rng.Shuffle(len(traffic), func(i, j int) { traffic[i], traffic[j] = traffic[j], traffic[i] })
	return traffic
}

// lowerAndCheck lowers a copy of traffic on low and compares the plan with
// the reference's.
func lowerAndCheck(t *testing.T, low *lowering, label string, traffic []epochShip) []redistOp {
	t.Helper()
	ranks, ops := lowerNested(low, slices.Clone(traffic))
	checkLowering(t, label, traffic, ranks, ops)
	return ops
}

// epochCensus counts the epochs a schedule build closes and their pairs
// and ships.
type epochCensus struct{ epochs, pairs, ships int }

func (c epochCensus) String() string {
	return fmt.Sprintf("%d epochs, %.1f pairs and %.1f elements per epoch",
		c.epochs, float64(c.pairs)/float64(c.epochs), float64(c.ships)/float64(c.epochs))
}

// TestLowerEpochMatchesReference: lowering.lower, scratch reused across
// epochs, builds the reference's plan for seeded random epochs and for
// every epoch the inspector closes on the kernels and on the programs of
// TestExecDifferentialFuzz and TestBatchedMatchesExactFuzz. With -v it
// prints the kernels' epoch census.
func TestLowerEpochMatchesReference(t *testing.T) {
	ws := &workspace{}
	low := &ws.lowering
	for _, seed := range fuzzSeeds {
		rng := rand.New(rand.NewSource(seed))
		for trial := range 200 {
			// lower sorts its traffic in place: the reference gets the ships
			// in the order they were made.
			traffic := randomEpoch(rng)
			shipped := slices.Clone(traffic)
			ranks, ops := lowerNested(low, traffic)
			checkLowering(t, fmt.Sprintf("random epoch, seed %d trial %d", seed, trial), shipped, ranks, ops)
		}
	}

	// Ranks spread over [0, 4096): the rank index grows past every rank
	// seen so far, and the ranks' order is not their draw order.
	t.Run("sparse ranks", func(t *testing.T) {
		for _, seed := range fuzzSeeds {
			rng := rand.New(rand.NewSource(seed))
			for trial := range 40 {
				ranks := make([]int32, 2+rng.Intn(120))
				for i, r := range rng.Perm(4096)[:len(ranks)] {
					ranks[i] = int32(r)
				}
				lowerAndCheck(t, low, fmt.Sprintf("sparse epoch, seed %d trial %d", seed, trial), epochOver(rng, ranks, 1+rng.Intn(100)))
			}
		}
	})

	// Epochs of 1 to about 2,000 ships on one lowering, each over ranks no
	// earlier epoch used: an index entry left from an earlier epoch and
	// read again would misplace a message.
	t.Run("disjoint epochs", func(t *testing.T) {
		for _, seed := range fuzzSeeds {
			low, rng := &lowering{}, rand.New(rand.NewSource(seed))
			pool, most := rng.Perm(4096), 0
			for i, c := range []struct{ ranks, elems int }{{2, 1}, {3, 4}, {40, 30}, {64, 150}, {5, 2}, {300, 12}, {16, 60}, {2, 3}, {1000, 8}} {
				ranks := make([]int32, c.ranks)
				for j := range ranks {
					ranks[j] = int32(pool[j])
				}
				pool = pool[c.ranks:]
				traffic := epochOver(rng, ranks, c.elems)
				most = max(most, len(traffic))
				lowerAndCheck(t, low, fmt.Sprintf("disjoint epoch %d of %d ships, seed %d", i, len(traffic), seed), traffic)
			}
			if most < 1500 {
				t.Errorf("seed %d: the largest epoch has %d ships, want about 2,000", seed, most)
			}
		}
	})

	// One relay forwarding for 40 trees in one round: source 0 roots every
	// tree, {0, 1, 2+i, 50+i%6}, so rank 1 receives each step in round 0
	// and forwards it to 50+i%6 in round 1 — a run of 40 edges that must
	// come out as six messages in receiver order, each with its segments
	// in step order.
	t.Run("long relay run", func(t *testing.T) {
		var traffic []epochShip
		for i := range 40 {
			for _, dst := range []int32{1, int32(2 + i), int32(50 + i%6)} {
				for e := range 1 + i%2 {
					traffic = append(traffic, epochShip{pairKey(0, dst), mkElem(e, i)})
				}
			}
		}
		rand.New(rand.NewSource(1)).Shuffle(len(traffic), func(i, j int) { traffic[i], traffic[j] = traffic[j], traffic[i] })
		ops := lowerAndCheck(t, low, "long relay run", traffic)
		segs, sends := 0, roundOf(&ops[1], 1).sends
		for _, m := range sends {
			segs += len(m.segs)
		}
		if len(sends) != 6 || segs != 40 {
			t.Errorf("rank 1 forwards %d segments in %d messages in round 1, want 40 in 6", segs, len(sends))
		}
	})

	inspect := func(label string, p *ir.Program, ss *core.SchemeSet, m int) epochCensus {
		t.Helper()
		var c epochCensus
		low.tap = func(traffic []epochShip, ranks []int32, p *redistPlan, op0 int32) {
			checkLowering(t, fmt.Sprintf("%s, epoch %d", label, c.epochs), traffic, ranks, nested(p, op0, len(ranks)))
			c.epochs++
			c.ships += len(traffic)
			for i := range traffic {
				if i == 0 || traffic[i].k != traffic[i-1].k {
					c.pairs++
				}
			}
		}
		defer func() { low.tap = nil }()
		if _, err := wholeSchedule(mustLower(t, p, map[string]int{"m": m}), ss, map[string]float64{"OMEGA": 1.2}, ws); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return c
	}
	for _, k := range []struct {
		p    *ir.Program
		m, n int
	}{
		{ir.Gauss(), 32, 16}, {ir.Gauss(), 64, 16}, {ir.Jacobi(), 32, 1024},
		{ir.SOR(), 32, 16}, {ir.Jacobi(), 16, 64}, {matmul(), 8, 4},
	} {
		label := fmt.Sprintf("%s m=%d n=%d", k.p.Name, k.m, k.n)
		t.Logf("%s: %v", label, inspect(label, k.p, wholeProgramSchemes(t, k.p, k.m, k.n), k.m))
	}
	for _, k := range []struct {
		p    *ir.Program
		m, n int
	}{{stencilProgram(), 12, 4}, {matmulProgram(), 6, 3}} {
		inspect(fmt.Sprintf("%s m=%d n=%d", k.p.Name, k.m, k.n), k.p, fuzzSchemes(t, k.p, k.m, k.n), k.m)
	}

	// The fuzz tests' programs, drawn with their generators, seeds and
	// draw order.
	const m = 8
	for _, seed := range fuzzSeeds {
		for gi, gen := range []func(*rand.Rand) *ir.Program{randomProgram, randomReduceProgram} {
			rng := rand.New(rand.NewSource(seed))
			for trial := range []int{25, 30}[gi] {
				p := gen(rng)
				randomInput(p, m, rng)
				rng.Intn(2)
				for _, n := range []int{1, 2, 4} {
					inspect(fuzzCase(seed, trial, n, p), p, fuzzSchemes(t, p, m, n), m)
				}
			}
		}
	}
}
