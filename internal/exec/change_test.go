package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/dist"
	"dmcc/internal/grid"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
)

// randomChangeScheme draws a scheme for an array of shape on the 2-D grid
// g: each array dimension on its own grid dimension, blocked (increasing,
// displaced by one, or decreasing), cyclic, block-cyclic or replicated; a
// 2-D array rotated now and then; a grid dimension no array dimension uses
// fixed to a coordinate or replicated along. It returns the §2.1 kinds the
// scheme has.
func randomChangeScheme(t *testing.T, rng *rand.Rand, g *grid.Grid, shape []int) (dist.Scheme, []string) {
	t.Helper()
	gdims := rng.Perm(g.Q())[:len(shape)]
	s := dist.Scheme{Fixed: map[int]int{}}
	var kinds []string
	for k, size := range shape {
		n, gd := g.Extent(gdims[k]), gdims[k]
		var d dist.Dim
		switch rng.Intn(5) {
		case 0:
			d, kinds = dist.Replicated(gd), append(kinds, "replicated")
		case 1:
			d, kinds = dist.Cyclic(gd), append(kinds, "cyclic")
		case 2:
			d, kinds = dist.BlockCyclic(2+rng.Intn(2), gd), append(kinds, "block-cyclic")
		case 3:
			d, kinds = dist.BlockContiguousDecreasing(size, n, gd), append(kinds, "decreasing")
		default:
			d, kinds = dist.BlockContiguous(size, n, gd), append(kinds, "block")
			if rng.Intn(2) == 0 { // z = i, one past the canonical i - 1
				d.Disp, d.Block, kinds = 0, (size+n)/n, append(kinds, "displaced")
			}
		}
		s.Dims = append(s.Dims, d)
	}
	if len(shape) == 2 && !s.Dims[0].Replicated && !s.Dims[1].Replicated && rng.Intn(2) == 0 {
		s.Rot, s.D1, s.D2 = dist.Rotation(1+rng.Intn(2)), 1-2*rng.Intn(2), 1-2*rng.Intn(2)
		kinds = append(kinds, "rotated")
	}
	for gd := range g.Q() {
		if !slices.Contains(gdims, gd) {
			s.Fixed[gd] = dist.All
			if rng.Intn(2) == 0 {
				s.Fixed[gd] = rng.Intn(g.Extent(gd))
			}
		}
	}
	if err := s.Validate(g, shape); err != nil {
		t.Fatalf("drew an invalid scheme %s on %s: %v", s, g, err)
	}
	return s, kinds
}

// crossChange runs one scheme change on the machine: every rank installs
// input under from's layouts and crosses c into to's. It returns the run's
// statistics and every rank's stores under to, values and marks.
func crossChange(t *testing.T, from, to *progSchedule, c *changeEpoch, input ir.Storage) (machine.Stats, [][]float64, [][]bool) {
	t.Helper()
	loads := buildLoads(from, input, nil)
	slabs, marks := make([][]float64, from.nprocs), make([][]bool, from.nprocs)
	mach, err := machine.New(from.g, machine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	froms, tos := from.executors(nil), to.executors(nil)
	stats, err := mach.RunSteps(func(proc *machine.Proc) bool {
		prev, x := &froms[proc.Rank()], &tos[proc.Rank()]
		if x.proc == nil {
			prev.proc, x.proc = proc, proc
			prev.installInput(loads)
		}
		if !x.runChange(c, prev) {
			return false
		}
		slabs[x.me], marks[x.me] = x.stores(), x.marked()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats, slabs, marks
}

// TestChangeEpochMatchesRedistLoads: a scheme change moves on the machine
// exactly what dist.RedistLoadsExact counts, over random (from, to) scheme
// pairs on fixed seeds — every §2.1 kind, on grids of differing shapes
// over one N. The words the machine carries equal the oracle's Words and
// are what the ranks sent; each rank receives its In; and afterwards
// every owner under to holds the element's value.
//
// Per-rank words sent are not compared with the oracle's Out, on purpose:
// exec ships each element from its first owner under from and relays it
// down a multicast tree, while the oracle splits a replicated sender's
// load evenly over the element's owners. The two agree in total, not
// rank by rank.
func TestChangeEpochMatchesRedistLoads(t *testing.T) {
	p, err := ir.Parse("PROGRAM change\nREAL A(9,7), V(11)\nDO 2 i = 1, 7\n1 V(i) = A(i,i) + 1.0\n2 CONTINUE\nEND\n")
	if err != nil {
		t.Fatal(err)
	}
	lw := mustLower(t, p, map[string]int{})
	shapes := map[int][][2]int{4: {{4, 1}, {1, 4}, {2, 2}}, 6: {{6, 1}, {1, 6}, {2, 3}, {3, 2}}}
	kinds, crossGrid := map[string]bool{}, 0
	for _, seed := range fuzzSeeds {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 25; trial++ {
			n := []int{4, 6}[rng.Intn(2)]
			var sets [2]*core.SchemeSet
			for k := range sets {
				shape := shapes[n][rng.Intn(len(shapes[n]))]
				g := grid.New(shape[0], shape[1])
				sets[k] = &core.SchemeSet{Grid: g, Schemes: map[string]dist.Scheme{}}
				for a, name := range lw.Names {
					s, ks := randomChangeScheme(t, rng, g, lw.Shapes[a])
					sets[k].Schemes[name] = s
					for _, kind := range ks {
						kinds[kind] = true
					}
				}
			}
			from, to := sets[0], sets[1]
			label := fmt.Sprintf("seed %d trial %d: %v on %s -> %v on %s", seed, trial, from.Schemes, from.Grid, to.Schemes, to.Grid)
			if from.Grid.String() != to.Grid.String() {
				crossGrid++
			}

			ws := &workspace{}
			sched := [2]*progSchedule{{}, {}}
			for k, ss := range sets {
				if err := sched[k].build(lw, core.Segment{Start: 1, Schemes: ss}, nil, ws); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			c := redistEpoch(&changeEpoch{}, sched[0], sched[1], ws)

			want := dist.NewLoads()
			for a, name := range lw.Names {
				want.Add(dist.RedistLoadsExact(from.Grid, to.Grid, lw.Shapes[a], from.Schemes[name], to.Schemes[name]))
			}
			input := ir.NewStorage(p)
			value := func(a, off int) float64 { return float64(100*a + off + 1) }
			for a := range sched[0].arrays {
				for off := range sched[0].arrays[a].size {
					input.Store(lw.Names[a], sched[0].decode(mkElem(a, off)), value(a, off))
				}
			}
			stats, slabs, marks := crossChange(t, sched[0], sched[1], c, input)

			if float64(c.words) != want.Words || float64(stats.Words) != want.Words {
				t.Fatalf("%s: the change schedules %d words and the machine carries %d, RedistLoadsExact counts %v",
					label, c.words, stats.Words, want.Words)
			}
			in, sent := make([]float64, n), int64(0)
			for _, ps := range stats.PerProc {
				sent += ps.Words
				for _, peer := range ps.Peers {
					in[peer.Peer] += float64(peer.Words)
				}
			}
			if sent != stats.Words {
				t.Fatalf("%s: the ranks sent %d words, the machine carried %d", label, sent, stats.Words)
			}
			for r := range n {
				if in[r] != want.In[r] {
					t.Fatalf("%s: rank %d received %v words, RedistLoadsExact's In is %v", label, r, in[r], want.In[r])
				}
			}
			for a := range sched[1].arrays {
				for off := range sched[1].arrays[a].size {
					e := mkElem(a, off)
					for _, o := range sched[1].ownersOf(e) {
						if i, _ := sched[1].slabOff(o, e); !marks[o][i] || slabs[o][i] != value(a, off) {
							t.Fatalf("%s: rank %d holds %s%v = %v (marked %v), want %v", label, o, lw.Names[a],
								sched[1].decode(e), slabs[o][i], marks[o][i], value(a, off))
						}
					}
				}
			}
		}
	}
	for _, kind := range []string{"block", "cyclic", "block-cyclic", "replicated", "decreasing", "displaced", "rotated"} {
		if !kinds[kind] {
			t.Errorf("no drawn scheme is %s", kind)
		}
	}
	if crossGrid == 0 {
		t.Error("no drawn change crosses between grid shapes")
	}
}

// TestPrunedReplicaNeverCrossesAChange: S(i) accumulates A(i,j) in L1,
// where S is replicated along grid dimension 1 and nothing reads it, so
// on its own the finalize's fan-out is pruned to the root and the other
// owner keeps a stale copy. In L2 that other owner alone owns S and reads
// it. The change between the segments keeps the copy there, so it must
// count as a read of it: the fan-out then delivers the total, and the run
// is RunExact's and the interpreter's. A change that trusted the pruned
// copy would carry the stale input value into L2.
func TestPrunedReplicaNeverCrossesAChange(t *testing.T) {
	const m = 6
	p := accumulatorProgram()
	i := ir.V("i")
	rhs := ir.MulE(ir.Num(2), ir.Rd(ir.R("S", i)))
	p.Arrays["T"] = &ir.Array{Name: "T", Extents: []ir.Affine{ir.V("m")}}
	p.Nests = append(p.Nests, &ir.Nest{
		Label: "L2",
		Loops: []ir.Loop{{Index: "i", Lo: ir.Const(1), Hi: ir.V("m"), Step: 1}},
		Stmts: []*ir.Stmt{{Line: 2, Depth: 1, LHS: ir.R("T", i), Reads: ir.ExprReads(rhs), RHS: rhs,
			Flops: ir.ExprFlops(rhs), Text: "T(i) = 2 * S(i)"}},
	})
	g := grid.New(2, 2)
	blocks := dist.Scheme2D(dist.BlockContiguous(m, 2, 0), dist.BlockContiguous(m, 2, 1), nil)
	rowsOnColumn1 := dist.Scheme1D(dist.BlockContiguous(m, 2, 0), map[int]int{1: 1})
	l1 := &core.SchemeSet{Grid: g, Schemes: map[string]dist.Scheme{"A": blocks, "T": rowsOnColumn1,
		"S": dist.Scheme1D(dist.BlockContiguous(m, 2, 0), map[int]int{1: dist.All})}}
	l2 := &core.SchemeSet{Grid: g, Schemes: map[string]dist.Scheme{"A": blocks, "S": rowsOnColumn1, "T": rowsOnColumn1}}
	segs := []core.Segment{{Start: 1, Len: 1, Schemes: l1}, {Start: 2, Len: 1, Schemes: l2}}
	bind := map[string]int{"m": m}
	lw := mustLower(t, p, bind)

	// The precondition: L1 alone under its schemes prunes the fan-out to
	// the root, and every S(i) has an owner under L2 that is not its root.
	alone, err := wholeSchedule(mustLower(t, accumulatorProgram(), bind), l1, nil, &workspace{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := buildPlan(lw, segs, nil, &workspace{})
	if err != nil {
		t.Fatal(err)
	}
	ns, pns := alone.nests[0], plan.segs[0].nests[0]
	for k, r := range ns.reds {
		for n, f := range ns.fins[r.items.lo:r.items.hi] {
			keeper, owners, fanout := plan.segs[1].ownersOf(f.elem)[0], alone.ownersOf(f.elem), ns.list(f.fanout)
			if len(fanout) != 0 || int32(keeper) == f.root || !slices.Contains(owners, keeper) {
				t.Fatalf("S%v: owners %v, fan-out %v, owner %d under L2; want a pruned fan-out and a non-root keeper",
					alone.decode(f.elem), owners, fanout, keeper)
			}
			if got := pns.list(pns.fins[pns.reds[k].items.lo+int32(n)].fanout); !slices.Equal(got, []int32{int32(keeper)}) {
				t.Errorf("S%v: the plan's fan-out is %v, want the keeper %d", alone.decode(f.elem), got, keeper)
			}
		}
	}

	input := randomInput(p, m, rand.New(rand.NewSource(7)))
	got, err := run(lw, segs, nil, 1, machine.DefaultConfig(), input)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runExact(lw, segs, nil, 1, machine.DefaultConfig(), input)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "pruned replica across a change", got, want)
	ref := ir.NewStorage(p)
	for name, elems := range input {
		for k, v := range elems {
			ref[name][k] = v
		}
	}
	if err := ir.EvalProgram(p, bind, ref, nil, 1); err != nil {
		t.Fatal(err)
	}
	requireValues(t, "pruned replica across a change", got, ref)
}
