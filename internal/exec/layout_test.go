package exec

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/dist"
	"dmcc/internal/grid"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
)

// layoutCase is one (grid, scheme, extents) the local layout is checked on.
type layoutCase struct {
	label string
	g     *grid.Grid
	sch   dist.Scheme
	ext   []int
}

// checkLayout builds the array's layout alone and holds it
// against the scheme's own ownership test: for every rank, the elements the
// rank holds are exactly the elements IsOwner gives it, local numbers them
// 0..storeLen-1 without a gap or a repeat, and the store lengths add up to
// size times replicas. It returns the layout and the store length of every
// rank.
func checkLayout(t *testing.T, c layoutCase) (l layout, words []int) {
	t.Helper()
	am := arrayMeta{name: "A", ext: c.ext, size: 1}
	for _, e := range c.ext {
		am.size *= e
	}
	if err := l.build(c.ext, c.sch, c.g); err != nil {
		t.Fatalf("%s: %v", c.label, err)
	}
	s := &progSchedule{arrays: []arrayMeta{am}, lw: &ir.Lowered{Shapes: [][]int{c.ext}}}
	words = make([]int, c.g.Size())
	for r := 0; r < c.g.Size(); r++ {
		used := make([]bool, l.storeLen(r))
		for off := 0; off < am.size; off++ {
			idx := s.decode(mkElem(0, off))
			loc, held := l.local(r, off)
			if owns := c.sch.IsOwner(c.g, r, idx...); held != owns {
				t.Fatalf("%s: rank %d, element %v: in the rank's cell %v, IsOwner %v", c.label, r, idx, held, owns)
			}
			if !held {
				continue
			}
			if int(loc) >= len(used) || used[loc] {
				t.Fatalf("%s: rank %d, element %v: local offset %d repeats or leaves the store of %d", c.label, r, idx, loc, len(used))
			} else {
				used[loc] = true
			}
			words[r]++
		}
		if words[r] != len(used) {
			t.Fatalf("%s: rank %d holds %d elements in a store of %d", c.label, r, words[r], len(used))
		}
	}
	total, replicas := 0, 0
	for _, w := range words {
		total += w
	}
	if am.size > 0 {
		first := make([]int, len(c.ext))
		for d := range first {
			first[d] = 1
		}
		replicas = len(c.sch.Owners(c.g, first...))
	}
	if total != am.size*replicas {
		t.Fatalf("%s: stores hold %d words, want size %d x %d replicas", c.label, total, am.size, replicas)
	}
	return l, words
}

// TestLocalLayoutMatchesOwners: the shared offset tables agree with
// Scheme.IsOwner on the schemes the fuzzers' generator derives, on Fig 1's
// layouts (Cannon's rotated pair among them), on partially replicated 2-D
// arrays over 2x2 and 2x3 grids and on 1-D arrays with a Fixed coordinate;
// and Run reports the store words the closed form gives. Each array's
// layout inside a built schedule is the one layout.build builds from the
// array's extents, scheme and grid alone, whatever the other arrays and
// their order.
func TestLocalLayoutMatchesOwners(t *testing.T) {
	const m = 8
	var cases []layoutCase
	for _, f := range dist.Fig1Cases(16) {
		cases = append(cases, layoutCase{"fig1 " + f.Name, f.Grid, f.Scheme, []int{16, 16}})
	}
	for _, dims := range [][]int{{2, 2}, {2, 3}} {
		g := grid.New(dims...)
		label := "grid " + g.String() + " "
		cases = append(cases,
			layoutCase{label + "rows blocked, replicated along dim 1", g,
				dist.Scheme2D(dist.BlockContiguous(m, dims[0], 0), dist.Replicated(1), nil), []int{m, m}},
			layoutCase{label + "replicated along dim 0, columns cyclic", g,
				dist.Scheme2D(dist.Replicated(0), dist.Cyclic(1), nil), []int{m, 7}},
			layoutCase{label + "1-D cyclic on dim 1, fixed to row 1", g,
				dist.Scheme1D(dist.Cyclic(1), map[int]int{0: 1}), []int{m}},
			layoutCase{label + "1-D blocked on dim 0, replicated along dim 1", g,
				dist.Scheme1D(dist.BlockContiguous(m, dims[0], 0), map[int]int{1: dist.All}), []int{m}},
			layoutCase{label + "1-D decreasing blocks on dim 1, fixed to row 0", g,
				dist.Scheme1D(dist.BlockContiguousDecreasing(5, dims[1], 1), map[int]int{0: 0}), []int{5}})
	}
	for _, c := range cases {
		checkLayout(t, c)
	}

	for _, seed := range fuzzSeeds {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 25; trial++ {
			p := randomProgram(rng)
			for _, n := range []int{1, 2, 4} {
				ss := fuzzSchemes(t, p, m, n)
				sched, err := wholeSchedule(mustLower(t, p, map[string]int{"m": m}), ss, nil, &workspace{})
				if err != nil {
					t.Fatalf("%v\n%s", err, fuzzCase(seed, trial, n, p))
				}
				want, wantMax := 0, make([]int, ss.Grid.Size())
				for _, name := range arrayNames(p) {
					ext := make([]int, p.Arrays[name].Rank())
					for d := range ext {
						ext[d] = m
					}
					l, words := checkLayout(t, layoutCase{fuzzCase(seed, trial, n, p) + "array " + name, ss.Grid, ss.Schemes[name], ext})
					if !reflect.DeepEqual(sched.arrays[sched.lw.Array(name)].lay, l) {
						t.Fatalf("array %s: the schedule's layout differs from one built on its own\n%s", name, fuzzCase(seed, trial, n, p))
					}
					for r, w := range words {
						want += w
						wantMax[r] += w
					}
				}
				res, err := Run(p, ss, map[string]int{"m": m}, nil, 1, machine.DefaultConfig(), randomInput(p, m, rng))
				if err != nil {
					t.Fatalf("%v\n%s", err, fuzzCase(seed, trial, n, p))
				}
				most := 0
				for _, w := range wantMax {
					most = max(most, w)
				}
				if res.StoreWords != want || res.MaxProcStoreWords != most {
					t.Fatalf("Run reports %d store words, at most %d on one processor; the layouts hold %d and %d\n%s",
						res.StoreWords, res.MaxProcStoreWords, want, most, fuzzCase(seed, trial, n, p))
				}
			}
		}
	}
}

// accumulatorProgram is S(i) = S(i) + A(i,j) under reduce semantics, with
// nothing reading S afterwards.
func accumulatorProgram() *ir.Program {
	m, i, j := ir.V("m"), ir.V("i"), ir.V("j")
	lhs := ir.R("S", i)
	rhs := ir.Add(ir.Rd(lhs), ir.Rd(ir.R("A", i, j)))
	return &ir.Program{
		Name: "rowsum", Params: []string{"m"},
		Arrays: map[string]*ir.Array{
			"A": {Name: "A", Extents: []ir.Affine{m, m}},
			"S": {Name: "S", Extents: []ir.Affine{m}},
		},
		Nests: []*ir.Nest{{
			Label: "L1",
			Loops: []ir.Loop{{Index: "i", Lo: ir.Const(1), Hi: m, Step: 1}, {Index: "j", Lo: ir.Const(1), Hi: m, Step: 1}},
			Stmts: []*ir.Stmt{{Line: 1, Depth: 2, LHS: lhs, Reads: ir.ExprReads(rhs), RHS: rhs,
				Flops: ir.ExprFlops(rhs), Reduce: true, Text: "S(i) = S(i) + A(i,j) [reduce]"}},
		}},
	}
}

// TestPrunedAccumulatorAssembly pins the case that separates "first marked
// owner" from "any owner": S is replicated along grid dimension 1 and
// nothing reads the row sums, so every fan-out is pruned to the root — the
// other owner of each S(i) keeps the stale input value, marked — and the
// assembled Values must still be RunExact's.
func TestPrunedAccumulatorAssembly(t *testing.T) {
	const m = 6
	p := accumulatorProgram()
	g := grid.New(2, 2)
	ss := &core.SchemeSet{Grid: g, Schemes: map[string]dist.Scheme{
		"A": dist.Scheme2D(dist.BlockContiguous(m, 2, 0), dist.BlockContiguous(m, 2, 1), nil),
		"S": dist.Scheme1D(dist.BlockContiguous(m, 2, 0), map[int]int{1: dist.All}),
	}}
	bind := map[string]int{"m": m}
	input := randomInput(p, m, rand.New(rand.NewSource(7)))

	s, err := wholeSchedule(mustLower(t, p, bind), ss, nil, &workspace{})
	if err != nil {
		t.Fatal(err)
	}
	ns := s.nests[0]
	for _, r := range ns.reds {
		for _, f := range ns.fins[r.items.lo:r.items.hi] {
			if owners, fanout := s.ownersOf(f.elem), ns.list(f.fanout); len(owners) != 2 || len(fanout) != 0 {
				t.Fatalf("finalize of element %d: owners %v, fan-out %v; want two owners and a fan-out pruned to the root", f.elem, owners, fanout)
			}
		}
	}
	got, err := Run(p, ss, bind, nil, 1, machine.DefaultConfig(), input)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runExact(mustLower(t, p, bind), wholeProgram(p, ss), nil, 1, machine.DefaultConfig(), input)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "pruned accumulator", got, want)
	if got.StoreWords != m*m+2*m || got.MaxProcStoreWords != m*m/4+m/2 {
		t.Fatalf("stores hold %d words, at most %d on one processor; want %d and %d",
			got.StoreWords, got.MaxProcStoreWords, m*m+2*m, m*m/4+m/2)
	}
}

// TestUnownedAccessIsAnError: on a hand-built two-processor schedule, a
// load or a store of an element of the other processor's cell — which
// behind the shared offset table would alias one of the processor's own —
// comes back from the machine as an error naming the array, the subscript
// and the rank.
func TestUnownedAccessIsAnError(t *testing.T) {
	g := grid.New(2)
	var lay layout
	err := lay.build([]int{4}, dist.Scheme1D(dist.BlockContiguous(4, 2, 0), nil), g)
	if err != nil {
		t.Fatal(err)
	}
	s := &progSchedule{nprocs: 2, arrays: []arrayMeta{{name: "A", ext: []int{4}, size: 4, lay: lay}}, lw: &ir.Lowered{Shapes: [][]int{{4}}},
		base: []int32{0, 2, 0, 2}, bufs: posTable{n: make([]int32, 2)}, parts: posTable{n: make([]int32, 2)}, vecLen: make([]int32, 2), parks: make([]bool, 2)}
	// Rank 1 is told to ship A(2), which rank 0 owns, to rank 0.
	load := &nestSchedule{instrs: []pinstr{{op: opSendDirect, arg: 0, elem: mkElem(0, 1)}}, at: []int32{0, 0, 1}}
	cases := []struct {
		label, want string
		body        func(x *valExec)
	}{
		{"load", "exec: processor 1 accesses A[2]", func(x *valExec) { x.runNest(load) }},
		{"store", "exec: processor 0 accesses A[3]", func(x *valExec) {
			if x.me == 0 {
				x.storeElem(mkElem(0, 2), 1)
			}
		}},
	}
	for _, c := range cases {
		mach, err := machine.New(g, machine.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		xs := s.executors(nil)
		_, err = mach.RunSteps(func(proc *machine.Proc) bool {
			x := &xs[proc.Rank()]
			x.proc = proc
			c.body(x)
			return true
		})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error with %q", c.label, err, c.want)
		}
	}
	// What each rank does own still reads and writes through the table.
	x := &s.executors(nil)[0]
	x.storeElem(mkElem(0, 1), 2.5)
	if got := x.loadElem(mkElem(0, 1)); got != 2.5 || !reflect.DeepEqual(x.marked(), []bool{false, true}) {
		t.Fatalf("rank 0 reads back %v with marks %v", got, x.marked())
	}
}
