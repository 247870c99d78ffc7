package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

// requireIdentical asserts the batched engine computed the oracle's
// values and flops bit for bit, reported one clock, and moved no more than
// the per-element engine.
func requireIdentical(t *testing.T, label string, got, want Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Values, want.Values) {
		t.Fatalf("%s: batched values differ from RunExact", label)
	}
	if got.Stats.Flops != want.Stats.Flops {
		t.Fatalf("%s: batched run did %d flops, RunExact %d", label, got.Stats.Flops, want.Stats.Flops)
	}
	if !reflect.DeepEqual(got.Stats, got.Transport) {
		t.Fatalf("%s: Stats and Transport describe different runs:\n stats %+v\n transport %+v", label, got.Stats, got.Transport)
	}
	// The batched transport may only ever shed traffic: vectoring
	// merges messages, and the liveness-pruned reduction fan-out drops
	// words a non-reader owner would have received.
	if got.Transport.Words > want.Stats.Words {
		t.Fatalf("%s: batched transport carried %d words, per-element engine only %d",
			label, got.Transport.Words, want.Stats.Words)
	}
	if got.Transport.Messages > want.Stats.Messages {
		t.Fatalf("%s: batching did not reduce messages: %d > %d",
			label, got.Transport.Messages, want.Stats.Messages)
	}
}

// stencilProgram is a 5-point Jacobi-style stencil over a 2-D array —
// the IR counterpart of the kernels stencil, exercising four-neighbour
// ghost exchange in both grid dimensions.
func stencilProgram() *ir.Program {
	m := ir.V("m")
	p := &ir.Program{
		Name: "stencil5", Iterative: true, Params: []string{"m"},
		Arrays: map[string]*ir.Array{
			"A": {Name: "A", Extents: []ir.Affine{m, m}},
			"B": {Name: "B", Extents: []ir.Affine{m, m}},
		},
	}
	i, j := ir.V("i"), ir.V("j")
	ref := func(arr string, si, sj ir.Affine) ir.Ref {
		return ir.Ref{Array: arr, Subs: []ir.Affine{si, sj}}
	}
	loops := func() []ir.Loop {
		return []ir.Loop{
			{Index: "i", Lo: ir.Const(2), Hi: m.PlusConst(-1), Step: 1},
			{Index: "j", Lo: ir.Const(2), Hi: m.PlusConst(-1), Step: 1},
		}
	}
	avg := ir.MulE(ir.Num(0.25), ir.Add(
		ir.Add(ir.Rd(ref("A", i.PlusConst(-1), j)), ir.Rd(ref("A", i.PlusConst(1), j))),
		ir.Add(ir.Rd(ref("A", i, j.PlusConst(-1))), ir.Rd(ref("A", i, j.PlusConst(1))))))
	copyBack := ir.Rd(ref("B", i, j))
	p.Nests = []*ir.Nest{
		{Label: "L1", Loops: loops(), Stmts: []*ir.Stmt{{
			Line: 1, Depth: 2, LHS: ref("B", i, j), Reads: ir.ExprReads(avg),
			RHS: avg, Flops: ir.ExprFlops(avg), Text: "B(i,j) = 0.25*(A(i-1,j)+A(i+1,j)+A(i,j-1)+A(i,j+1))",
		}}},
		{Label: "L2", Loops: loops(), Stmts: []*ir.Stmt{{
			Line: 2, Depth: 2, LHS: ref("A", i, j), Reads: ir.ExprReads(copyBack),
			RHS: copyBack, Flops: 0, Text: "A(i,j) = B(i,j)",
		}}},
	}
	return p
}

// matmulProgram is a triple-loop matrix multiply with a travelling
// accumulator — the IR counterpart of the Cannon kernel's data motion:
// C(i,j) accumulates A(i,k)*B(k,j) under reduce semantics.
func matmulProgram() *ir.Program {
	m := ir.V("m")
	p := &ir.Program{
		Name: "matmul", Params: []string{"m"},
		Arrays: map[string]*ir.Array{
			"A": {Name: "A", Extents: []ir.Affine{m, m}},
			"B": {Name: "B", Extents: []ir.Affine{m, m}},
			"C": {Name: "C", Extents: []ir.Affine{m, m}},
		},
	}
	i, j, k := ir.V("i"), ir.V("j"), ir.V("k")
	lhs := ir.Ref{Array: "C", Subs: []ir.Affine{i, j}}
	rhs := ir.Add(ir.Rd(lhs), ir.MulE(
		ir.Rd(ir.Ref{Array: "A", Subs: []ir.Affine{i, k}}),
		ir.Rd(ir.Ref{Array: "B", Subs: []ir.Affine{k, j}})))
	p.Nests = []*ir.Nest{{
		Label: "L1",
		Loops: []ir.Loop{
			{Index: "i", Lo: ir.Const(1), Hi: m, Step: 1},
			{Index: "j", Lo: ir.Const(1), Hi: m, Step: 1},
			{Index: "k", Lo: ir.Const(1), Hi: m, Step: 1},
		},
		Stmts: []*ir.Stmt{{
			Line: 1, Depth: 3, LHS: lhs, Reads: ir.ExprReads(rhs), RHS: rhs,
			Flops: ir.ExprFlops(rhs), Reduce: true, Text: "C(i,j) = C(i,j) + A(i,k)*B(k,j) [reduce]",
		}},
	}}
	return p
}

// randomInput fills every array of p with pseudo-random values in
// [-1, 1), arrays in sorted name order so a seed replays the same input.
func randomInput(p *ir.Program, m int, rng *rand.Rand) ir.Storage {
	input := ir.NewStorage(p)
	for _, name := range arrayNames(p) {
		if p.Arrays[name].Rank() == 1 {
			for i := 1; i <= m; i++ {
				input.Store(name, []int{i}, rng.Float64()*2-1)
			}
		} else {
			for i := 1; i <= m; i++ {
				for j := 1; j <= m; j++ {
					input.Store(name, []int{i, j}, rng.Float64()*2-1)
				}
			}
		}
	}
	return input
}

// TestBatchedMatchesExactKernels: on every kernel program — the
// linear-system three plus the stencil and matmul IR counterparts of the
// stencil/Cannon kernels — the batched engine's Result.Values and flops
// are byte-identical to RunExact, while its transport moves far fewer
// messages.
func TestBatchedMatchesExactKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	type kase struct {
		name    string
		p       *ir.Program
		m       int
		iters   int
		ns      []int
		scalars map[string]float64
		linear  bool // diagonally dominant system + compiler schemes vs random input + derived schemes
		x0      bool
	}
	cases := []kase{
		{name: "jacobi", p: ir.Jacobi(), m: 16, iters: 5, ns: []int{1, 2, 4}, linear: true, x0: true},
		{name: "sor", p: ir.SOR(), m: 12, iters: 4, ns: []int{1, 2, 4},
			scalars: map[string]float64{"OMEGA": 1.2}, linear: true, x0: true},
		{name: "gauss", p: ir.Gauss(), m: 12, iters: 1, ns: []int{1, 2, 3}, linear: true},
		{name: "stencil", p: stencilProgram(), m: 12, iters: 2, ns: []int{1, 2, 4}},
		{name: "matmul", p: matmulProgram(), m: 6, iters: 1, ns: []int{1, 2, 3}},
	}
	for _, c := range cases {
		if err := c.p.Validate(); err != nil {
			t.Fatalf("%s: invalid program: %v", c.name, err)
		}
		var input ir.Storage
		if c.linear {
			a, b, _ := matrix.DiagonallyDominant(c.m, 401)
			var x0 []float64
			if c.x0 {
				x0 = make([]float64, c.m)
			}
			input = loadLinearSystem(c.p, a, b, x0)
		} else {
			input = randomInput(c.p, c.m, rng)
		}
		for _, n := range c.ns {
			label := fmt.Sprintf("%s m=%d n=%d", c.name, c.m, n)
			var ss *core.SchemeSet
			if c.linear {
				ss = wholeProgramSchemes(t, c.p, c.m, n)
			} else if ss = fuzzSchemes(t, c.p, c.m, n); ss == nil {
				t.Fatalf("%s: no derived schemes", label)
			}
			bind := map[string]int{"m": c.m}
			got, err := Run(c.p, ss, bind, c.scalars, c.iters, machine.DefaultConfig(), input)
			if err != nil {
				t.Fatalf("%s: batched: %v", label, err)
			}
			want, err := runExact(mustLower(t, c.p, bind), wholeProgram(c.p, ss), c.scalars, c.iters, machine.DefaultConfig(), input)
			if err != nil {
				t.Fatalf("%s: exact: %v", label, err)
			}
			requireIdentical(t, label, got, want)
			// Every linear-system kernel batches: Gauss vectors its
			// operand ships, and since the two-phase/ring reduction
			// exchange Jacobi and SOR coalesce their finalize traffic too.
			if c.linear && n > 1 && got.Transport.Messages >= want.Stats.Messages {
				t.Errorf("%s: expected vectored transport to batch messages (%d vs %d)",
					label, got.Transport.Messages, want.Stats.Messages)
			}
		}
	}
}

// randomReduceProgram extends randomProgram with reduction statements:
// depth-2 nests accumulate into a rank-1 array under Reduce semantics
// (the travelling-accumulator pattern of Jacobi's inner product), and
// later statements read the accumulator, exercising finalize-on-read,
// nest-end finalizes, and the residual direct-send path.
func randomReduceProgram(rng *rand.Rand) *ir.Program {
	p := randomProgram(rng)
	// Find a rank-1 array for the accumulator and a rank-2 array for
	// the anchor; fall back to plain programs when the draw lacks them.
	var acc, anchor string
	for _, name := range arrayNames(p) {
		arr := p.Arrays[name]
		if arr.Rank() == 1 && acc == "" {
			acc = name
		}
		if arr.Rank() == 2 && anchor == "" {
			anchor = name
		}
	}
	if acc == "" || anchor == "" {
		return p
	}
	for t := range p.Nests {
		nest := p.Nests[t]
		if len(nest.Loops) != 2 || rng.Intn(2) == 0 {
			continue
		}
		lhs := ir.Ref{Array: acc, Subs: []ir.Affine{ir.V("i")}}
		rd := ir.Ref{Array: anchor, Subs: []ir.Affine{ir.V("i"), ir.V("j")}}
		rhs := ir.Add(ir.Rd(lhs), ir.MulE(ir.Num(0.25), ir.Rd(rd)))
		nest.Stmts = append(nest.Stmts, &ir.Stmt{
			Line:   100 + t,
			Depth:  2,
			LHS:    lhs,
			Reads:  ir.ExprReads(rhs),
			RHS:    rhs,
			Flops:  ir.ExprFlops(rhs),
			Reduce: true,
			Text:   fmt.Sprintf("%s = %s [reduce]", lhs, rhs),
		})
		if rng.Intn(2) == 0 {
			// Read the accumulator back mid-epoch, SOR-style: every (i,j)
			// instance of this statement forces the pending partials of
			// acc(i) to combine the moment they are read, exercising the
			// ordered finalize-on-read path (and the ring lowering when
			// the partial holders form a uniform chain).
			rlhs := ir.Ref{Array: anchor, Subs: []ir.Affine{ir.V("i"), ir.V("j")}}
			rrhs := ir.Add(ir.Rd(rlhs), ir.MulE(ir.Num(0.5), ir.Rd(lhs)))
			nest.Stmts = append(nest.Stmts, &ir.Stmt{
				Line:  200 + t,
				Depth: 2,
				LHS:   rlhs,
				Reads: ir.ExprReads(rrhs),
				RHS:   rrhs,
				Flops: ir.ExprFlops(rrhs),
				Text:  fmt.Sprintf("%s = %s", rlhs, rrhs),
			})
		}
	}
	return p
}

// TestBatchedMatchesExactFuzz: the randomized property behind the
// batched engine — on synthetic programs (with reductions, nest-end and
// mid-epoch finalizes), random schemes and random inputs, Run produces
// values and flops exactly equal to the per-element oracle, and its
// transport only sheds traffic; so does a random segmentation of the
// program, its segments joined by scheme changes (randomPlan).
func TestBatchedMatchesExactFuzz(t *testing.T) {
	const m = 8
	cfg := machine.DefaultConfig()
	changes := 0
	for _, seed := range fuzzSeeds {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 30; trial++ {
			p := randomReduceProgram(rng)
			if err := p.Validate(); err != nil {
				t.Fatalf("generated invalid program: %v\n%s", err, fuzzCase(seed, trial, 0, p))
			}
			input := randomInput(p, m, rng)
			iters := 1 + rng.Intn(2)
			for _, n := range []int{1, 2, 4} {
				ss := fuzzSchemes(t, p, m, n)
				if ss == nil {
					continue
				}
				bind := map[string]int{"m": m}
				got, err := Run(p, ss, bind, nil, iters, cfg, input)
				if err != nil {
					t.Fatalf("batched: %v\n%s", err, fuzzCase(seed, trial, n, p))
				}
				want, err := runExact(mustLower(t, p, bind), wholeProgram(p, ss), nil, iters, cfg, input)
				if err != nil {
					t.Fatalf("exact: %v\n%s", err, fuzzCase(seed, trial, n, p))
				}
				requireIdentical(t, fuzzCase(seed, trial, n, p), got, want)
				if res, _ := checkPlanFuzz(t, seed, trial, m, n, p, iters, input); crossesChange(res) {
					changes++
				}
			}
		}
	}
	if changes == 0 {
		t.Error("no random plan crossed a scheme change that moved a word")
	}
	t.Logf("%d random plans crossed a scheme change that moved words", changes)
}
