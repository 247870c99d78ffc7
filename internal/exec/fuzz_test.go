package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dmcc/internal/align"
	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
)

// fuzzSeeds is the fixed seed list of the randomized exec tests. Nothing
// the generators or the input fill draw depends on map order, and every
// failure names its seed and trial and prints the program (fuzzCase), so
// a failure replays exactly.
var fuzzSeeds = []int64{20260705, 20260805, 1, 2}

// fuzzCase labels one randomized case for a failure message.
func fuzzCase(seed int64, trial, n int, p *ir.Program) string {
	return fmt.Sprintf("seed %d trial %d n=%d, program:\n%s", seed, trial, n, ir.Print(p))
}

// randomPlan draws a segmentation of p's nests at random, each segment
// with the schemes SegmentCost gives it at m on n processors, and labels
// the case with it. The draw has its own generator, seeded by the trial,
// so the trial's other draws do not depend on it.
func randomPlan(t *testing.T, seed int64, trial, m, n int, p *ir.Program) ([]core.Segment, string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed*1000 + int64(trial)))
	c := core.NewCompiler(p, cost.Unit(), map[string]int{"m": m}, n)
	var segs []core.Segment
	label := fuzzCase(seed, trial, n, p) + "segments:"
	for i := 1; i <= len(p.Nests); {
		j := 1 + rng.Intn(len(p.Nests)-i+1)
		_, ss, err := c.SegmentCost(i, j)
		if err != nil {
			t.Fatalf("SegmentCost(%d, %d): %v\n%s", i, j, err, label)
		}
		segs = append(segs, core.Segment{Start: i, Len: j, Schemes: ss})
		label += fmt.Sprintf(" L%d..L%d %s;", i, i+j-1, ss)
		i += j
	}
	return segs, label
}

// checkPlanFuzz runs a random segmentation of the program (randomPlan) on
// both engines, requires the batched run to be identical to the
// per-element one (requireIdentical) and to conserve the counter's and
// the machine's counts (checkConservation), and returns it.
func checkPlanFuzz(t *testing.T, seed int64, trial, m, n int, p *ir.Program, iters int, input ir.Storage) (Result, string) {
	t.Helper()
	segs, label := randomPlan(t, seed, trial, m, n, p)
	bind := map[string]int{"m": m}
	lw := mustLower(t, p, bind)
	got, err := run(lw, segs, nil, iters, machine.DefaultConfig(), input)
	if err != nil {
		t.Fatalf("batched: %v\n%s", err, label)
	}
	want, err := runExact(lw, segs, nil, iters, machine.DefaultConfig(), input)
	if err != nil {
		t.Fatalf("exact: %v\n%s", err, label)
	}
	requireIdentical(t, label, got, want)
	checkConservation(t, label, p, bind, segs, iters, got)
	return got, label
}

// crossesChange reports whether a run crossed a scheme change that moved
// words, which the fuzzers require of some of their random plans.
func crossesChange(res Result) bool {
	return slices.ContainsFunc(res.Segments, func(s Segment) bool { return s.ChangeWords > 0 })
}

// arrayNames returns the program's array names sorted, the order every
// randomized draw over arrays uses.
func arrayNames(p *ir.Program) []string {
	names := make([]string, 0, len(p.Arrays))
	for name := range p.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// randomProgram builds a random but valid IR program: 1-3 nests over 2-3
// arrays, identity or +-1 subscripts (bounds keep them in range), and
// division-free RHS trees so no NaN can appear.
func randomProgram(rng *rand.Rand) *ir.Program {
	m := ir.V("m")
	names := []string{"P", "Q", "R"}[:2+rng.Intn(2)]
	p := &ir.Program{
		Name:      "fuzz",
		Iterative: rng.Intn(2) == 0,
		Params:    []string{"m"},
		Arrays:    map[string]*ir.Array{},
	}
	ranks := map[string]int{}
	for _, n := range names {
		rank := 1 + rng.Intn(2)
		ranks[n] = rank
		ext := make([]ir.Affine, rank)
		for i := range ext {
			ext[i] = m
		}
		p.Arrays[n] = &ir.Array{Name: n, Extents: ext}
	}

	subFor := func(idxVars []string, k int) ir.Affine {
		v := idxVars[k%len(idxVars)]
		switch rng.Intn(3) {
		case 0:
			return ir.V(v)
		case 1:
			return ir.V(v).PlusConst(-1)
		default:
			return ir.V(v).PlusConst(1)
		}
	}
	refFor := func(arr string, idxVars []string) ir.Ref {
		subs := make([]ir.Affine, ranks[arr])
		for k := range subs {
			subs[k] = subFor(idxVars, k+rng.Intn(2))
		}
		return ir.Ref{Array: arr, Subs: subs}
	}

	nNests := 1 + rng.Intn(3)
	for t := 0; t < nNests; t++ {
		depth := 1 + rng.Intn(2)
		idxVars := []string{"i", "j"}[:depth]
		nest := &ir.Nest{Label: fmt.Sprintf("N%d", t+1)}
		for d := 0; d < depth; d++ {
			// Bounds 2..m-1 keep +-1 subscripts legal.
			nest.Loops = append(nest.Loops, ir.Loop{
				Index: idxVars[d], Lo: ir.Const(2), Hi: m.PlusConst(-1), Step: 1,
			})
		}
		nStmts := 1 + rng.Intn(2)
		for s := 0; s < nStmts; s++ {
			lhsArr := names[rng.Intn(len(names))]
			// The LHS uses identity subscripts so owner-computes is clean.
			lhsSubs := make([]ir.Affine, ranks[lhsArr])
			for k := range lhsSubs {
				lhsSubs[k] = ir.V(idxVars[k%len(idxVars)])
			}
			lhs := ir.Ref{Array: lhsArr, Subs: lhsSubs}
			// RHS: a small sum/product tree over random refs and constants;
			// no division, coefficients shrink values to avoid overflow.
			r1 := refFor(names[rng.Intn(len(names))], idxVars)
			r2 := refFor(names[rng.Intn(len(names))], idxVars)
			var rhs ir.Expr
			switch rng.Intn(3) {
			case 0:
				rhs = ir.Add(ir.MulE(ir.Num(0.5), ir.Rd(r1)), ir.MulE(ir.Num(0.25), ir.Rd(r2)))
			case 1:
				rhs = ir.Sub(ir.Rd(r1), ir.MulE(ir.Num(0.5), ir.Rd(r2)))
			default:
				rhs = ir.Add(ir.MulE(ir.Num(0.5), ir.Rd(lhs)), ir.MulE(ir.Num(0.125), ir.Rd(r1)))
			}
			reads := ir.ExprReads(rhs)
			nest.Stmts = append(nest.Stmts, &ir.Stmt{
				Line:  10*t + s + 1,
				Depth: depth,
				LHS:   lhs,
				Reads: reads,
				RHS:   rhs,
				Flops: ir.ExprFlops(rhs),
				Text:  fmt.Sprintf("%s = %s", lhs, rhs),
			})
		}
		p.Nests = append(p.Nests, nest)
	}
	return p
}

// TestExecDifferentialFuzz: for random programs, random schemes (via the
// compiler) and random inputs, the parallel naive backend agrees with the
// sequential interpreter on every processor count, under one scheme set
// and under a random segmentation of the program (randomPlan).
func TestExecDifferentialFuzz(t *testing.T) {
	const m = 8
	changes := 0
	for _, seed := range fuzzSeeds {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 25; trial++ {
			p := randomProgram(rng)
			if err := p.Validate(); err != nil {
				t.Fatalf("generated invalid program: %v\n%s", err, fuzzCase(seed, trial, 0, p))
			}
			input := randomInput(p, m, rng)
			iters := 1 + rng.Intn(2)

			// Sequential reference on a deep copy.
			ref := ir.NewStorage(p)
			for name, elems := range input {
				for k, v := range elems {
					ref[name][k] = v
				}
			}
			if err := ir.EvalProgram(p, map[string]int{"m": m}, ref, nil, iters); err != nil {
				t.Fatalf("sequential eval: %v\n%s", err, fuzzCase(seed, trial, 0, p))
			}

			for _, n := range []int{1, 2, 4} {
				ss := fuzzSchemes(t, p, m, n)
				if ss == nil {
					continue
				}
				res, err := Run(p, ss, map[string]int{"m": m}, nil, iters, machine.DefaultConfig(), input)
				if err != nil {
					t.Fatalf("%v\n%s", err, fuzzCase(seed, trial, n, p))
				}
				requireValues(t, fuzzCase(seed, trial, n, p), res, ref)
				res, label := checkPlanFuzz(t, seed, trial, m, n, p, iters, input)
				requireValues(t, label, res, ref)
				if crossesChange(res) {
					changes++
				}
			}
		}
	}
	if changes == 0 {
		t.Error("no random plan crossed a scheme change that moved a word")
	}
}

// requireValues requires every element of the reference state in the
// result, to 1e-9.
func requireValues(t *testing.T, label string, res Result, ref ir.Storage) {
	t.Helper()
	for name, elems := range ref {
		for k, want := range elems {
			got := res.Values[name][k]
			if d := got - want; d > 1e-9 || d < -1e-9 {
				t.Fatalf("%s[%s] = %v, want %v\n%s", name, k, got, want, label)
			}
		}
	}
}

func fuzzSchemes(t *testing.T, p *ir.Program, m, n int) *core.SchemeSet {
	t.Helper()
	g, err := align.BuildGraph(p, p.Nests, align.WeightParams{Bind: map[string]int{"m": m}, N: n, Tc: 1})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := align.ExactAlign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.Analyse(p, map[string]int{"m": m})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := core.DeriveSchemes(an, pt, [2]int{n, 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}
