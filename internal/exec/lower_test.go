package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

// vecProgram is DO i = lo, hi: A(i) = <rhs> over 1-D arrays A and B of
// extent m, with the given Reads; the small base the error tests mutate.
func vecProgram(lo, hi ir.Affine, rhs ir.Expr, reads []ir.Ref) *ir.Program {
	m := ir.V("m")
	return &ir.Program{
		Name: "vec", Params: []string{"m", "q"},
		Arrays: map[string]*ir.Array{
			"A": {Name: "A", Extents: []ir.Affine{m}},
			"B": {Name: "B", Extents: []ir.Affine{m}},
		},
		Nests: []*ir.Nest{{
			Label: "L1",
			Loops: []ir.Loop{{Index: "i", Lo: lo, Hi: hi, Step: 1}},
			Stmts: []*ir.Stmt{{Line: 3, Depth: 1, LHS: ir.R("A", ir.V("i")), Reads: reads,
				RHS: rhs, Flops: ir.ExprFlops(rhs), Text: "A(i) = " + rhs.String()}},
		}},
	}
}

// TestRunRejectsUnlistedRead: an RHS operand missing from Stmt.Reads is
// never shipped, so the executor used to load it from its local store and
// return wrong values with a nil error (A = 0…0 where the sequential
// interpreter gives 8…1). Both engines now refuse the program.
func TestRunRejectsUnlistedRead(t *testing.T) {
	const m, n = 8, 4
	i, one := ir.V("i"), ir.Const(1)
	mirrored := ir.R("B", ir.V("m").PlusConst(1).Minus(i))
	good := vecProgram(one, ir.V("m"), ir.Rd(mirrored), []ir.Ref{mirrored})
	bad := vecProgram(one, ir.V("m"), ir.Rd(mirrored), []ir.Ref{ir.R("B", i)})
	ss := fuzzSchemes(t, good, m, n)
	input := ir.NewStorage(good)
	for k := 1; k <= m; k++ {
		input.Store("B", []int{k}, float64(k))
	}
	bind := map[string]int{"m": m}

	res, err := Run(good, ss, bind, nil, 1, machine.DefaultConfig(), input)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= m; k++ {
		if got := res.Values.Load(ir.R("A", i), []int{k}); got != float64(m+1-k) {
			t.Errorf("consistent Reads: A(%d) = %v, want %d", k, got, m+1-k)
		}
	}
	_, err = Run(bad, ss, bind, nil, 1, machine.DefaultConfig(), input)
	_, errExact := RunExact(bad, ss, bind, nil, 1, machine.DefaultConfig(), input)
	for engine, err := range map[string]error{"Run": err, "RunExact": errExact} {
		if err == nil || !strings.Contains(err.Error(), "B(-i+m+1)") || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("%s: got %v, want an error naming the unlisted read B(-i+m+1) and line 3", engine, err)
		}
	}
}

// TestRunErrorsNotPanics: what a program or a binding can get wrong comes
// back from Run as an error that names the culprit, never as a panic in
// the caller's goroutine.
func TestRunErrorsNotPanics(t *testing.T) {
	const m, n = 8, 4
	i, one, mm := ir.V("i"), ir.Const(1), ir.V("m")
	ref := func(arr string, sub ir.Affine) (ir.Expr, []ir.Ref) {
		r := ir.R(arr, sub)
		return ir.Rd(r), []ir.Ref{r}
	}
	good, goodReads := ref("B", i)
	ss := fuzzSchemes(t, vecProgram(one, mm, good, goodReads), m, n)

	shifted, shiftedReads := ref("B", i.PlusConst(1))
	unbound, unboundReads := ref("B", i.Plus(ir.V("q")))
	undeclared, undeclaredReads := ref("Z", i)
	stepped := vecProgram(one, mm, good, goodReads)
	stepped.Nests[0].Loops[0].Step = 2
	cases := []struct {
		name string
		p    *ir.Program
		bind map[string]int
		want []string
	}{
		{"subscript outside extents", vecProgram(one, mm, shifted, shiftedReads), map[string]int{"m": m},
			[]string{"B(i+1)", "ranges over [2, 9]", "outside the declared [1, 8]", "line 3"}},
		{"unbound variable in a subscript", vecProgram(one, mm, unbound, unboundReads), map[string]int{"m": m},
			[]string{`unbound variable "q"`, "B(i+q)", "line 3"}},
		{"unbound variable in a loop bound", vecProgram(one, ir.V("q"), good, goodReads), map[string]int{"m": m},
			[]string{`unbound variable "q"`, "loop i"}},
		{"unbound variable in an extent", vecProgram(one, mm, good, goodReads), map[string]int{},
			[]string{`unbound variable "m"`, "array A"}},
		{"undeclared array", vecProgram(one, mm, undeclared, undeclaredReads), map[string]int{"m": m},
			[]string{"undeclared array", "Z"}},
		{"loop step other than 1 or -1", stepped, map[string]int{"m": m},
			[]string{"L1 loop i has step 2"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Run(c.p, ss, c.bind, nil, 1, machine.DefaultConfig(), ir.NewStorage(c.p))
			if err == nil {
				t.Fatal("Run accepted the program")
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}

	// Input keys the stores cannot place, on jacobi's 2-D A: "5" used to
	// land on A(1,5) (which value won was map order), "1,2,3" to panic
	// with an index out of range, "1,x" and "01,2" to panic naming the key.
	jac := ir.Jacobi()
	jss := wholeProgramSchemes(t, jac, m, n)
	a, b, _ := matrix.DiagonallyDominant(m, 1)
	for _, c := range []struct {
		name, arr, key string
		want           []string
	}{
		{"input key of too few subscripts", "A", "5", []string{"array A", `"5"`, "2 canonical subscripts"}},
		{"input key of too many subscripts", "A", "1,2,3", []string{"array A", `"1,2,3"`}},
		{"input key not a number", "A", "1,x", []string{"array A", `"1,x"`}},
		{"input key not canonical", "A", "01,2", []string{"array A", `"01,2"`}},
		{"input key outside the extents", "A", "9,1", []string{"array A", `"9,1"`, "[8 8]"}},
		{"input of an undeclared array", "Z", "1", []string{"undeclared array Z"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			input := loadLinearSystem(jac, a, b, make([]float64, m))
			if input[c.arr] == nil {
				input[c.arr] = map[string]float64{}
			}
			input[c.arr][c.key] = 2
			for _, engine := range []struct {
				name string
				run  func(*ir.Program, *core.SchemeSet, map[string]int, map[string]float64, int, machine.Config, ir.Storage) (Result, error)
			}{{"Run", Run}, {"RunExact", RunExact}} {
				_, err := engine.run(jac, jss, map[string]int{"m": m}, nil, 1, machine.DefaultConfig(), input)
				if err == nil {
					t.Fatalf("%s accepted the input", engine.name)
				}
				for _, w := range c.want {
					if !strings.Contains(err.Error(), w) {
						t.Errorf("%s: error %q does not mention %q", engine.name, err, w)
					}
				}
			}
		})
	}
}

// randomLoweringProgram draws one nest that exercises everything the
// lowering resolves: loops of depth 1-3 running up or down, triangular
// bounds on outer slots, statements at every depth both before and after
// the inner loop (IsPost), subscripts with negative, zero and cancelling
// coefficients or no loop variable at all, and right-hand sides over all
// five node types. Every subscript stays within [1, m] by construction.
func randomLoweringProgram(rng *rand.Rand) *ir.Program {
	m := ir.V("m")
	p := &ir.Program{
		Name: "lowering", Params: []string{"m"},
		Arrays: map[string]*ir.Array{
			"P": {Name: "P", Extents: []ir.Affine{m}},
			"Q": {Name: "Q", Extents: []ir.Affine{m, m}},
		},
	}
	idx := []string{"i", "j", "k"}[:1+rng.Intn(3)]
	nest := &ir.Nest{Label: "L1"}
	for d, v := range idx {
		lo, hi := ir.Const(1+rng.Intn(2)), m.PlusConst(-rng.Intn(2))
		if d > 0 && rng.Intn(2) == 0 { // triangular: from or up to an outer index
			if outer := ir.V(idx[rng.Intn(d)]); rng.Intn(2) == 0 {
				lo = outer
			} else {
				hi = outer
			}
		}
		if rng.Intn(3) == 0 {
			nest.Loops = append(nest.Loops, ir.Loop{Index: v, Lo: hi, Hi: lo, Step: -1})
		} else {
			nest.Loops = append(nest.Loops, ir.Loop{Index: v, Lo: lo, Hi: hi, Step: 1})
		}
	}
	sub := func(depth int) ir.Affine {
		v, w := idx[rng.Intn(depth)], idx[rng.Intn(depth)]
		switch rng.Intn(6) {
		case 0:
			return ir.V(v)
		case 1:
			return m.PlusConst(1).Minus(ir.V(v)) // coefficient -1
		case 2:
			return ir.Affine{Coeff: map[string]int{v: 1, w + "_": 0}} // a zero term
		case 3:
			return ir.NewAffine(0, ir.Term{Var: v, Coeff: 2}, ir.Term{Var: v, Coeff: -1})
		case 4:
			return m.PlusConst(-rng.Intn(3)) // parameter only
		default:
			return ir.Const(1 + rng.Intn(3))
		}
	}
	ref := func(depth int) ir.Ref {
		if rng.Intn(2) == 0 {
			return ir.R("P", sub(depth))
		}
		return ir.R("Q", sub(depth), sub(depth))
	}
	var expr func(depth, size int) ir.Expr
	expr = func(depth, size int) ir.Expr {
		if size == 0 {
			switch rng.Intn(4) {
			case 0:
				return ir.Num(0.5 + rng.Float64())
			case 1:
				return ir.Scalar("OMEGA")
			default:
				return ir.Rd(ref(depth))
			}
		}
		if rng.Intn(5) == 0 {
			return ir.NegE{E: expr(depth, size-1)}
		}
		return ir.BinOp{Op: "+-*/"[rng.Intn(4)], L: expr(depth, size-1), R: expr(depth, rng.Intn(size))}
	}
	// Source order decides IsPost: shuffled depths put shallow statements
	// on both sides of the deeper ones.
	for s, n := 0, 2+rng.Intn(4); s < n; s++ {
		depth := 1 + rng.Intn(len(idx))
		rhs := expr(depth, rng.Intn(4))
		lhs := ref(depth)
		nest.Stmts = append(nest.Stmts, &ir.Stmt{Line: s + 1, Depth: depth, LHS: lhs, Reads: ir.ExprReads(rhs),
			RHS: rhs, Flops: ir.ExprFlops(rhs), Text: fmt.Sprintf("%s = %s", lhs, rhs)})
	}
	p.Nests = []*ir.Nest{nest}
	return p
}

// mustLower is p lowered under bind, as Run's validate lowers it.
func mustLower(t *testing.T, p *ir.Program, bind map[string]int) *ir.Lowered {
	t.Helper()
	lw, err := p.Lower(bind)
	if err != nil {
		t.Fatal(err)
	}
	return lw
}

// checkIRLowering compares ir's lowering of p with what ir.Affine.Eval gives
// on the reference walk's environment, at every statement instance: every
// subscript the statement reads or writes, and the bounds of every loop
// enclosing it and of the loop just inside it.
func checkIRLowering(t *testing.T, label string, p *ir.Program, bind map[string]int) {
	t.Helper()
	lw := mustLower(t, p, bind)
	for ti, nest := range p.Nests {
		ln := &lw.Nests[ti]
		iv := make([]int, len(nest.Loops))
		err := nest.Walk(bind, func(st *ir.Stmt, env map[string]int) error {
			for k := 0; k < st.Depth; k++ {
				iv[k] = env[nest.Loops[k].Index]
			}
			for k := 0; k <= st.Depth && k < len(nest.Loops); k++ {
				l, ll := nest.Loops[k], &ln.Loops[k]
				if ll.Lo.At(iv) != l.Lo.Eval(env) || ll.Hi.At(iv) != l.Hi.Eval(env) || ll.Step != l.Step {
					return fmt.Errorf("%s loop %s at %v: lowered %d..%d step %d, ir %s..%s = %d..%d",
						nest.Label, l.Index, iv[:st.Depth], ll.Lo.At(iv), ll.Hi.At(iv), ll.Step, l.Lo, l.Hi, l.Lo.Eval(env), l.Hi.Eval(env))
				}
			}
			si := slices.Index(nest.Stmts, st)
			for ri := -1; ri < len(st.Reads); ri++ {
				r, lr := st.LHS, &ln.Stmts[si].LHS
				if ri >= 0 {
					r, lr = st.Reads[ri], &ln.Stmts[si].Reads[ri]
				}
				if lw.Names[lr.Array] != r.Array {
					return fmt.Errorf("line %d: %s lowered to array %s", st.Line, r, lw.Names[lr.Array])
				}
				for d, sub := range r.Subs {
					if got, want := lr.Subs[d].At(iv), sub.Eval(env); got != want {
						return fmt.Errorf("line %d: %s subscript %d at %v: lowered %d, ir %d", st.Line, r, d+1, iv[:st.Depth], got, want)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v\n%s", err, label)
		}
	}
}

// TestLoweringMatchesIR: ir's lowering agrees with ir.Affine.Eval at every
// instance of the six builtins and of both fuzzers' programs. Then, on the
// lowering fuzzer's nests, exec's lowered nest visits the statement
// instances ir's reference walk visits, in its order, and at each of them
// the lowered subscripts and right-hand side — over the operands the
// inspector addressed — evaluate to exactly what ir.Affine.Eval and
// ir.Expr.Eval give.
func TestLoweringMatchesIR(t *testing.T) {
	const m = 6
	bind := map[string]int{"m": m}
	scalars := map[string]float64{"OMEGA": 1.25}
	for _, p := range []*ir.Program{ir.Jacobi(), ir.SOR(), ir.Gauss(), matmul(), ir.Stencil(), ir.Synthetic(6)} {
		checkIRLowering(t, p.Name, p, bind)
	}
	for _, seed := range fuzzSeeds {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 25; trial++ {
			p := randomProgram(rng)
			checkIRLowering(t, fuzzCase(seed, trial, 0, p), p, bind)
		}
	}
	for _, seed := range fuzzSeeds {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 60; trial++ {
			p := randomLoweringProgram(rng)
			label := fuzzCase(seed, trial, 1, p)
			checkIRLowering(t, label, p, bind)
			ss := fuzzSchemes(t, p, m, 1)
			lw, err := validate(p, wholeProgram(p, ss), bind, nil)
			if err != nil {
				t.Fatalf("generated invalid program: %v\n%s", err, label)
			}
			var ivs [][]int // each opEval's loop vector, in stream order
			low := &lowering{evalTap: func(_ *nestSchedule, _, _ int, iv []int) { ivs = append(ivs, slices.Clone(iv)) }}
			s, err := wholeSchedule(lw, ss, scalars, low)
			if err != nil {
				t.Fatalf("%v\n%s", err, label)
			}
			// One value per element, in [1, 2) so no division blows up, held
			// both in the executor's store and in an ir.Storage.
			x := &s.executors()[0]
			vals := ir.NewStorage(p)
			for a, am := range s.arrays {
				for off := 0; off < am.size; off++ {
					v := 1 + rng.Float64()
					x.storeElem(mkElem(a, off), v)
					idx := s.decode(mkElem(a, off))
					vals.Store(am.name, idx, v)
				}
			}

			// On one processor every instance is exactly one opEval of the
			// stream, in walk order.
			ns, nest := s.nests[0], p.Nests[0]
			var evals []pinstr
			for _, in := range ns.stream(0) {
				if in.op == opEval {
					evals = append(evals, in)
				}
			}
			next := 0
			nest.Walk(bind, func(st *ir.Stmt, env map[string]int) error {
				si := slices.Index(nest.Stmts, st)
				if next >= len(evals) {
					t.Fatalf("lowered walk ends after %d instances, ir's goes on\n%s", next, label)
				}
				in, ls := evals[next], &ns.stmts[si]
				next++
				iv := ivs[next-1]
				if len(iv) != st.Depth {
					t.Fatalf("instance %d: loop vector %v at depth %d\n%s", next, iv, st.Depth, label)
				}
				for k := range iv {
					if want := env[nest.Loops[k].Index]; int(in.stmt) != si || iv[k] != want {
						t.Fatalf("instance %d: lowered walk at stmt %d slot %d = %d, ir at stmt %d, %d\n%s",
							next, in.stmt, k, iv[k], si, want, label)
					}
				}
				for ri, r := range append([]ir.Ref{st.LHS}, st.Reads...) {
					lr := &ls.lhs
					if ri > 0 {
						lr = &ls.reads[ri-1]
					}
					idx := make([]int, len(r.Subs))
					for d, sub := range r.Subs {
						idx[d] = sub.Eval(env)
					}
					want, _ := s.elemOf(lw.Array(r.Array), idx)
					if got, err := lr.elemAt(iv); err != nil || got != want {
						t.Fatalf("%s at %v: lowered element %d (%v), ir %d\n%s", r, iv, got, err, want, label)
					}
				}
				// One processor owns everything: every operand is a slab offset.
				var operands []float64
				for _, o := range ns.operands[in.off : int(in.off)+len(ls.reads)] {
					if o.kind() != opdOwned {
						t.Fatalf("%s at %v: operand %#x is not in the store slab\n%s", st.RHS, iv, o, label)
					}
					operands = append(operands, x.stores()[o.addr()])
				}
				if got, want := evalExpr(ls.rhs, operands), st.RHS.Eval(env, vals.Load, scalars); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s at %v: lowered RHS %v, ir %v\n%s", st.RHS, iv, got, want, label)
				}
				return nil
			})
			if next != len(evals) {
				t.Fatalf("ir's walk ends after %d instances, the lowered one has %d\n%s", next, len(evals), label)
			}
		}
	}
}
