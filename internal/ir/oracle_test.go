package ir

import (
	"fmt"
	"io/fs"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dmcc"
)

// The tree walker: the evaluation semantics the lowering replaced, kept
// verbatim as the oracle of LNest.Walk, Offset, LStmt.Eval and
// EvalProgram. It evaluates names from a map environment with
// Affine.Eval, so it shares nothing with Lower but the program.

// evalTree evaluates e under env: load resolves an array reference at its
// subscripts, scalars binds free scalar names. An unbound scalar or an
// unknown operator panics.
func evalTree(e Expr, env map[string]int, load func(Ref, []int) float64, scalars map[string]float64) float64 {
	switch v := e.(type) {
	case Num:
		return float64(v)
	case Scalar:
		val, ok := scalars[string(v)]
		if !ok {
			panic(fmt.Sprintf("ir: unbound scalar %q", string(v)))
		}
		return val
	case RefE:
		idx := make([]int, len(v.Ref.Subs))
		for k, s := range v.Ref.Subs {
			idx[k] = s.Eval(env)
		}
		return load(v.Ref, idx)
	case NegE:
		return -evalTree(v.E, env, load, scalars)
	case BinOp:
		l := evalTree(v.L, env, load, scalars)
		r := evalTree(v.R, env, load, scalars)
		switch v.Op {
		case '+':
			return l + r
		case '-':
			return l - r
		case '*':
			return l * r
		case '/':
			return l / r
		}
		panic(fmt.Sprintf("ir: unknown operator %q", v.Op))
	}
	panic(fmt.Sprintf("ir: unsupported right-hand side node %T", e))
}

// walkTree visits the nest's statement instances in program order under
// bind: at each loop level the statements before the inner loop (IsPost),
// the loop, then the statements after it. env holds bind and the enclosing
// loops' indices; it is reused between calls.
func walkTree(n *Nest, bind map[string]int, visit func(st *Stmt, env map[string]int) error) error {
	env := maps.Clone(bind)
	var walk func(level int) error
	walk = func(level int) error {
		for _, after := range [2]bool{false, true} {
			if after && level < len(n.Loops) {
				l := n.Loops[level]
				for v, hi := l.Lo.Eval(env), l.Hi.Eval(env); (hi-v)*l.Step >= 0; v += l.Step {
					env[l.Index] = v
					if err := walk(level + 1); err != nil {
						return err
					}
				}
				delete(env, l.Index)
			}
			for _, st := range n.Stmts {
				if st.Depth == level && n.IsPost(st) == after {
					if err := visit(st, env); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	return walk(0)
}

// evalProgramTree is EvalProgram by the tree walker, over the string-keyed
// storage itself: an element never written reads as zero, and no
// subscript is checked.
func evalProgramTree(p *Program, bind map[string]int, st Storage, scalars map[string]float64, iters int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if !p.Iterative {
		iters = 1
	}
	for it := 0; it < iters; it++ {
		for _, nest := range p.Nests {
			err := walkTree(nest, bind, func(stmt *Stmt, env map[string]int) error {
				idx := make([]int, len(stmt.LHS.Subs))
				for k, s := range stmt.LHS.Subs {
					idx[k] = s.Eval(env)
				}
				v := 0.0
				if stmt.RHS != nil {
					v = evalTree(stmt.RHS, env, st.Load, scalars)
				}
				if math.IsNaN(v) {
					return fmt.Errorf("ir: NaN at %s line %d", stmt.LHS, stmt.Line)
				}
				st.Store(stmt.LHS.Array, idx, v)
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// oracleScalars binds every scalar the corpus reads.
var oracleScalars = map[string]float64{"OMEGA": 1.25}

// oracleCorpus is every testdata listing, the builtins, the stencil and
// Synthetic(4..8).
func oracleCorpus(t *testing.T) []*Program {
	t.Helper()
	files, err := fs.Glob(dmcc.Listings, "testdata/*.f")
	if err != nil || len(files) == 0 {
		t.Fatalf("listings: %v %v", files, err)
	}
	var out []*Program
	for _, f := range files {
		src, err := dmcc.Listings.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, p)
	}
	out = append(out, builtinPrograms()...)
	out = append(out, Stencil())
	for s := 4; s <= 8; s++ {
		out = append(out, Synthetic(s))
	}
	return out
}

// randomStorage gives every element of every array of lw a value in
// [1, 2), so no division blows up.
func randomStorage(lw *Lowered, rng *rand.Rand) Storage {
	st := NewStorage(lw.Program)
	for a, name := range lw.Names {
		n := 1
		for _, e := range lw.Shapes[a] {
			n *= e
		}
		for off := range n {
			st.Store(name, lw.Index(a, off, nil), 1+rng.Float64())
		}
	}
	return st
}

// checkIRLowering holds p's lowering under bind to the tree walker at
// every statement instance: LNest.Walk visits the instances walkTree
// visits, in its order, with the loop vector walkTree's environment
// holds; the bounds of every loop enclosing the statement and of the loop
// just inside it, and every subscript the statement reads or writes,
// equal what Affine.Eval gives; Offset names the element the subscripts
// name; and LStmt.Eval over the values of those elements in vals equals
// evalTree bit for bit.
func checkIRLowering(t *testing.T, label string, p *Program, bind map[string]int, vals Storage) {
	t.Helper()
	lw, err := p.Lower(bind)
	if err != nil {
		t.Fatalf("%v\n%s", err, label)
	}
	sv, err := lw.ScalarValues(oracleScalars)
	if err != nil {
		t.Fatalf("%v\n%s", err, label)
	}
	for ti, nest := range p.Nests {
		ln := &lw.Nests[ti]
		type instance struct {
			si int
			iv []int
		}
		var lowered []instance
		iv := make([]int, len(ln.Loops))
		ln.Walk(iv, func(si int) error {
			lowered = append(lowered, instance{si, slices.Clone(iv[:ln.Stmts[si].Depth])})
			return nil
		})
		next := 0
		err := walkTree(nest, bind, func(st *Stmt, env map[string]int) error {
			si := slices.Index(nest.Stmts, st)
			if next == len(lowered) {
				return fmt.Errorf("the lowered walk ends after %d instances, the tree walk goes on", next)
			}
			in := lowered[next]
			next++
			for k := range st.Depth {
				if want := env[nest.Loops[k].Index]; in.si != si || in.iv[k] != want {
					return fmt.Errorf("instance %d: lowered walk at stmt %d slot %d = %d, tree walk at stmt %d, %d", next, in.si, k, in.iv[k], si, want)
				}
				iv[k] = in.iv[k]
			}
			for k := 0; k <= st.Depth && k < len(nest.Loops); k++ {
				l, ll := nest.Loops[k], &ln.Loops[k]
				if ll.Lo.At(iv) != l.Lo.Eval(env) || ll.Hi.At(iv) != l.Hi.Eval(env) || ll.Step != l.Step {
					return fmt.Errorf("%s loop %s at %v: lowered %d..%d step %d, ir %s..%s = %d..%d",
						nest.Label, l.Index, iv[:st.Depth], ll.Lo.At(iv), ll.Hi.At(iv), ll.Step, l.Lo, l.Hi, l.Lo.Eval(env), l.Hi.Eval(env))
				}
			}
			ls := &ln.Stmts[si]
			ops := make([]float64, len(st.Reads))
			for ri := -1; ri < len(st.Reads); ri++ {
				r, lr := st.LHS, &ls.LHS
				if ri >= 0 {
					r, lr = st.Reads[ri], &ls.Reads[ri]
				}
				if lw.Names[lr.Array] != r.Array {
					return fmt.Errorf("line %d: %s lowered to array %s", st.Line, r, lw.Names[lr.Array])
				}
				idx := make([]int, len(r.Subs))
				for d, sub := range r.Subs {
					idx[d] = sub.Eval(env)
					if got := lr.Subs[d].At(iv); got != idx[d] {
						return fmt.Errorf("line %d: %s subscript %d at %v: lowered %d, ir %d", st.Line, r, d+1, iv[:st.Depth], got, idx[d])
					}
				}
				off, ok := lr.Offset(iv)
				if !ok {
					return lw.Outside(ti, si, ri, iv)
				}
				if got := lw.Index(lr.Array, off, nil); !slices.Equal(got, idx) {
					return fmt.Errorf("line %d: %s at %v: Offset names %v, ir %v", st.Line, r, iv[:st.Depth], got, idx)
				}
				if ri >= 0 {
					ops[ri] = vals.Load(r, idx)
				}
			}
			want := 0.0
			if st.RHS != nil {
				want = evalTree(st.RHS, env, vals.Load, oracleScalars)
			}
			if got := ls.Eval(ops, sv); math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("line %d: %s at %v: lowered %v, tree %v", st.Line, st.RHS, iv[:st.Depth], got, want)
			}
			return nil
		})
		if err == nil && next != len(lowered) {
			err = fmt.Errorf("the tree walk ends after %d instances, the lowered one has %d", next, len(lowered))
		}
		if err != nil {
			t.Fatalf("%s: %v\n%s", nest.Label, err, label)
		}
	}
}

// TestLoweredEvalMatchesTree: on every statement instance of the corpus
// at m = 8 and 16, the lowering equals the tree walker bit for bit
// (checkIRLowering).
func TestLoweredEvalMatchesTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range oracleCorpus(t) {
		for _, m := range []int{8, 16} {
			bind, err := p.BindSize(m)
			if err != nil {
				t.Fatal(err)
			}
			lw, err := p.Lower(bind)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			checkIRLowering(t, fmt.Sprintf("%s at m=%d", p.Name, m), p, bind, randomStorage(lw, rng))
		}
	}
}

// TestEvalProgramMatchesTree: on the corpus at m = 8 and 16, EvalProgram
// leaves the storage the tree walker's EvalProgram leaves, keys and values
// bit for bit, from an input that leaves out every third element of each
// array but the diagonal of a 2-D one, which dominates its row.
func TestEvalProgramMatchesTree(t *testing.T) {
	for _, p := range oracleCorpus(t) {
		for _, m := range []int{8, 16} {
			bind, _ := p.BindSize(m)
			lw, err := p.Lower(bind)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			rng := rand.New(rand.NewSource(int64(m)))
			in := NewStorage(p)
			for a, name := range lw.Names {
				n := 1
				for _, e := range lw.Shapes[a] {
					n *= e
				}
				for off := range n {
					idx := lw.Index(a, off, nil)
					v, diag := 1+rng.Float64(), len(idx) == 2 && idx[0] == idx[1]
					if diag {
						v += float64(2 * lw.Shapes[a][1])
					}
					if off%3 != 1 || diag {
						in.Store(name, idx, v)
					}
				}
			}
			got, want := clone(in), clone(in)
			if err := EvalProgram(p, bind, got, oracleScalars, 2); err != nil {
				t.Fatalf("%s at m=%d: %v", p.Name, m, err)
			}
			if err := evalProgramTree(p, bind, want, oracleScalars, 2); err != nil {
				t.Fatalf("%s at m=%d: tree: %v", p.Name, m, err)
			}
			for _, name := range lw.Names {
				if len(got[name]) != len(want[name]) {
					t.Fatalf("%s at m=%d: %s holds %d elements, the tree walker's %d", p.Name, m, name, len(got[name]), len(want[name]))
				}
				for key, w := range want[name] {
					if g, ok := got[name][key]; !ok || math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s at m=%d: %s(%s) = %v (held %v), tree walker %v", p.Name, m, name, key, g, ok, w)
					}
				}
			}
		}
	}
}

func clone(st Storage) Storage {
	out := Storage{}
	for name, elems := range st {
		out[name] = maps.Clone(elems)
	}
	return out
}

// TestEvalProgramNamesAnUnboundScalar: a scalar the program reads that the
// call leaves unbound is an error naming it, not a panic.
func TestEvalProgramNamesAnUnboundScalar(t *testing.T) {
	p := SOR()
	err := EvalProgram(p, map[string]int{"m": 4}, NewStorage(p), nil, 1)
	if err == nil || !strings.Contains(err.Error(), `unbound scalar "OMEGA"`) {
		t.Fatalf("EvalProgram = %v, want an error naming the unbound scalar OMEGA", err)
	}
}

// TestEvalProgramRefusesOutsideExtents: an element outside its array's
// extents, read or written, is an error naming the line, the reference
// and the subscripts — it used to read as 0, and write a key no array
// holds — and so is an input key that is not canonical or lies outside
// its array. The storage is left as it was.
func TestEvalProgramRefusesOutsideExtents(t *testing.T) {
	src := func(stmt string) *Program {
		p, err := Parse("PROGRAM p\nPARAM m\nREAL A(m), B(m)\nDO 10 i = 1, m\n" + stmt + "\n10 CONTINUE\nEND\n")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	bind := map[string]int{"m": 4}
	for _, c := range []struct {
		stmt string
		want []string
	}{
		{"B(i) = A(i+1)", []string{"line 5", "A(i+1)", "[5]", "[4]"}},
		{"B(i+1) = A(i)", []string{"line 5", "B(i+1)", "[5]"}},
	} {
		p := src(c.stmt)
		st := NewStorage(p)
		st.Store("A", []int{1}, 3)
		err := EvalProgram(p, bind, st, nil, 1)
		for _, w := range c.want {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("%s: EvalProgram = %v, want an error naming %q", c.stmt, err, w)
			}
		}
		if len(st["B"]) != 0 || len(st["A"]) != 1 {
			t.Errorf("%s: the failed run changed the storage: %v", c.stmt, st)
		}
	}
	p := src("B(i) = A(i)")
	for _, key := range []string{"5", "0", "01", "1,1", "x"} {
		st := NewStorage(p)
		st["A"][key] = 1
		err := EvalProgram(p, bind, st, nil, 1)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", key)) || !strings.Contains(err.Error(), "array A") {
			t.Errorf("input key %q: EvalProgram = %v, want an error naming the key and the array", key, err)
		}
	}
}

// randomLoweringProgram draws one nest that exercises everything the
// lowering resolves: loops of depth 1-3 running up or down, triangular
// bounds on outer slots, statements at every depth both before and after
// the inner loop (IsPost), subscripts with negative, zero and cancelling
// coefficients or no loop variable at all, and right-hand sides over all
// five node types. Every subscript stays within [1, m] by construction.
func randomLoweringProgram(rng *rand.Rand) *Program {
	m := V("m")
	p := &Program{
		Name: "lowering", Params: []string{"m"},
		Arrays: map[string]*Array{
			"P": {Name: "P", Extents: []Affine{m}},
			"Q": {Name: "Q", Extents: []Affine{m, m}},
		},
	}
	idx := []string{"i", "j", "k"}[:1+rng.Intn(3)]
	nest := &Nest{Label: "L1"}
	for d, v := range idx {
		lo, hi := Const(1+rng.Intn(2)), m.PlusConst(-rng.Intn(2))
		if d > 0 && rng.Intn(2) == 0 { // triangular: from or up to an outer index
			if outer := V(idx[rng.Intn(d)]); rng.Intn(2) == 0 {
				lo = outer
			} else {
				hi = outer
			}
		}
		if rng.Intn(3) == 0 {
			nest.Loops = append(nest.Loops, Loop{Index: v, Lo: hi, Hi: lo, Step: -1})
		} else {
			nest.Loops = append(nest.Loops, Loop{Index: v, Lo: lo, Hi: hi, Step: 1})
		}
	}
	sub := func(depth int) Affine {
		v, w := idx[rng.Intn(depth)], idx[rng.Intn(depth)]
		switch rng.Intn(6) {
		case 0:
			return V(v)
		case 1:
			return minus(m.PlusConst(1), V(v)) // coefficient -1
		case 2:
			return NewAffine(0, Term{Var: v, Coeff: 1}, Term{Var: w + "_", Coeff: 0}) // a zero term
		case 3:
			return NewAffine(0, Term{Var: v, Coeff: 2}, Term{Var: v, Coeff: -1})
		case 4:
			return m.PlusConst(-rng.Intn(3)) // parameter only
		default:
			return Const(1 + rng.Intn(3))
		}
	}
	ref := func(depth int) Ref {
		if rng.Intn(2) == 0 {
			return R("P", sub(depth))
		}
		return R("Q", sub(depth), sub(depth))
	}
	var expr func(depth, size int) Expr
	expr = func(depth, size int) Expr {
		if size == 0 {
			switch rng.Intn(4) {
			case 0:
				return Num(0.5 + rng.Float64())
			case 1:
				return Scalar("OMEGA")
			default:
				return Rd(ref(depth))
			}
		}
		if rng.Intn(5) == 0 {
			return NegE{E: expr(depth, size-1)}
		}
		return BinOp{Op: "+-*/"[rng.Intn(4)], L: expr(depth, size-1), R: expr(depth, rng.Intn(size))}
	}
	// Source order decides IsPost: shuffled depths put shallow statements
	// on both sides of the deeper ones.
	for s, n := 0, 2+rng.Intn(4); s < n; s++ {
		depth := 1 + rng.Intn(len(idx))
		rhs := expr(depth, rng.Intn(4))
		lhs := ref(depth)
		nest.Stmts = append(nest.Stmts, &Stmt{Line: s + 1, Depth: depth, LHS: lhs, Reads: ExprReads(rhs),
			RHS: rhs, Flops: ExprFlops(rhs), Text: fmt.Sprintf("%s = %s", lhs, rhs)})
	}
	p.Nests = []*Nest{nest}
	return p
}

// TestLoweringMatchesIR: the lowering equals the tree walker at every
// instance (checkIRLowering) of the builtins, of a right-hand side too deep
// for Eval's stack buffer, and of random nests that exercise everything it
// resolves.
func TestLoweringMatchesIR(t *testing.T) {
	const m = 6
	bind := map[string]int{"m": m}
	rng := rand.New(rand.NewSource(20260705))
	for _, p := range append(builtinPrograms(), Stencil(), Synthetic(6)) {
		lw, err := p.Lower(bind)
		if err != nil {
			t.Fatal(err)
		}
		checkIRLowering(t, p.Name, p, bind, randomStorage(lw, rng))
	}
	// A right-nested sum stacks a value per term but the last, which its
	// operator takes: past Eval's stack buffer.
	deep := Expr(Rd(R("P", V("i"))))
	for k := 0; k < 12; k++ {
		deep = BinOp{Op: "+-*/"[k%4], L: NegE{E: Num(float64(k))}, R: deep}
	}
	lhs := R("Q", V("i"), Const(1))
	wide := &Program{Name: "deep", Params: []string{"m"}, Arrays: map[string]*Array{
		"P": {Name: "P", Extents: []Affine{V("m")}}, "Q": {Name: "Q", Extents: []Affine{V("m"), V("m")}}},
		Nests: []*Nest{{Label: "L1", Loops: []Loop{{Index: "i", Lo: Const(1), Hi: V("m"), Step: 1}},
			Stmts: []*Stmt{{Line: 1, Depth: 1, LHS: lhs, Reads: ExprReads(deep), RHS: deep, Flops: ExprFlops(deep)}}}}}
	lw, err := wide.Lower(bind)
	if err != nil {
		t.Fatal(err)
	}
	if d := lw.Nests[0].Stmts[0].depth; d != 12 {
		t.Fatalf("a right-nested sum of 13 terms stacks %d values, want 12", d)
	}
	checkIRLowering(t, "deep", wide, bind, randomStorage(lw, rng))
	for trial := 0; trial < 240; trial++ {
		p := randomLoweringProgram(rng)
		lw, err := p.Lower(bind)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkIRLowering(t, fmt.Sprintf("trial %d:\n%s", trial, Print(p)), p, bind, randomStorage(lw, rng))
	}
}
