package ir

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// treeNode is a right-hand side as a pointer tree over resolved operands:
// Num, the Reads index of a reference, or a scalar slot at the leaves.
// It is the shape LStmt.Eval's postfix steps replaced, kept only to time
// them against.
type treeNode struct {
	op   byte // a lop op, opNeg and the binary ops with l (and r) set
	arg  int32
	val  float64
	l, r *treeNode
}

// treeOf builds e's tree for statement st, its scalars numbered in
// scalars.
func treeOf(e Expr, st *Stmt, scalars []string) *treeNode {
	switch v := e.(type) {
	case Num:
		return &treeNode{op: opNum, val: float64(v)}
	case Scalar:
		return &treeNode{op: opScalar, arg: int32(slices.Index(scalars, string(v)))}
	case RefE:
		return &treeNode{op: opRead, arg: int32(slices.IndexFunc(st.Reads, v.Ref.Equal))}
	case NegE:
		return &treeNode{op: opNeg, l: treeOf(v.E, st, scalars)}
	case BinOp:
		k := map[byte]byte{'+': opAdd, '-': opSub, '*': opMul, '/': opDiv}[v.Op]
		return &treeNode{op: k, l: treeOf(v.L, st, scalars), r: treeOf(v.R, st, scalars)}
	}
	panic(fmt.Sprintf("ir: unsupported right-hand side node %T", e))
}

func (n *treeNode) eval(vals, scalars []float64) float64 {
	switch n.op {
	case opNum:
		return n.val
	case opRead:
		return vals[n.arg]
	case opScalar:
		return scalars[n.arg]
	case opNeg:
		return -n.l.eval(vals, scalars)
	case opAdd:
		return n.l.eval(vals, scalars) + n.r.eval(vals, scalars)
	case opSub:
		return n.l.eval(vals, scalars) - n.r.eval(vals, scalars)
	case opMul:
		return n.l.eval(vals, scalars) * n.r.eval(vals, scalars)
	}
	return n.l.eval(vals, scalars) / n.r.eval(vals, scalars)
}

// evalCase is one statement with a right-hand side, lowered, as a tree,
// and operand values to evaluate it over.
type evalCase struct {
	ls   *LStmt
	tree *treeNode
	vals []float64
}

// evalCases are every statement with a right-hand side of gauss, jacobi
// and sor at m = 16, with random operand values and OMEGA = 1.2.
func evalCases(tb testing.TB) ([]evalCase, []float64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	var cases []evalCase
	var scalars []float64
	for _, p := range []*Program{Gauss(), Jacobi(), SOR()} {
		bind, _ := p.BindSize(16)
		lw, err := p.Lower(bind)
		if err != nil {
			tb.Fatal(err)
		}
		sv, err := lw.ScalarValues(map[string]float64{"OMEGA": 1.2})
		if err != nil {
			tb.Fatal(err)
		}
		if len(sv) > len(scalars) {
			scalars = sv
		}
		for t, nest := range p.Nests {
			for i, st := range nest.Stmts {
				if st.RHS == nil {
					continue
				}
				vals := make([]float64, len(st.Reads))
				for k := range vals {
					vals[k] = 1 + rng.Float64()
				}
				cases = append(cases, evalCase{&lw.Nests[t].Stmts[i], treeOf(st.RHS, st, lw.scalars), vals})
			}
		}
	}
	return cases, scalars
}

// BenchmarkLStmtEval times one evaluation of every gauss, jacobi and sor
// statement per op: the postfix steps LStmt.Eval runs, and the pointer
// tree over the same resolved operands they replaced.
func BenchmarkLStmtEval(b *testing.B) {
	cases, scalars := evalCases(b)
	var sink float64
	b.Run("postfix", func(b *testing.B) {
		for range b.N {
			for i := range cases {
				sink += cases[i].ls.Eval(cases[i].vals, scalars)
			}
		}
	})
	b.Run("tree", func(b *testing.B) {
		for range b.N {
			for i := range cases {
				sink += cases[i].tree.eval(cases[i].vals, scalars)
			}
		}
	})
	if sink == 0 {
		b.Log(sink)
	}
}

// TestTreeMatchesLStmtEval: the benchmark's two forms agree bit for bit.
func TestTreeMatchesLStmtEval(t *testing.T) {
	cases, scalars := evalCases(t)
	for _, c := range cases {
		if got, want := c.ls.Eval(c.vals, scalars), c.tree.eval(c.vals, scalars); got != want {
			t.Fatalf("postfix %v, tree %v", got, want)
		}
	}
}
