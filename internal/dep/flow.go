// Flow analysis: for a token (a read reference), find the statement that
// generates its value and the iteration at which it was generated —
// Table 5's "generated in index" information (e.g. token B(k) in line 5
// "was generated in index (k-1, k)^t").
package dep

import (
	"strings"

	"dmcc/internal/ir"
)

// Producer describes where a token's value comes from.
type Producer struct {
	// Stmt is the generating statement (nil if the value flows in from
	// outside the nest — program input or an earlier nest).
	Stmt *ir.Stmt
	// GenIndex renders the generating iteration in terms of the reader's
	// loop indices, e.g. "(k-1,k)" for B(k) read at (k,i).
	GenIndex string
	// SameIteration is true when the producer runs in the same iteration
	// vector as the consumer (loop-independent dependence).
	SameIteration bool
}

// FindProducer locates the last write of the token's element before its
// read at the given statement, within the same nest.
//
// The analysis solves the subscript equations for writes of the same
// array: a write W with subscripts w(I') generates the value read by R
// with subscripts r(I) when w(I') = r(I). For the affine single-index
// subscripts of the paper's programs each equation determines one
// coordinate of I'; remaining coordinates take the latest value allowed
// by the loop bounds and the "before the read" requirement.
func FindProducer(p *ir.Program, nest *ir.Nest, reader *ir.Stmt, token ir.Ref) (Producer, error) {
	var best *ir.Stmt
	bestIdx := -1
	readerIdx := -1
	for i, st := range nest.Stmts {
		if st == reader {
			readerIdx = i
		}
		if st.LHS.Array == token.Array {
			best = st
			bestIdx = i
		}
	}
	if best == nil {
		return Producer{GenIndex: "(input)"}, nil
	}
	_ = readerIdx

	// Solve w(I') = r(I) coordinate by coordinate.
	writerScope := make([]string, best.Depth)
	for i := 0; i < best.Depth; i++ {
		writerScope[i] = nest.Loops[i].Index
	}
	gen := make([]string, best.Depth)
	for i := range gen {
		gen[i] = "?"
	}
	for d := range token.Subs {
		w := best.LHS.Subs[d]
		r := token.Subs[d]
		// Single-variable affine subscript: coeff*v + c = r  =>  v = (r-c)/coeff.
		vars := w.Vars()
		if len(vars) != 1 {
			continue
		}
		v := vars[0]
		if w.CoeffOf(v) != 1 {
			continue // non-unit coefficients are out of the paper's class
		}
		pos := indexPos(writerScope, v)
		if pos < 0 {
			continue
		}
		// v = r - const(w).
		expr := r.PlusConst(-w.Const)
		gen[pos] = expr.String()
	}

	// Unsolved coordinates: the writer ran at the latest legal value of
	// that loop before the reader needs the value. For the paper's
	// forward loops that is the reader's value minus one when the same
	// index drives both (the loop-carried case), rendered symbolically.
	sameIter := true
	for pos, g := range gen {
		if g != "?" {
			// If the generating coordinate differs from the plain reader
			// index the dependence is loop-carried.
			if g != writerScope[pos] {
				sameIter = false
			}
			continue
		}
		sameIter = false
		idx := writerScope[pos]
		if _, ok := nest.Loop(idx); ok {
			gen[pos] = idx + "-1"
		}
	}
	// A producer later in statement order within the same iteration means
	// the value actually comes from the previous outer iteration.
	if sameIter && bestIdx > readerIdx && readerIdx >= 0 {
		sameIter = false
		// The outermost unsolved-from-equality coordinate steps back one.
		for pos := range gen {
			if gen[pos] == writerScope[pos] {
				gen[pos] = writerScope[pos] + "-1"
				break
			}
		}
	}
	return Producer{
		Stmt:          best,
		GenIndex:      "(" + strings.Join(gen, ",") + ")",
		SameIteration: sameIter,
	}, nil
}

func indexPos(scope []string, v string) int {
	for i, s := range scope {
		if s == v {
			return i
		}
	}
	return -1
}

// DependenceVector renders the constant dependence distance between the
// producer iteration and the reader's iteration when all components are
// constant, e.g. "(1,0)" for B(i) in line 5 (generated one k-iteration
// earlier). Non-constant components render as "*".
func DependenceVector(nest *ir.Nest, reader *ir.Stmt, prod Producer) string {
	if prod.Stmt == nil {
		return "(input)"
	}
	depth := prod.Stmt.Depth
	comps := make([]string, depth)
	genParts := strings.Split(strings.Trim(prod.GenIndex, "()"), ",")
	for i := 0; i < depth; i++ {
		idx := nest.Loops[i].Index
		if i >= len(genParts) {
			comps[i] = "*"
			continue
		}
		g := strings.TrimSpace(genParts[i])
		switch g {
		case idx:
			comps[i] = "0"
		case idx + "-1":
			comps[i] = "1"
		default:
			comps[i] = "*"
		}
	}
	return "(" + strings.Join(comps, ",") + ")"
}
