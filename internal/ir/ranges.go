package ir

import "fmt"

// RangeError reports a subscript that leaves its array's declared extent
// under a binding — an error in the program text or the binding, never in
// the compiler.
type RangeError struct {
	Nest     string
	Line     int
	Ref      Ref
	Dim      int // 0-based subscript position
	Min, Max int // what the subscript ranges over
	Extent   int // the dimension is declared 1..Extent
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("ir: %s line %d: subscript %s of %s ranges over [%d, %d], outside the declared [1, %d]",
		e.Nest, e.Line, e.Ref.Subs[e.Dim], e.Ref, e.Min, e.Max, e.Extent)
}

// CheckRanges verifies that every subscript stays inside its array's
// declared extent: a *RangeError names the first that does not. A
// subscript's least and greatest values come from substituting loop bounds
// for indices, innermost loop first (affine arithmetic, no iteration), so a
// triangular bound carries its outer index into the next substitution. The
// bounds are never narrower than what executes; they are wider only where
// an inner loop is empty for part of an outer loop's range.
func (lw *Lowered) CheckRanges() error {
	for t, nest := range lw.Program.Nests {
		ln := &lw.Nests[t]
		for si, st := range nest.Stmts {
			ls := &ln.Stmts[si]
			for ri := -1; ri < len(ls.Reads); ri++ {
				r, lr := st.LHS, &ls.LHS
				if ri >= 0 {
					r, lr = st.Reads[ri], &ls.Reads[ri]
				}
				for d := range lr.Subs {
					lo, hi := extreme(&lr.Subs[d], ln.Loops, false), extreme(&lr.Subs[d], ln.Loops, true)
					// lo > hi: a loop above the statement never runs.
					if extent := lw.Shapes[lr.Array][d]; lo <= hi && (lo < 1 || hi > extent) {
						return &RangeError{Nest: nest.Label, Line: st.Line, Ref: r, Dim: d, Min: lo, Max: hi, Extent: extent}
					}
				}
			}
		}
	}
	return nil
}

// extreme is the greatest (max) or least value of l over the loops'
// iterations: each index, innermost first, is replaced by the end of its
// range the term's sign calls for.
func extreme(l *Lin, loops []LLoop, max bool) int {
	var buf [4]int // nests are rarely deeper: c stays on the stack
	k, c := l.K, append(buf[:0], l.C...)
	for d := len(c) - 1; d >= 0; d-- {
		if c[d] == 0 {
			continue
		}
		// An up loop's greatest index is its Hi, a down loop's its Lo.
		end := &loops[d].Lo
		if (c[d] > 0) == max == (loops[d].Step > 0) {
			end = &loops[d].Hi
		}
		k += c[d] * end.K
		for e, ce := range end.C {
			c[e] += c[d] * ce
		}
	}
	return k
}
