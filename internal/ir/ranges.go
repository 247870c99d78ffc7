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

// RangeAt checks the program at size m: an extent below 1 is the error
// Lower(m) returns, and a subscript outside its array's declared extent a
// *RangeError naming the first such. Every constant is read at m through
// its form's size term, so one lowering answers for any size without
// re-binding, and a nil answer allocates nothing.
//
// A subscript's least and greatest values come from substituting loop
// bounds for indices, innermost first (affine arithmetic, no iteration),
// so a triangular bound carries its outer index into the next
// substitution. A loop with constant bounds is first clipped to where each
// inner loop around the statement that is bounded by it alone, with a unit
// coefficient, runs: at k = m, DO i = k+1, m runs nothing. The bounds are
// never narrower than what executes, and wider only where an inner loop
// the clip does not cover is empty for part of an outer loop's range.
func (lw *Lowered) RangeAt(m int) error {
	dm := m - lw.size
	if err := lw.extentsAt(dm); err != nil {
		return err
	}
	var buf [8]LLoop // nests are rarely deeper: the loops stay on the stack
	for t := range lw.Nests {
		ln := &lw.Nests[t]
		for si := range ln.Stmts {
			ls := &ln.Stmts[si]
			loops := ln.clipped(buf[:0], ls.Depth, dm)
			for ri := -1; ri < len(ls.Reads); ri++ {
				lr := ls.Ref(ri)
				for d := range lr.Subs {
					lo, hi := extreme(&lr.Subs[d], loops, dm, false), extreme(&lr.Subs[d], loops, dm, true)
					// lo > hi: a loop above the statement never runs.
					if extent := lw.Shapes[lr.Array][d] + lw.shapeM[lr.Array][d]*dm; lo <= hi && (lo < 1 || hi > extent) {
						st := lw.Program.Nests[t].Stmts[si]
						return &RangeError{Nest: lw.Program.Nests[t].Label, Line: st.Line, Ref: st.ref(ri), Dim: d, Min: lo, Max: hi, Extent: extent}
					}
				}
			}
		}
	}
	return nil
}

// clipped appends the nest's first depth loops to out with their bounds'
// constants read dm sizes past the lowering's own, each loop with constant
// bounds clipped to where every inner loop among them that is bounded by
// it alone, with a unit coefficient, runs.
func (ln *LNest) clipped(out []LLoop, depth, dm int) []LLoop {
	out = append(out, ln.Loops[:depth]...)
	for d := range out {
		out[d].Lo.K += out[d].Lo.M * dm
		out[d].Hi.K += out[d].Hi.M * dm
	}
	for d := range out {
		if len(out[d].Lo.C)+len(out[d].Hi.C) > 0 {
			continue
		}
		lo, hi := &out[d].Lo.K, &out[d].Hi.K
		if out[d].Step < 0 {
			lo, hi = hi, lo
		}
		for _, in := range out[d+1:] {
			cHi, okHi := in.Hi.only(d)
			cLo, okLo := in.Lo.only(d)
			// The inner loop runs at index k iff g0 + gk·k ≥ 0 (a step is ±1).
			g0, gk := in.Step*(in.Hi.K-in.Lo.K), in.Step*(cHi-cLo)
			if okHi && okLo && gk == 1 {
				*lo = max(*lo, -g0)
			} else if okHi && okLo && gk == -1 {
				*hi = min(*hi, g0)
			}
		}
	}
	return out
}

// only is l's coefficient of loop d, and whether it reads no other loop.
func (l *Lin) only(d int) (c int, ok bool) {
	for e, ce := range l.C {
		if e == d {
			c = ce
		} else if ce != 0 {
			return 0, false
		}
	}
	return c, true
}

// extreme is the greatest (max) or least value of l, dm sizes past the
// lowering's own, over the iterations of the loops clipped returns: each
// index, innermost first, is replaced by the end of its range the term's
// sign calls for.
func extreme(l *Lin, loops []LLoop, dm int, max bool) int {
	var buf [8]int // nests are rarely deeper: c stays on the stack
	k, c := l.K+l.M*dm, append(buf[:0], l.C...)
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
