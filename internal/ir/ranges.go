package ir

import (
	"fmt"
	"math"
)

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
// *RangeError naming the first such. It reads the bounds Lower derived as
// functions of the size (deriveRanges): a few multiply-adds and
// comparisons per subscript, whatever the size and however often the
// lowering was re-bound, and a nil answer allocates nothing.
func (lw *Lowered) RangeAt(m int) error {
	if m < lw.minM || m > lw.maxM {
		return lw.extentsAt(m - lw.size)
	}
	for i := range lw.checks {
		c := &lw.checks[i]
		// lo > hi: a loop above the statement never runs.
		if lo, hi, extent := c.lo.at(m), c.hi.at(m), c.extent.at(m); lo <= hi && (lo < 1 || hi > extent) {
			nest := lw.Program.Nests[c.t]
			st := nest.Stmts[c.si]
			return &RangeError{Nest: nest.Label, Line: st.Line, Ref: st.ref(c.ri), Dim: c.d, Min: lo, Max: hi, Extent: extent}
		}
	}
	return nil
}

// sizeForm is K + M·m, a constant as a function of the size m.
type sizeForm struct{ K, M int }

func (f sizeForm) at(m int) int { return f.K + f.M*m }

func (f sizeForm) times(c int) sizeForm { return sizeForm{c * f.K, c * f.M} }

// bound is a subscript's least or greatest value at size m: the form's
// value plus each clip's.
type bound struct {
	sizeForm
	clips []clip
}

// clip is a clipped loop end times the coefficient it enters a bound
// with: sign × the greatest of its forms, each stored times sign, so a
// least end is -max(-forms).
type clip struct {
	sign  int
	forms []sizeForm
}

func (b *bound) at(m int) int {
	v := b.sizeForm.at(m)
	for _, cl := range b.clips {
		e := math.MinInt
		for _, f := range cl.forms {
			e = max(e, f.at(m))
		}
		v += cl.sign * e
	}
	return v
}

// rangeCheck is one subscript's least and greatest values and its
// dimension's extent as functions of the size, and where it is written:
// dimension d of read ri (the LHS at -1) of nest t's statement si.
type rangeCheck struct {
	t, si, ri, d int
	lo, hi       bound
	extent       sizeForm
}

// form is a constant of the lowering, k at its own size with mCoeff its
// coefficient of the size parameter, as a function of the size.
func (lw *Lowered) form(k, mCoeff int) sizeForm {
	return sizeForm{k - mCoeff*lw.size, mCoeff}
}

// deriveRanges derives what RangeAt reads, once per lowering: the sizes
// at which every extent is at least 1, and every subscript's least and
// greatest values as functions of the size. Both are stated in m itself,
// so Rebind leaves them as they are.
//
// A subscript's extremes come from substituting loop bounds for indices,
// innermost first, so a triangular bound carries its outer index into the
// next substitution. Which end each substitution takes depends on the
// coefficients' signs, never on m, so each extreme is affine in m but
// where a loop with constant bounds is clipped to where every inner loop
// around the statement that is bounded by it alone, with a unit
// coefficient, runs (at k = m, DO i = k+1, m runs nothing): a clipped end
// is the greatest or least of a few affine forms. The bounds are never
// narrower than what executes, and wider only where an inner loop the
// clip does not cover is empty for part of an outer loop's range.
func (lw *Lowered) deriveRanges() {
	lw.minM, lw.maxM = math.MinInt, math.MaxInt
	for a, shape := range lw.Shapes {
		for d, k := range shape {
			// K + M·m ≥ 1: m ≥ ⌈(1-K)/M⌉ for M > 0, m ≤ ⌊(K-1)/-M⌋ for M < 0.
			if f := lw.form(k, lw.shapeM[a][d]); f.M > 0 {
				lw.minM = max(lw.minM, -floorDiv(f.K-1, f.M))
			} else if f.M < 0 {
				lw.maxM = min(lw.maxM, floorDiv(f.K-1, -f.M))
			}
		}
	}
	for t := range lw.Nests {
		ln := &lw.Nests[t]
		for si := range ln.Stmts {
			ls := &ln.Stmts[si]
			loops := ln.Loops[:ls.Depth]
			for ri := -1; ri < len(ls.Reads); ri++ {
				lr := ls.Ref(ri)
				for d := range lr.Subs {
					lw.checks = append(lw.checks, rangeCheck{
						t: t, si: si, ri: ri, d: d,
						lo: lw.extreme(&lr.Subs[d], loops, false), hi: lw.extreme(&lr.Subs[d], loops, true),
						extent: lw.form(lw.Shapes[lr.Array][d], lw.shapeM[lr.Array][d]),
					})
				}
			}
		}
	}
}

// floorDiv is ⌊a/b⌋ for b > 0.
func floorDiv(a, b int) int {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// extreme is the greatest (max) or least value of l over the iterations
// of loops, as a function of the size: each index, innermost first, is
// replaced by the end of its range the term's sign calls for, clipped
// when its loop's bounds are constant.
func (lw *Lowered) extreme(l *Lin, loops []LLoop, max bool) bound {
	var buf [8]int // nests are rarely deeper: c stays on the stack
	b, c := bound{sizeForm: lw.form(l.K, l.M)}, append(buf[:0], l.C...)
	for d := len(c) - 1; d >= 0; d-- {
		if c[d] == 0 {
			continue
		}
		// An up loop's greatest index is its Hi, a down loop's its Lo.
		loop, end := &loops[d], &loops[d].Lo
		if (c[d] > 0) == max == (loop.Step > 0) {
			end = &loop.Hi
		}
		if len(loop.Lo.C)+len(loop.Hi.C) > 0 {
			for e, ce := range end.C {
				c[e] += c[d] * ce
			}
		} else if cl := lw.clip(loops, d, end, c[d]); cl.forms != nil {
			b.clips = append(b.clips, cl)
			continue
		}
		f := lw.form(end.K, end.M).times(c[d])
		b.K, b.M = b.K+f.K, b.M+f.M
	}
	return b
}

// clip is c × loop d's end e (its Lo or its Hi), clipped to where every
// inner loop among loops that is bounded by loop d alone, with a unit
// coefficient, runs; no forms when no inner loop is.
func (lw *Lowered) clip(loops []LLoop, d int, e *Lin, c int) clip {
	// Clipping raises a least end and lowers a greatest; c < 0 flips both.
	least := (e == &loops[d].Lo) == (loops[d].Step > 0)
	cl := clip{sign: -1}
	if least == (c > 0) {
		cl.sign = 1
	}
	for _, in := range loops[d+1:] {
		cHi, okHi := in.Hi.only(d)
		cLo, okLo := in.Lo.only(d)
		// The inner loop runs at index k iff g0 + gk·k ≥ 0 (a step is ±1):
		// a least end rises to -g0 where gk = 1, a greatest falls to g0
		// where gk = -1.
		if gk := in.Step * (cHi - cLo); okHi && okLo && (gk == 1 && least || gk == -1 && !least) {
			g0 := lw.form(in.Step*(in.Hi.K-in.Lo.K), in.Step*(in.Hi.M-in.Lo.M))
			cl.forms = append(cl.forms, g0.times(-gk*c*cl.sign))
		}
	}
	if cl.forms != nil {
		cl.forms = append(cl.forms, lw.form(e.K, e.M).times(c*cl.sign))
	}
	return cl
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
