package ir

import (
	"fmt"
	"sort"
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

// CheckRanges verifies, on a program Validate accepts, that bind gives a
// value to every variable of an extent, loop bound or subscript that is
// not a loop index, and that under it every subscript stays inside its
// array's declared extent: a *RangeError names the first that does not.
// A subscript's least and greatest values come from substituting loop
// bounds for indices, innermost loop first (affine arithmetic, no
// iteration), so a triangular bound carries its outer index into the
// next substitution. The bounds are never narrower than what executes;
// they are wider only where an inner loop is empty for part of an outer
// loop's range.
func (p *Program) CheckRanges(bind map[string]int) error {
	names := make([]string, 0, len(p.Arrays))
	for name := range p.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	extents := make(map[string][]int, len(names))
	for _, name := range names {
		for _, e := range p.Arrays[name].Extents {
			l, v := reduce(e, nil, bind)
			if v != "" {
				return fmt.Errorf("ir: array %s: unbound variable %q in extent %s", name, v, e)
			}
			extents[name] = append(extents[name], l.k)
		}
	}
	for _, nest := range p.Nests {
		// Each loop's least and greatest index value, over the indices of
		// the loops outside it.
		depth := make(map[string]int, len(nest.Loops))
		least, greatest := make([]linear, len(nest.Loops)), make([]linear, len(nest.Loops))
		for d, l := range nest.Loops {
			var v string
			if least[d], v = reduce(l.Lo, depth, bind); v != "" {
				return fmt.Errorf("ir: %s loop %s: unbound variable %q in bound %s", nest.Label, l.Index, v, l.Lo)
			}
			if greatest[d], v = reduce(l.Hi, depth, bind); v != "" {
				return fmt.Errorf("ir: %s loop %s: unbound variable %q in bound %s", nest.Label, l.Index, v, l.Hi)
			}
			if l.Step < 0 {
				least[d], greatest[d] = greatest[d], least[d]
			}
			depth[l.Index] = d
		}
		for _, st := range nest.Stmts {
			for _, r := range append([]Ref{st.LHS}, st.Reads...) {
				for d, sub := range r.Subs {
					s, v := reduce(sub, depth, bind)
					if v != "" {
						return fmt.Errorf("ir: %s line %d: unbound variable %q in %s", nest.Label, st.Line, v, r)
					}
					lo, hi := s.extreme(least, greatest, false), s.extreme(least, greatest, true)
					// lo > hi: a loop above the statement never runs.
					if extent := extents[r.Array][d]; lo <= hi && (lo < 1 || hi > extent) {
						return &RangeError{Nest: nest.Label, Line: st.Line, Ref: r, Dim: d, Min: lo, Max: hi, Extent: extent}
					}
				}
			}
		}
	}
	return nil
}

// linear is an affine expression under a binding: k + Σ c[d]·(index of
// loop d), loops outermost first.
type linear struct {
	k int
	c []int
}

// reduce evaluates a's bound variables and sorts its loop indices by
// depth; it returns a variable that is neither, if a has one.
func reduce(a Affine, depth map[string]int, bind map[string]int) (l linear, unbound string) {
	l = linear{k: a.Const, c: make([]int, len(depth))}
	for v, c := range a.Coeff {
		if d, ok := depth[v]; ok {
			l.c[d] = c
		} else if val, ok := bind[v]; ok {
			l.k += c * val
		} else if c != 0 {
			return l, v
		}
	}
	return l, ""
}

// extreme is the greatest (max) or least value of l over the loops'
// iterations: each index, innermost first, is replaced by the end of its
// range the term's sign calls for.
func (l linear) extreme(least, greatest []linear, max bool) int {
	var buf [4]int // nests are rarely deeper: c stays on the stack
	k, c := l.k, append(buf[:0], l.c...)
	for d := len(c) - 1; d >= 0; d-- {
		if c[d] == 0 {
			continue
		}
		end := least[d]
		if (c[d] > 0) == max {
			end = greatest[d]
		}
		k += c[d] * end.k
		for e, ce := range end.c {
			c[e] += c[d] * ce
		}
	}
	return k
}
