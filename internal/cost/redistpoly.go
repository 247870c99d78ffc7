// Symbolic redistribution pricing: a scheme change's bottleneck load as
// a piecewise polynomial in the size parameter.
//
// dist.RedistLoadsScaled reports the per-processor redistribution bill
// in exact rationals — integer numerators over one common replica
// denominator. For a frozen plan the denominator is a product of grid
// extents and thus independent of m, so the bottleneck numerator is an
// integer function of m with the same piecewise-polynomial structure as
// the nest counts, and the same forward-difference fit applies. After
// RedistLoadsPoly, pricing a scheme change at any m is O(degree)
// arithmetic — no element enumeration, no numeric calculator call.
package cost

import "fmt"

// SymbolicLoads is one scheme change's redistribution bill as
// polynomials in m: the bottleneck per-processor numerator and the
// total word count over the m-independent replica denominator Den.
type SymbolicLoads struct {
	MaxNum *PiecewisePoly `json:"maxNum"`
	Words  *PiecewisePoly `json:"words"`
	Den    int64          `json:"den"`
}

// MaxLoadAt is the bottleneck per-processor load at size m, in words:
// the fitted numerator over Den in the one division of
// dist.ScaledLoads.MaxLoad, so it equals the numeric price wherever the
// fit holds.
func (sl *SymbolicLoads) MaxLoadAt(m int) (float64, error) {
	n, err := sl.MaxNum.Eval(m)
	if err != nil {
		return 0, err
	}
	return float64(n) / float64(sl.Den), nil
}

// RedistLoadsPoly fits a redistribution's bottleneck numerator and
// total words as piecewise polynomials in m. sample must price the
// (possibly multi-array) scheme change at one size via
// dist.RedistLoadsScaled and return its MaxNum, Words and Den; the
// replica denominator must not vary with m — it cannot, for schemes
// re-derived from one frozen plan, so a drift marks misuse and fails the
// fit.
func RedistLoadsPoly(sample func(m int) (maxNum, words, den int64, err error), minM, period, maxDeg, validate int) (*SymbolicLoads, error) {
	out := &SymbolicLoads{}
	pps, err := FitSeries(2, func(m int, v []int64) error {
		maxNum, words, den, err := sample(m)
		if err != nil {
			return err
		}
		if out.Den == 0 {
			out.Den = den
		} else if den != out.Den {
			return fmt.Errorf("cost: replica denominator varies with m (%d vs %d) — loads are not polynomial", out.Den, den)
		}
		v[0], v[1] = maxNum, words
		return nil
	}, minM, period, maxDeg, validate)
	if err != nil {
		return nil, err
	}
	out.MaxNum, out.Words = pps[0], pps[1]
	return out, nil
}
