// Checking fitted polynomials read back from a stored plan: the
// structure that makes a decoded fit safe to evaluate. The plan's byte
// form is read in package core (FrozenPlan.UnmarshalJSON); these types
// have no decoder of their own.
package cost

import (
	"errors"
	"fmt"
)

var errMissing = errors.New("missing")

// Validate checks the structure Eval and String rely on: one piece per
// residue class, each anchored on its own class inside the first period
// at or above MinM and stepping by the period. A decoded polynomial that
// fails it would divide by zero or index out of range when evaluated.
func (pp *PiecewisePoly) Validate() error {
	if pp == nil {
		return errMissing
	}
	if pp.Period < 1 || len(pp.Pieces) != pp.Period {
		return fmt.Errorf("%d pieces for period %d", len(pp.Pieces), pp.Period)
	}
	if pp.MinM < 0 {
		return fmt.Errorf("minM %d is negative", pp.MinM)
	}
	for r, p := range pp.Pieces {
		switch {
		case p.Step != pp.Period:
			return fmt.Errorf("piece %d steps by %d, period is %d", r, p.Step, pp.Period)
		case p.M0 < pp.MinM || p.M0-pp.MinM >= pp.Period || p.M0%pp.Period != r:
			return fmt.Errorf("piece %d anchored at m=%d, outside residue %d of [%d, %d+%d)", r, p.M0, r, pp.MinM, pp.MinM, pp.Period)
		case len(p.Diffs) < 1:
			return fmt.Errorf("piece %d has no differences", r)
		}
	}
	return nil
}

// validFrom is Validate for one polynomial of a set fitted from minM: a
// polynomial whose floor differs from the set's answers sizes the set
// claims to cover with an error, or covers sizes it was never fitted at.
func (pp *PiecewisePoly) validFrom(minM int) error {
	if err := pp.Validate(); err != nil {
		return err
	}
	if pp.MinM != minM {
		return fmt.Errorf("fitted from m=%d, the plan's fits from m=%d", pp.MinM, minM)
	}
	return nil
}

// Validate checks all six polynomials, each fitted from minM.
func (sc *SymbolicCounts) Validate(minM int) error {
	if sc == nil {
		return errMissing
	}
	return errors.Join(sc.TotalFlops.validFrom(minM), sc.MaxProcFlops.validFrom(minM), sc.RemoteWords.validFrom(minM),
		sc.ReduceWords.validFrom(minM), sc.MaxProcIn.validFrom(minM), sc.MaxProcOut.validFrom(minM))
}

// Validate checks both polynomials, each fitted from minM, and the
// replica denominator.
func (sl *SymbolicLoads) Validate(minM int) error {
	if sl == nil || sl.Den < 1 {
		return errors.New("missing, or den < 1")
	}
	return errors.Join(sl.MaxNum.validFrom(minM), sl.Words.validFrom(minM))
}
