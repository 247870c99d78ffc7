// Symbolic renderings of the paper's cost formulas, so reports can print
// Table 2 the way the paper does (in m, N, tf, tc) next to the numeric
// evaluation.
package cost

import (
	"fmt"
	"strings"
)

// SymbolicTerm is one additive term of a cost formula: Coef * m^MPow /
// N^NDiv * (log N)^LogPow, multiplied by tf or tc.
type SymbolicTerm struct {
	Coef   float64
	MPow   int
	NDiv   int
	LogPow int
	Flop   bool // tf term if true, tc term otherwise
}

// String renders the term in the paper's notation.
func (t SymbolicTerm) String() string {
	var parts []string
	if t.Coef != 1 || (t.MPow == 0 && t.NDiv == 0 && t.LogPow == 0) {
		parts = append(parts, trimFloat(t.Coef))
	}
	switch t.MPow {
	case 0:
	case 1:
		parts = append(parts, "m")
	default:
		parts = append(parts, fmt.Sprintf("m^%d", t.MPow))
	}
	num := strings.Join(parts, "*")
	if num == "" {
		num = "1"
	}
	if t.NDiv > 0 {
		if t.NDiv == 1 {
			num += "/N"
		} else {
			num += fmt.Sprintf("/N^%d", t.NDiv)
		}
	}
	for i := 0; i < t.LogPow; i++ {
		num += "*logN"
	}
	unit := "tc"
	if t.Flop {
		unit = "tf"
	}
	return num + "*" + unit
}

func trimFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

// SymbolicFormula is a sum of terms.
type SymbolicFormula []SymbolicTerm

// String joins the terms with " + ".
func (f SymbolicFormula) String() string {
	if len(f) == 0 {
		return "0"
	}
	parts := make([]string, len(f))
	for i, t := range f {
		parts[i] = t.String()
	}
	return strings.Join(parts, " + ")
}

// The Table 2 rows and the Section 4/5 formulas in symbolic form. The
// numeric methods on Model (JacobiIteration etc.) are the ground truth;
// tests assert the symbolic forms evaluate identically on the paper's
// grid shapes.

// SymbolicJacobiRow1 is the 1 x N row of Table 2:
// (2m^2/N + 3m/N)tf + 2m logN tc.
func SymbolicJacobiRow1() SymbolicFormula {
	return SymbolicFormula{
		{Coef: 2, MPow: 2, NDiv: 1, Flop: true},
		{Coef: 3, MPow: 1, NDiv: 1, Flop: true},
		{Coef: 2, MPow: 1, LogPow: 1},
	}
}

// SymbolicJacobiRow2 is the N x 1 row: (2m^2/N + 3m)tf + (m + m logN)tc.
func SymbolicJacobiRow2() SymbolicFormula {
	return SymbolicFormula{
		{Coef: 2, MPow: 2, NDiv: 1, Flop: true},
		{Coef: 3, MPow: 1, Flop: true},
		{Coef: 1, MPow: 1},
		{Coef: 1, MPow: 1, LogPow: 1},
	}
}

// SymbolicJacobiDP is the Section 4 scheme: (2m^2/N + 3m/N)tf + m tc.
func SymbolicJacobiDP() SymbolicFormula {
	return SymbolicFormula{
		{Coef: 2, MPow: 2, NDiv: 1, Flop: true},
		{Coef: 3, MPow: 1, NDiv: 1, Flop: true},
		{Coef: 1, MPow: 1},
	}
}

// SymbolicSORNaive is the Section 5 naive time:
// (2m^2/N + 4m)tf + m(logN + 1)tc.
func SymbolicSORNaive() SymbolicFormula {
	return SymbolicFormula{
		{Coef: 2, MPow: 2, NDiv: 1, Flop: true},
		{Coef: 4, MPow: 1, Flop: true},
		{Coef: 1, MPow: 1, LogPow: 1},
		{Coef: 1, MPow: 1},
	}
}

// SymbolicSORPipelined is the Section 5 pipelined bound without the
// N-proportional tail: (2m^2/N + 2m)tf + 2m tc (+ 2N tc, carried
// separately since it has no m factor).
func SymbolicSORPipelined() SymbolicFormula {
	return SymbolicFormula{
		{Coef: 2, MPow: 2, NDiv: 1, Flop: true},
		{Coef: 2, MPow: 1, Flop: true},
		{Coef: 2, MPow: 1},
	}
}
