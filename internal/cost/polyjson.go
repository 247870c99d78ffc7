// Reading fitted polynomials back: the decoder for the bytes a stored
// plan carries, and the structural checks that make a decoded fit safe to
// evaluate. A plan payload is a few hundred PiecewisePoly values, always
// written by json.Marshal, so UnmarshalJSON reads exactly that byte form
// in one integer-only pass and hands every other input to the reflective
// decoder — the accepted language and its errors are encoding/json's.
package cost

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
)

var errMissing = errors.New("missing")

// UnmarshalJSON decodes a PiecewisePoly.
func (pp *PiecewisePoly) UnmarshalJSON(data []byte) error {
	c := canonReader{b: data}
	if out, ok := c.piecewise(); ok {
		*pp = out
		return nil
	}
	type reflected PiecewisePoly // same fields, no UnmarshalJSON
	return json.Unmarshal(data, (*reflected)(pp))
}

// canonReader reads json.Marshal's rendering of a PiecewisePoly: fields in
// declaration order under their Go names, no whitespace, integers in
// canonical decimal. bad is sticky; once set the input is not canonical
// (or not a PiecewisePoly at all) and the results are discarded.
type canonReader struct {
	b   []byte
	i   int
	bad bool
}

// lit consumes the literal s.
func (c *canonReader) lit(s string) {
	if c.bad || len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		c.bad = true
		return
	}
	c.i += len(s)
}

// num consumes -?(0|[1-9][0-9]*) that fits a signed integer of the given
// width.
func (c *canonReader) num(bits int) int64 {
	end := c.i
	for end < len(c.b) && (c.b[end] == '-' || c.b[end] >= '0' && c.b[end] <= '9') {
		end++
	}
	tok := c.b[c.i:end]
	digits := bytes.TrimPrefix(tok, []byte("-"))
	v, err := strconv.ParseInt(string(tok), 10, bits)
	if c.bad || err != nil || (digits[0] == '0' && len(tok) > 1) {
		c.bad = true // also "007" and "-0", which encoding/json never writes
		return 0
	}
	c.i = end
	return v
}

func (c *canonReader) piecewise() (PiecewisePoly, bool) {
	var pp PiecewisePoly
	c.lit(`{"Period":`)
	pp.Period = int(c.num(strconv.IntSize))
	c.lit(`,"MinM":`)
	pp.MinM = int(c.num(strconv.IntSize))
	c.lit(`,"Pieces":[`)
	// Fit writes Period pieces; the bound keeps a hostile Period from
	// sizing the allocation.
	pp.Pieces = make([]Poly, 0, max(0, min(pp.Period, len(c.b)/len(`{"M0":0,"Step":0,"Diffs":[]}`))))
	for sep := ""; !c.bad && c.i < len(c.b) && c.b[c.i] != ']'; sep = "," {
		var p Poly
		c.lit(sep + `{"M0":`)
		p.M0 = int(c.num(strconv.IntSize))
		c.lit(`,"Step":`)
		p.Step = int(c.num(strconv.IntSize))
		c.lit(`,"Diffs":[`)
		p.Diffs = make([]int64, 0, 4) // Fit's maxDeg+1
		for sep := ""; !c.bad && c.i < len(c.b) && c.b[c.i] != ']'; sep = "," {
			c.lit(sep)
			p.Diffs = append(p.Diffs, c.num(64))
		}
		c.lit("]}")
		pp.Pieces = append(pp.Pieces, p)
	}
	c.lit("]}")
	return pp, !c.bad && c.i == len(c.b)
}

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

// Validate checks all six polynomials.
func (sc *SymbolicCounts) Validate() error {
	if sc == nil {
		return errMissing
	}
	return errors.Join(sc.TotalFlops.Validate(), sc.MaxProcFlops.Validate(), sc.RemoteWords.Validate(),
		sc.ReduceWords.Validate(), sc.MaxProcIn.Validate(), sc.MaxProcOut.Validate())
}

// Validate checks both polynomials and the replica denominator.
func (sl *SymbolicLoads) Validate() error {
	if sl == nil || sl.Den < 1 {
		return errors.New("missing, or den < 1")
	}
	return errors.Join(sl.MaxNum.Validate(), sl.Words.Validate())
}
