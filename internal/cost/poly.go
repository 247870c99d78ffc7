// Piecewise polynomial counts: the symbolic side of the analytic nest
// counter. For a fixed program, plan and grid, the exact communication
// and flop counts of an affine nest are piecewise polynomial in the size
// parameter m — the pieces are residue classes of m modulo the block
// structure's period. Poly stores one piece in Newton forward-difference
// form (exact int64 arithmetic, no floating point); PiecewisePoly stitches
// the residue classes; FitSeries fits any number of integer series at
// once by sampling a vector-valued function and validating the fit on
// held-out points — FitCounts' six Counts fields and RedistLoadsPoly's
// two load series are its callers.
package cost

import (
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
)

// Poly is a polynomial along the arithmetic progression m = M0 + t*Step,
// stored as Newton forward differences: value(m) = sum_k Diffs[k]*C(t,k)
// with t = (m-M0)/Step. All arithmetic is exact int64.
type Poly struct {
	M0, Step int
	Diffs    []int64
}

// Degree is the polynomial degree in m (index of the last nonzero
// difference).
func (p Poly) Degree() int {
	for k := len(p.Diffs) - 1; k >= 0; k-- {
		if p.Diffs[k] != 0 {
			return k
		}
	}
	return 0
}

// Eval evaluates the polynomial at m, which must lie on the progression.
func (p Poly) Eval(m int) int64 {
	t := int64(m-p.M0) / int64(p.Step)
	var total int64
	binom := int64(1) // C(t, k), built incrementally (exact: the running
	// product of j+1 consecutive integers is divisible by (j+1)!).
	for k, d := range p.Diffs {
		if k > 0 {
			binom = binom * (t - int64(k-1)) / int64(k)
		}
		total += d * binom
	}
	return total
}

// String renders the polynomial in the monomial basis over m with exact
// rational coefficients, e.g. "(m^2 + 6*m - 16)/4". The expansion runs in
// overflow-checked int64; a polynomial too large for that goes through
// the big.Rat expansion, which yields the same text.
func (p Poly) String() string {
	if s, ok := p.stringInt(); ok {
		return s
	}
	return p.stringRat()
}

// checked is int64 arithmetic with a sticky overflow flag.
type checked struct{ overflow bool }

func (ck *checked) mul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	c := a * b
	if c/b != a || (b == -1 && a == math.MinInt64) {
		ck.overflow = true
	}
	return c
}

func (ck *checked) add(a, b int64) int64 {
	c := a + b
	if (c > a) != (b > 0) {
		ck.overflow = true
	}
	return c
}

// stringInt expands sum_k Diffs[k]*C((m-M0)/Step, k) as an integer
// numerator polynomial over the one denominator Step^n * n! (n the
// degree), then divides both by the gcd of the denominator and every
// coefficient. With t-j = (m - x_j)/Step, x_j = M0 + j*Step, the sum is
// the Newton form sum_k a_k * prod_{j<k} (m - x_j) with a_k = Diffs[k] *
// Step^(n-k) * n!/k!, expanded by Horner from the inside out. The reduced
// denominator is the lcm of the reduced coefficients' denominators that
// stringRat computes (lcm_i D/gcd(N_i,D) = D/gcd(D,N_0..N_n)), so the
// text is the same. It reports false when an intermediate overflows.
func (p Poly) stringInt() (string, bool) {
	if p.Step < 1 || len(p.Diffs) == 0 {
		return "", false
	}
	n := p.Degree()
	num := make([]int64, 1, n+1) // num[i] multiplies m^i
	num[0] = p.Diffs[n]
	var ck checked
	den, step := int64(1), int64(p.Step)
	for k := n - 1; k >= 0; k-- {
		// den = Step^(n-k) * n!/k!; num = num*(m - x_k) + Diffs[k]*den.
		den = ck.mul(den, ck.mul(step, int64(k+1)))
		a := ck.mul(p.Diffs[k], den)
		negX := ck.mul(-1, ck.add(int64(p.M0), ck.mul(int64(k), step)))
		num = append(num, num[len(num)-1])
		for i := len(num) - 2; i >= 0; i-- {
			below := a
			if i > 0 {
				below = num[i-1]
			}
			num[i] = ck.add(below, ck.mul(negX, num[i]))
		}
		if ck.overflow {
			return "", false
		}
	}
	g := den
	for _, c := range num {
		if c == math.MinInt64 {
			return "", false // |c| is not an int64
		}
		for c != 0 {
			g, c = c, g%c
		}
		if g < 0 {
			g = -g
		}
	}
	coef := make([]string, len(num))
	for i, c := range num {
		coef[i] = strconv.FormatInt(c/g, 10)
	}
	return renderPoly(coef, strconv.FormatInt(den/g, 10)), true
}

// stringRat is the arbitrary-precision expansion: String's overflow
// fallback and the oracle stringInt is tested against.
func (p Poly) stringRat() string {
	// Expand sum_k Diffs[k] * C((m-M0)/Step, k) in powers of m.
	coeffs := []*big.Rat{big.NewRat(0, 1)} // coeffs[i] multiplies m^i
	// tPoly = (m - M0)/Step as a degree-1 polynomial in m.
	tConst := big.NewRat(int64(-p.M0), int64(p.Step))
	tLin := big.NewRat(1, int64(p.Step))
	// falling = C(t, k) * k! = t(t-1)...(t-k+1) as a polynomial in m.
	falling := []*big.Rat{big.NewRat(1, 1)}
	fact := big.NewRat(1, 1)
	for k, d := range p.Diffs {
		if k > 0 {
			// falling *= (t - (k-1))
			shift := new(big.Rat).Sub(tConst, big.NewRat(int64(k-1), 1))
			next := make([]*big.Rat, len(falling)+1)
			for i := range next {
				next[i] = big.NewRat(0, 1)
			}
			for i, c := range falling {
				next[i].Add(next[i], new(big.Rat).Mul(c, shift))
				next[i+1].Add(next[i+1], new(big.Rat).Mul(c, tLin))
			}
			falling = next
			fact.Mul(fact, big.NewRat(int64(k), 1))
		}
		if d == 0 {
			continue
		}
		scale := new(big.Rat).Quo(big.NewRat(d, 1), fact)
		for i, c := range falling {
			for len(coeffs) <= i {
				coeffs = append(coeffs, big.NewRat(0, 1))
			}
			coeffs[i].Add(coeffs[i], new(big.Rat).Mul(c, scale))
		}
	}
	// Common denominator for a compact "(...)/(den)" rendering.
	den := big.NewInt(1)
	for _, c := range coeffs {
		den.Mul(den, new(big.Int).Div(c.Denom(), new(big.Int).GCD(nil, nil, den, c.Denom())))
	}
	coef := make([]string, len(coeffs))
	for i, c := range coeffs {
		coef[i] = new(big.Int).Mul(c.Num(), new(big.Int).Div(den, c.Denom())).String()
	}
	return renderPoly(coef, den.String())
}

// renderPoly writes the polynomial sum_i coef[i]*m^i over den, both given
// in decimal.
func renderPoly(coef []string, den string) string {
	var terms []string
	for i := len(coef) - 1; i >= 0; i-- {
		s := coef[i]
		if s == "0" {
			continue
		}
		mono := ""
		switch i {
		case 0:
		case 1:
			mono = "m"
		default:
			mono = "m^" + strconv.Itoa(i)
		}
		if mono != "" {
			switch s {
			case "1":
				s = mono
			case "-1":
				s = "-" + mono
			default:
				s += "*" + mono
			}
		}
		if len(terms) > 0 && !strings.HasPrefix(s, "-") {
			s = "+ " + s
		} else if strings.HasPrefix(s, "-") && len(terms) > 0 {
			s = "- " + s[1:]
		}
		terms = append(terms, s)
	}
	if len(terms) == 0 {
		return "0"
	}
	body := strings.Join(terms, " ")
	if den == "1" {
		return body
	}
	return "(" + body + ")/" + den
}

// PiecewisePoly is a family of polynomials indexed by residue class of
// the size parameter: Eval(m) uses Pieces[m mod Period]. Valid for
// m >= MinM.
type PiecewisePoly struct {
	Period int
	MinM   int
	Pieces []Poly // indexed by m mod Period
}

// Eval evaluates the piecewise polynomial at m.
func (pp *PiecewisePoly) Eval(m int) (int64, error) {
	if m < pp.MinM {
		return 0, fmt.Errorf("cost: piecewise poly valid for m >= %d, got %d", pp.MinM, m)
	}
	return pp.Pieces[m%pp.Period].Eval(m), nil
}

// Degree is the maximum degree across pieces.
func (pp *PiecewisePoly) Degree() int {
	d := 0
	for _, p := range pp.Pieces {
		if pd := p.Degree(); pd > d {
			d = pd
		}
	}
	return d
}

// String renders the piecewise polynomial; uniform pieces collapse to a
// single formula, otherwise each residue class is listed.
func (pp *PiecewisePoly) String() string {
	texts := make([]string, len(pp.Pieces))
	uniform := true
	for r, p := range pp.Pieces {
		texts[r] = p.String()
		uniform = uniform && texts[r] == texts[0]
	}
	if uniform {
		return texts[0]
	}
	var b strings.Builder
	b.WriteByte('{')
	for r, text := range texts {
		if r > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "m≡%d (mod %d): %s", r, pp.Period, text)
	}
	b.WriteByte('}')
	return b.String()
}

// FitSeries fits every series of a vector-valued integer function of m
// at once: f fills v with one value per series at size m and is called
// once per sampled size. Each series is sampled along each residue class
// of m mod period (starting at minM) and fitted by a polynomial of degree
// at most maxDeg by forward differences, validated on `validate` extra
// held-out samples per class. Residue classes run in order, and a series
// that is not polynomial within the sampled window fails the fit at the
// first class that shows it, before any later size is sampled.
func FitSeries(n int, f func(m int, v []int64) error, minM, period, maxDeg, validate int) ([]*PiecewisePoly, error) {
	if period < 1 || maxDeg < 0 || validate < 1 {
		return nil, fmt.Errorf("cost: bad fit parameters (period=%d, maxDeg=%d, validate=%d)", period, maxDeg, validate)
	}
	nSamples := maxDeg + 1 + validate
	out := make([]*PiecewisePoly, n)
	rows := make([][]int64, n) // rows[s][t]: series s at the t-th size of the class
	for s := range out {
		out[s] = &PiecewisePoly{Period: period, MinM: minM, Pieces: make([]Poly, period)}
		rows[s] = make([]int64, nSamples)
	}
	v := make([]int64, n)
	for r := 0; r < period; r++ {
		m0 := minM + ((r-minM)%period+period)%period
		for t := 0; t < nSamples; t++ {
			if err := f(m0+t*period, v); err != nil {
				return nil, err
			}
			for s := range rows {
				rows[s][t] = v[s]
			}
		}
		for s, row := range rows {
			// Forward differences in place: orders 0..maxDeg are the piece,
			// and order maxDeg+1 must vanish on every held-out sample or
			// the series is not a degree-<=maxDeg polynomial here.
			diffs := make([]int64, maxDeg+1)
			for k := range diffs {
				diffs[k] = row[0]
				for i := 0; i+1 < len(row); i++ {
					row[i] = row[i+1] - row[i]
				}
				row = row[:len(row)-1]
			}
			for _, d := range row {
				if d != 0 {
					return nil, fmt.Errorf("cost: counts on residue %d (mod %d) are not polynomial of degree <= %d in m", r, period, maxDeg)
				}
			}
			out[s].Pieces[r] = Poly{M0: m0, Step: period, Diffs: diffs}
		}
	}
	return out, nil
}

// SymbolicCounts carries all six Counts fields as piecewise polynomials
// in the size parameter — the closed-form cost of one nest under one
// plan, evaluable at any m without re-counting.
type SymbolicCounts struct {
	TotalFlops, MaxProcFlops *PiecewisePoly
	RemoteWords, ReduceWords *PiecewisePoly
	MaxProcIn, MaxProcOut    *PiecewisePoly
}

// FitCounts fits piecewise polynomials for every Counts field of the
// given counting function, sampling each m once.
func FitCounts(f func(m int) (Counts, error), minM, period, maxDeg, validate int) (*SymbolicCounts, error) {
	pps, err := FitSeries(6, func(m int, v []int64) error {
		ct, err := f(m)
		v[0], v[1], v[2], v[3], v[4], v[5] = ct.TotalFlops, ct.MaxProcFlops, ct.RemoteWords, ct.ReduceWords, ct.MaxProcIn, ct.MaxProcOut
		return err
	}, minM, period, maxDeg, validate)
	if err != nil {
		return nil, err
	}
	return &SymbolicCounts{TotalFlops: pps[0], MaxProcFlops: pps[1], RemoteWords: pps[2], ReduceWords: pps[3], MaxProcIn: pps[4], MaxProcOut: pps[5]}, nil
}

// EvalAt reconstructs the Counts at size m from the fitted polynomials.
func (sc *SymbolicCounts) EvalAt(m int) (Counts, error) {
	var v [6]int64
	for k, pp := range [6]*PiecewisePoly{sc.TotalFlops, sc.MaxProcFlops, sc.RemoteWords, sc.ReduceWords, sc.MaxProcIn, sc.MaxProcOut} {
		var err error
		if v[k], err = pp.Eval(m); err != nil {
			return Counts{}, err
		}
	}
	return Counts{TotalFlops: v[0], MaxProcFlops: v[1], RemoteWords: v[2], ReduceWords: v[3], MaxProcIn: v[4], MaxProcOut: v[5]}, nil
}

// String renders the dominant fields the way the paper's Table 2 reads:
// flops and communication words as closed forms in m.
func (sc *SymbolicCounts) String() string {
	return fmt.Sprintf("maxflops=%s, remote=%s, reduce=%s",
		sc.MaxProcFlops, sc.RemoteWords, sc.ReduceWords)
}
