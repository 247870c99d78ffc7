// Piecewise polynomial counts: the symbolic side of the analytic nest
// counter. For a fixed program, plan and grid, the exact communication
// and flop counts of an affine nest are piecewise polynomial in the size
// parameter m — the pieces are residue classes of m modulo the block
// structure's period. Poly stores one piece in Newton forward-difference
// form (exact int64 arithmetic that reports overflow, no floating point);
// PiecewisePoly stitches the residue classes, or is one piece when they
// are one polynomial; FitSeries fits any number of integer series at
// once by sampling a vector-valued function and validating the fit on
// held-out points — FitCounts' six Counts fields and RedistLoadsPoly's
// two load series are its callers.
package cost

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
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
// It reports false only when the value, or one of the terms
// Diffs[k]*C(t,k) it sums, is past int64: the terms run to the degree
// and no further, so a zero difference never multiplies a binomial too
// large to hold, and the sum is kept in 128 bits.
func (p Poly) Eval(m int) (int64, bool) {
	if len(p.Diffs) == 0 {
		return 0, true // the empty sum
	}
	t := int64(m-p.M0) / int64(p.Step)
	var ck checked
	var hi int64      // the sum is hi*2^64 + lo, two's complement
	var lo uint64     // in 128 bits
	binom := int64(1) // C(t, k), built incrementally
	for k, n := 0, p.Degree(); k <= n; k++ {
		if k > 0 {
			var ok bool
			if binom, ok = binomStep(binom, t-int64(k-1), k); !ok {
				return 0, false
			}
		}
		term := ck.mul(p.Diffs[k], binom)
		var carry uint64
		lo, carry = bits.Add64(lo, uint64(term), 0)
		hi += int64(carry) + term>>63
	}
	return int64(lo), !ck.overflow && hi == int64(lo)>>63
}

// binomStep is C(t,k) = C(t,k-1)*(t-k+1)/k from binom = C(t,k-1) and
// f = t-k+1, the product held in 128 bits. The division is exact, since
// the running product of k consecutive integers is divisible by k!. It
// reports false when C(t,k) is past int64.
func binomStep(binom, f int64, k int) (int64, bool) {
	neg := (binom < 0) != (f < 0)
	ub, uf := uint64(binom), uint64(f)
	if binom < 0 {
		ub = -ub
	}
	if f < 0 {
		uf = -uf
	}
	hi, lo := bits.Mul64(ub, uf)
	if hi >= uint64(k) {
		return 0, false // the quotient needs more than 64 bits
	}
	q, _ := bits.Div64(hi, lo, uint64(k))
	if q > math.MaxInt64 && !(neg && q == 1<<63) {
		return 0, false
	}
	if neg {
		return -int64(q), true
	}
	return int64(q), true
}

// String renders the polynomial in the monomial basis over m with exact
// rational coefficients, e.g. "(m^2 + 6*m - 16)/4".
func (p Poly) String() string { return string(p.appendText(nil)) }

// appendText appends String's text to dst. The expansion runs in
// overflow-checked int64; a polynomial too large for that goes through
// the big.Rat expansion, which yields the same text.
func (p Poly) appendText(dst []byte) []byte {
	if out, ok := p.appendInt(dst); ok {
		return out
	}
	return p.appendRat(dst)
}

// checked is int64 arithmetic with a sticky overflow flag.
type checked struct{ overflow bool }

// mul multiplies the magnitudes in 128 bits, not dividing the product
// back: Eval runs it on every fitted price.
func (ck *checked) mul(a, b int64) int64 {
	ua, ub := uint64(a), uint64(b)
	if a < 0 {
		ua = -ua
	}
	if b < 0 {
		ub = -ub
	}
	hi, lo := bits.Mul64(ua, ub)
	if hi != 0 || lo > 1<<63 || lo == 1<<63 && (a < 0) == (b < 0) {
		ck.overflow = true
	}
	return a * b
}

func (ck *checked) add(a, b int64) int64 {
	c := a + b
	if (c > a) != (b > 0) {
		ck.overflow = true
	}
	return c
}

func (ck *checked) sub(a, b int64) int64 {
	c := a - b
	if (c < a) != (b > 0) {
		ck.overflow = true
	}
	return c
}

// appendInt expands sum_k Diffs[k]*C((m-M0)/Step, k) as an integer
// numerator polynomial over the one denominator Step^n * n! (n the
// degree), then divides both by the gcd of the denominator and every
// coefficient. With t-j = (m - x_j)/Step, x_j = M0 + j*Step, the sum is
// the Newton form sum_k a_k * prod_{j<k} (m - x_j) with a_k = Diffs[k] *
// Step^(n-k) * n!/k!, expanded by Horner from the inside out. The reduced
// denominator is the lcm of the reduced coefficients' denominators that
// appendRat computes (lcm_i D/gcd(N_i,D) = D/gcd(D,N_0..N_n)), so the
// text is the same. It reports false, and appends nothing, when an
// intermediate overflows.
func (p Poly) appendInt(dst []byte) ([]byte, bool) {
	if p.Step < 1 || len(p.Diffs) == 0 {
		return dst, false
	}
	n := p.Degree()
	var numBuf [8]int64                   // the fits are of degree 3 at most
	num := append(numBuf[:0], p.Diffs[n]) // num[i] multiplies m^i
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
			return dst, false
		}
	}
	g := den
	for _, c := range num {
		if c == math.MinInt64 {
			return dst, false // |c| is not an int64
		}
		for c != 0 {
			g, c = c, g%c
		}
		if g < 0 {
			g = -g
		}
	}
	var digits [20]byte
	w := newPolyWriter(dst, den == g)
	for i := len(num) - 1; i >= 0; i-- {
		w.term(strconv.AppendInt(digits[:0], num[i]/g, 10), i)
	}
	return w.end(strconv.AppendInt(digits[:0], den/g, 10)), true
}

// appendRat is the arbitrary-precision expansion: appendText's overflow
// fallback and the oracle appendInt is tested against.
func (p Poly) appendRat(dst []byte) []byte {
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
	w := newPolyWriter(dst, den.IsInt64() && den.Int64() == 1)
	for i := len(coeffs) - 1; i >= 0; i-- {
		c := coeffs[i]
		w.term(new(big.Int).Mul(c.Num(), new(big.Int).Div(den, c.Denom())).Append(nil, 10), i)
	}
	return w.end(den.Append(nil, 10))
}

// polyWriter appends sum_i c_i*m^i, highest power first, over a
// denominator: "m^2 + 6*m - 16", or "(m^2 + 6*m - 16)/4" when the
// denominator is not 1, and "0" when every coefficient is.
type polyWriter struct {
	dst          []byte
	start, terms int
	over         bool // the denominator is not 1
}

func newPolyWriter(dst []byte, denIsOne bool) polyWriter {
	w := polyWriter{dst: dst, start: len(dst), over: !denIsOne}
	if w.over {
		w.dst = append(w.dst, '(')
	}
	return w
}

// term appends the coefficient of m^i, c in signed decimal.
func (w *polyWriter) term(c []byte, i int) {
	if len(c) == 1 && c[0] == '0' {
		return
	}
	neg := c[0] == '-'
	if neg {
		c = c[1:]
	}
	switch {
	case w.terms > 0 && neg:
		w.dst = append(w.dst, " - "...)
	case w.terms > 0:
		w.dst = append(w.dst, " + "...)
	case neg:
		w.dst = append(w.dst, '-')
	}
	w.terms++
	if i > 0 && len(c) == 1 && c[0] == '1' {
		c = nil // the monomial alone
	}
	w.dst = append(w.dst, c...)
	if i > 0 {
		if c != nil {
			w.dst = append(w.dst, '*')
		}
		w.dst = append(w.dst, 'm')
		if i > 1 {
			w.dst = append(w.dst, '^')
			w.dst = strconv.AppendInt(w.dst, int64(i), 10)
		}
	}
}

// end appends the denominator, den in decimal, and returns the text.
func (w *polyWriter) end(den []byte) []byte {
	if w.terms == 0 {
		return append(w.dst[:w.start], '0')
	}
	if w.over {
		w.dst = append(append(w.dst, ")/"...), den...)
	}
	return w.dst
}

// PiecewisePoly is a family of polynomials indexed by residue class of
// the size parameter: Eval(m) uses Pieces[m mod Period]. Valid for
// m >= MinM.
type PiecewisePoly struct {
	Period int
	MinM   int
	Pieces []Poly // indexed by m mod Period
}

// Eval evaluates the piecewise polynomial at m: an error below MinM, or
// where the value is past int64 (a count that wrapped would price a plan
// with a wrong number).
func (pp *PiecewisePoly) Eval(m int) (int64, error) {
	if m < pp.MinM {
		return 0, fmt.Errorf("cost: piecewise poly valid for m >= %d, got %d", pp.MinM, m)
	}
	v, ok := pp.Pieces[m%pp.Period].Eval(m)
	if !ok {
		return 0, fmt.Errorf("cost: count at m=%d overflows int64", m)
	}
	return v, nil
}

// collapse returns the one-piece form of pp (Period 1, Step 1 from MinM)
// when its pieces are one polynomial in m, and pp itself otherwise. The
// one piece is differenced from the values at MinM..MinM+maxDeg, each
// read off the piece that owns that size, and stands only if it equals
// every piece at maxDeg+1 sizes of that piece's class: two polynomials of
// degree at most maxDeg that agree there are the same polynomial.
func (pp *PiecewisePoly) collapse(maxDeg int) *PiecewisePoly {
	if pp.Period == 1 {
		return pp
	}
	diffs := make([]int64, maxDeg+1)
	for i := range diffs {
		v, err := pp.Eval(pp.MinM + i)
		if err != nil {
			return pp
		}
		diffs[i] = v
	}
	var ck checked
	for k := 1; k <= maxDeg; k++ {
		for i := maxDeg; i >= k; i-- {
			diffs[i] = ck.sub(diffs[i], diffs[i-1])
		}
	}
	if ck.overflow {
		return pp
	}
	one := Poly{M0: pp.MinM, Step: 1, Diffs: diffs}
	for _, p := range pp.Pieces {
		for t := 0; t <= maxDeg; t++ {
			m := p.M0 + t*p.Step
			a, okA := p.Eval(m)
			b, okB := one.Eval(m)
			if !okA || !okB || a != b {
				return pp
			}
		}
	}
	return &PiecewisePoly{Period: 1, MinM: pp.MinM, Pieces: []Poly{one}}
}

// String renders the piecewise polynomial; uniform pieces collapse to a
// single formula, otherwise each residue class is listed.
func (pp *PiecewisePoly) String() string { return string(pp.appendText(nil)) }

// appendText appends String's text to dst; a nil polynomial is "<nil>",
// as fmt prints it.
func (pp *PiecewisePoly) appendText(dst []byte) []byte {
	if pp == nil {
		return append(dst, "<nil>"...)
	}
	// Every piece's text goes after dst first; ends[r] closes piece r's.
	start := len(dst)
	var endBuf [32]int
	ends := endBuf[:0]
	uniform := true
	for r, p := range pp.Pieces {
		dst = p.appendText(dst)
		ends = append(ends, len(dst))
		if r > 0 {
			uniform = uniform && string(dst[ends[r-1]:ends[r]]) == string(dst[start:ends[0]])
		}
	}
	if len(pp.Pieces) == 0 {
		return dst // no piece and so no text
	}
	if uniform {
		return dst[:ends[0]]
	}
	// List the residue classes after the texts, then move the list down
	// over them.
	texts := len(dst)
	dst = append(dst, '{')
	for r := range pp.Pieces {
		if r > 0 {
			dst = append(dst, "; "...)
		}
		from := start
		if r > 0 {
			from = ends[r-1]
		}
		dst = append(dst, "m≡"...)
		dst = strconv.AppendInt(dst, int64(r), 10)
		dst = append(dst, " (mod "...)
		dst = strconv.AppendInt(dst, int64(pp.Period), 10)
		dst = append(dst, "): "...)
		dst = append(dst, dst[from:ends[r]]...)
	}
	dst = append(dst, '}')
	return dst[:start+copy(dst[start:], dst[texts:])]
}

// FitSeries fits every series of a vector-valued integer function of m
// at once: f fills v with one value per series at size m and is called
// once per sampled size. Each series is sampled along each residue class
// of m mod period (starting at minM) and fitted by a polynomial of degree
// at most maxDeg by forward differences, validated on `validate` extra
// held-out samples per class. Residue classes run in order, and a series
// that is not polynomial within the sampled window fails the fit at the
// first class that shows it, before any later size is sampled. A fitted
// series whose pieces are all one polynomial is returned as that one
// piece, the closed form the paper prices by; the rest keep a piece per
// class.
func FitSeries(n int, f func(m int, v []int64) error, minM, period, maxDeg, validate int) ([]*PiecewisePoly, error) {
	if period < 1 || maxDeg < 0 || validate < 1 {
		return nil, fmt.Errorf("cost: bad fit parameters (period=%d, maxDeg=%d, validate=%d)", period, maxDeg, validate)
	}
	nSamples := maxDeg + 1 + validate
	// Every series' polynomial, pieces and differences are carved from
	// one array each; rows[s][t] is series s at the t-th size of the class
	// being fitted, reused class after class.
	out := make([]*PiecewisePoly, n)
	pps := make([]PiecewisePoly, n)
	pieces := make([]Poly, n*period)
	diffs := make([]int64, n*period*(maxDeg+1))
	rows := make([][]int64, n)
	samples := make([]int64, n*nSamples+n)
	v := samples[n*nSamples:]
	for s := range out {
		pps[s] = PiecewisePoly{Period: period, MinM: minM, Pieces: pieces[s*period : (s+1)*period : (s+1)*period]}
		out[s] = &pps[s]
		rows[s] = samples[s*nSamples : (s+1)*nSamples]
	}
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
			d := diffs[: maxDeg+1 : maxDeg+1]
			diffs = diffs[maxDeg+1:]
			for k := range d {
				d[k] = row[0]
				for i := 0; i+1 < len(row); i++ {
					row[i] = row[i+1] - row[i]
				}
				row = row[:len(row)-1]
			}
			for _, x := range row {
				if x != 0 {
					return nil, fmt.Errorf("cost: counts on residue %d (mod %d) are not polynomial of degree <= %d in m", r, period, maxDeg)
				}
			}
			out[s].Pieces[r] = Poly{M0: m0, Step: period, Diffs: d}
		}
	}
	for s, pp := range out {
		out[s] = pp.collapse(maxDeg)
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

// PriceAt is the Counts a price reads at size m — MaxProcFlops,
// MaxProcIn and MaxProcOut, the fields Counts.Time reads — with the other
// three zero. They are not evaluated, so a count no price reads cannot
// refuse a price by overflowing.
func (sc *SymbolicCounts) PriceAt(m int) (Counts, error) {
	var v [3]int64
	for k, pp := range [3]*PiecewisePoly{sc.MaxProcFlops, sc.MaxProcIn, sc.MaxProcOut} {
		var err error
		if v[k], err = pp.Eval(m); err != nil {
			return Counts{}, err
		}
	}
	return Counts{MaxProcFlops: v[0], MaxProcIn: v[1], MaxProcOut: v[2]}, nil
}

// String renders the dominant fields the way the paper's Table 2 reads:
// flops and communication words as closed forms in m.
func (sc *SymbolicCounts) String() string { return string(sc.Append(nil)) }

// Append appends String's text to dst; a nil fit is "<nil>", as fmt
// prints it.
func (sc *SymbolicCounts) Append(dst []byte) []byte {
	if sc == nil {
		return append(dst, "<nil>"...)
	}
	dst = sc.MaxProcFlops.appendText(append(dst, "maxflops="...))
	dst = sc.RemoteWords.appendText(append(dst, ", remote="...))
	return sc.ReduceWords.appendText(append(dst, ", reduce="...))
}
