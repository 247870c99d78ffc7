package cost

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"dmcc/internal/grid"
	"dmcc/internal/ir"
)

// fitOne fits a single series through FitSeries.
func fitOne(f func(m int) (int64, error), minM, period, maxDeg, validate int) (*PiecewisePoly, error) {
	pps, err := FitSeries(1, func(m int, v []int64) (err error) {
		v[0], err = f(m)
		return err
	}, minM, period, maxDeg, validate)
	if err != nil {
		return nil, err
	}
	return pps[0], nil
}

func TestFitPiecewiseExactPolynomial(t *testing.T) {
	f := func(m int) (int64, error) {
		v := int64(m)
		return 3*v*v - 7*v + 2, nil
	}
	pp, err := fitOne(f, 4, 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pp.Pieces {
		if p.Degree() != 2 {
			t.Fatalf("degree = %d, want 2", p.Degree())
		}
	}
	for _, m := range []int{4, 17, 100, 4096} {
		want, _ := f(m)
		got, err := pp.Eval(m)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Eval(%d) = %d, want %d", m, got, want)
		}
	}
	if s := pp.String(); s != "3*m^2 - 7*m + 2" {
		t.Fatalf("String() = %q", s)
	}
}

func TestFitPiecewiseDetectsNonPolynomial(t *testing.T) {
	f := func(m int) (int64, error) {
		v := int64(1)
		for i := 0; i < m; i++ {
			v *= 2
		}
		return v, nil // 2^m: no polynomial of degree <= 4
	}
	if _, err := fitOne(f, 2, 1, 4, 2); err == nil {
		t.Fatal("expected a non-polynomial error for 2^m")
	}
}

func TestFitPiecewiseResidueClasses(t *testing.T) {
	// floor(m/4)*m is polynomial on each residue class of m mod 4 but not
	// globally.
	f := func(m int) (int64, error) { return int64(m/4) * int64(m), nil }
	pp, err := fitOne(f, 8, 4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for m := 8; m < 80; m++ {
		want, _ := f(m)
		got, err := pp.Eval(m)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Eval(%d) = %d, want %d", m, got, want)
		}
	}
}

// TestFitCollapsesOnePolynomial: a series fitted per residue class is
// stored as one piece when its pieces are one polynomial in m, and keeps
// a piece per class when they differ on any class; either way it
// evaluates to the series at every size.
func TestFitCollapsesOnePolynomial(t *testing.T) {
	for _, tc := range []struct {
		name   string
		f      func(m int64) int64
		pieces int
	}{
		{"uniform", func(m int64) int64 { return 3*m*m*m - 7*m + 2 }, 1},
		{"ceil(m/8)*m", func(m int64) int64 { return (m + 7) / 8 * m }, 8},
		{"one class off", func(m int64) int64 {
			if m%8 == 5 {
				return m*m + 1
			}
			return m * m
		}, 8},
	} {
		const minM, period = 21, 8
		pp, err := fitOne(func(m int) (int64, error) { return tc.f(int64(m)), nil }, minM, period, 3, 2)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(pp.Pieces) != tc.pieces || pp.Period != tc.pieces || pp.MinM != minM {
			t.Fatalf("%s: %d pieces, period %d, from m=%d; want %d pieces from m=%d", tc.name, len(pp.Pieces), pp.Period, pp.MinM, tc.pieces, minM)
		}
		if err := pp.validFrom(minM); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.pieces == 1 {
			if p := pp.Pieces[0]; p.M0 != minM || p.Step != 1 || len(p.Diffs) != 4 {
				t.Fatalf("%s: one piece %+v, want M0 %d, Step 1, 4 differences", tc.name, p, minM)
			}
		}
		for m := minM; m < minM+10*period; m++ {
			if got, err := pp.Eval(m); err != nil || got != tc.f(int64(m)) {
				t.Fatalf("%s: Eval(%d) = %d, %v; want %d", tc.name, m, got, err, tc.f(int64(m)))
			}
		}
	}
}

// TestEvalReportsOverflow: a fitted count past int64 is an error, not a
// wrapped value, and PriceAt does not evaluate the counts no price reads.
func TestEvalReportsOverflow(t *testing.T) {
	nineCubed := func(m int) (int64, error) { v := int64(m); return 9 * v * v * v, nil }
	pp, err := fitOne(nineCubed, 16, 1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := pp.Eval(1 << 19); err != nil || got != 9<<57 {
		t.Fatalf("Eval(2^19) = %d, %v; want %d", got, err, int64(9)<<57)
	}
	if got, err := pp.Eval(1 << 20); err == nil {
		t.Fatalf("Eval(2^20) = %d, want an overflow error (9*2^60 is past int64)", got)
	}
	quarter, err := fitOne(func(m int) (int64, error) { v := int64(m); return 9 * v * v * v / 4, nil }, 16, 4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	zero, _ := fitOne(func(int) (int64, error) { return 0, nil }, 16, 1, 3, 2)
	sc := &SymbolicCounts{TotalFlops: pp, MaxProcFlops: quarter, RemoteWords: pp, ReduceWords: zero, MaxProcIn: zero, MaxProcOut: zero}
	got, err := sc.PriceAt(1 << 20)
	if want := (Counts{MaxProcFlops: 9 << 58}); err != nil || got != want {
		t.Fatalf("PriceAt(2^20) = %+v, %v; want %+v", got, err, want)
	}
}

// TestEvalStopsAtDegree: a zero difference multiplies nothing, so a
// linear count stored with four differences evaluates at a size where
// C(t,3) is past int64.
func TestEvalStopsAtDegree(t *testing.T) {
	p := Poly{M0: 0, Step: 1, Diffs: []int64{0, 3, 0, 0}}
	if got, ok := p.Eval(4_000_000); !ok || got != 12_000_000 {
		t.Fatalf("Eval(4000000) = %d, %v; want 12000000, true", got, ok)
	}
}

// TestPolyEvalMatchesBig: Eval is the big.Int sum of Diffs[k]*C(t,k)
// over k up to the degree, and reports false exactly when that sum, one
// of its terms or a binomial under one is past int64.
func TestPolyEvalMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	refused := 0
	for i := 0; i < 20000; i++ {
		p := randPoly(rng)
		tt := rng.Int63n(1 << uint(1+rng.Intn(40)))
		if rng.Intn(8) == 0 {
			tt = -tt
		}
		sum, binom, fits := new(big.Int), big.NewInt(1), true
		for k := 0; k <= p.Degree(); k++ {
			if k > 0 {
				binom.Quo(binom.Mul(binom, big.NewInt(tt-int64(k-1))), big.NewInt(int64(k)))
			}
			term := new(big.Int).Mul(binom, big.NewInt(p.Diffs[k]))
			fits = fits && binom.IsInt64() && term.IsInt64()
			sum.Add(sum, term)
		}
		fits = fits && sum.IsInt64()
		got, ok := p.Eval(p.M0 + int(tt)*p.Step)
		if ok != fits || ok && got != sum.Int64() {
			t.Fatalf("%+v at t=%d: Eval = %d, %v; want %v, %v", p, tt, got, ok, sum, fits)
		}
		if !ok {
			refused++
		}
	}
	if refused == 0 || refused == 20000 {
		t.Fatalf("%d of 20000 draws refused; want some of each", refused)
	}
}

// TestCheckedArithmetic: checked's product, sum and difference flag
// overflow exactly when the big.Int result is past int64, on the edges
// of the range and of the 128-bit product.
func TestCheckedArithmetic(t *testing.T) {
	vals := []int64{0, 1, -1, 2, -2, 3, 4, -4, 1 << 31, -(1 << 31), 1 << 32, 3037000499, 3037000500, -3037000500,
		1<<62 - 1, 1 << 62, -(1 << 62), math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1}
	fits := func(z *big.Int) bool { return z.IsInt64() }
	for _, a := range vals {
		for _, b := range vals {
			A, B := big.NewInt(a), big.NewInt(b)
			for _, op := range []struct {
				name string
				got  func(*checked) int64
				want *big.Int
			}{
				{"*", func(ck *checked) int64 { return ck.mul(a, b) }, new(big.Int).Mul(A, B)},
				{"+", func(ck *checked) int64 { return ck.add(a, b) }, new(big.Int).Add(A, B)},
				{"-", func(ck *checked) int64 { return ck.sub(a, b) }, new(big.Int).Sub(A, B)},
			} {
				var ck checked
				got := op.got(&ck)
				if ck.overflow == fits(op.want) || !ck.overflow && got != op.want.Int64() {
					t.Errorf("%d %s %d = %d, overflow %v; want %v", a, op.name, b, got, ck.overflow, op.want)
				}
			}
		}
	}
}

// TestFitCountsJacobi is the tentpole's symbolic claim end to end: the
// per-nest Counts of Jacobi under the Table 2 row scheme, as a function
// of m for fixed N, fit degree-2 piecewise polynomials that extrapolate
// exactly to sizes never counted.
func TestFitCountsJacobi(t *testing.T) {
	p := ir.Jacobi()
	n := 4
	g := grid.New(n, 1)
	for _, nestIdx := range []int{0, 1} {
		nest := p.Nests[nestIdx]
		f := func(m int) (Counts, error) {
			return CountNestOpts(p, nest, jacobiRowSchemes(m, n), g, map[string]int{"m": m}, CountOptions{})
		}
		sc, err := FitCounts(f, 3*n, n, 2, 2)
		if err != nil {
			t.Fatalf("nest %d: %v", nestIdx, err)
		}
		for _, m := range []int{16, 20, 33, 50, 127} {
			want, err := f(m)
			if err != nil {
				t.Fatal(err)
			}
			var got [6]int64
			for k, pp := range [6]*PiecewisePoly{sc.TotalFlops, sc.MaxProcFlops, sc.RemoteWords, sc.ReduceWords, sc.MaxProcIn, sc.MaxProcOut} {
				if got[k], err = pp.Eval(m); err != nil {
					t.Fatal(err)
				}
			}
			if got != [6]int64{want.TotalFlops, want.MaxProcFlops, want.RemoteWords, want.ReduceWords, want.MaxProcIn, want.MaxProcOut} {
				t.Fatalf("nest %d m=%d: symbolic %v, counted %+v", nestIdx, m, got, want)
			}
		}
	}
}

// randPoly draws a polynomial of degree 0-4 with Step in [1, 4096] and
// differences whose magnitude is uniform in bit length up to 2^40, so a
// share of the draws overflows the int64 expansion.
func randPoly(rng *rand.Rand) Poly {
	p := Poly{M0: rng.Intn(1 << uint(rng.Intn(21))), Step: 1 + rng.Intn(1<<uint(rng.Intn(13)))}
	if rng.Intn(8) == 0 {
		p.M0 = -p.M0
	}
	for k := rng.Intn(5); k >= 0; k-- {
		d := rng.Int63n(1 << uint(1+rng.Intn(40)))
		if rng.Intn(2) == 0 {
			d = -d
		}
		p.Diffs = append(p.Diffs, d)
	}
	return p
}

// TestPolyStringMatchesRat: the int64 rendering is the big.Rat rendering,
// on every polynomial the int64 expansion accepts; the draws it declines
// (overflow) reach String through the fallback.
func TestPolyStringMatchesRat(t *testing.T) {
	fast, declined := 0, 0
	for _, seed := range []int64{1, 2, 3, 5, 8, 13, 21, 34} {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			p := randPoly(rng)
			want := string(p.appendRat(nil))
			text, ok := p.appendInt(nil)
			got := string(text)
			if !ok {
				declined++
				got = p.String()
			} else {
				fast++
			}
			if got != want {
				t.Fatalf("seed %d draw %d: %+v\n int64: %s\n   rat: %s", seed, i, p, got, want)
			}
		}
	}
	if fast == 0 || declined == 0 {
		t.Fatalf("int64 path rendered %d draws and declined %d; the test must exercise both", fast, declined)
	}
	t.Logf("int64 path rendered %d draws, declined %d", fast, declined)
}

// TestPolyStringEdges pins the renderings random draws rarely produce.
func TestPolyStringEdges(t *testing.T) {
	for _, tc := range []struct {
		p    Poly
		want string
	}{
		{Poly{M0: 4, Step: 4}, "0"},
		{Poly{M0: 4, Step: 4, Diffs: []int64{0, 0, 0}}, "0"},
		{Poly{M0: 0, Step: 1, Diffs: []int64{0, 1}}, "m"},
		{Poly{M0: 0, Step: 1, Diffs: []int64{0, -1}}, "-m"},
		{Poly{M0: 0, Step: 4, Diffs: []int64{0, 1}}, "(m)/4"},
		{Poly{M0: 1, Step: 2, Diffs: []int64{-1, -1, 1, 0}}, "(m^2 - 8*m - 1)/8"},
		{Poly{M0: 0, Step: 1, Diffs: []int64{math.MinInt64}}, "-9223372036854775808"},
		{Poly{M0: 0, Step: 1, Diffs: []int64{math.MaxInt64, math.MaxInt64, 2}}, "m^2 + 9223372036854775806*m + 9223372036854775807"},
	} {
		if got, rat := tc.p.String(), string(tc.p.appendRat(nil)); got != tc.want || got != rat {
			t.Errorf("%+v: String() = %q, appendRat = %q, want %q", tc.p, got, rat, tc.want)
		}
	}
}
