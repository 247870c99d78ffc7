package cost

import (
	"math"
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
	if pp.Degree() != 2 {
		t.Fatalf("degree = %d, want 2", pp.Degree())
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
			got, err := sc.EvalAt(m)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("nest %d m=%d: symbolic %+v, counted %+v", nestIdx, m, got, want)
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
