package core_test

import (
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/cost"
)

// The formula renderer as it was written before it appended into one
// buffer: fmt and a string per term. It is the reference the renderer is
// held to. A nil polynomial or fit prints as fmt prints a nil pointer
// whose String method it calls.

func fmtFormulas(labels []string, fits []*cost.SymbolicCounts) []string {
	if fits == nil {
		return nil
	}
	out := make([]string, len(fits))
	for t, sym := range fits {
		label := labels[t]
		if label == "" {
			label = fmt.Sprintf("L%d", t+1)
		}
		out[t] = fmt.Sprintf("%s: %s", label, fmtCounts(sym))
	}
	return out
}

func fmtCounts(sc *cost.SymbolicCounts) string {
	if sc == nil {
		return "<nil>"
	}
	return fmt.Sprintf("maxflops=%s, remote=%s, reduce=%s",
		fmtPiecewise(sc.MaxProcFlops), fmtPiecewise(sc.RemoteWords), fmtPiecewise(sc.ReduceWords))
}

func fmtPiecewise(pp *cost.PiecewisePoly) string {
	if pp == nil {
		return "<nil>"
	}
	texts := make([]string, len(pp.Pieces))
	uniform := true
	for r, p := range pp.Pieces {
		texts[r] = fmtPoly(p)
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

// fmtPoly expands sum_k Diffs[k] * C((m-M0)/Step, k) in big.Rat and
// renders it over the common denominator.
func fmtPoly(p cost.Poly) string {
	coeffs := []*big.Rat{big.NewRat(0, 1)}
	tConst := big.NewRat(int64(-p.M0), int64(p.Step))
	tLin := big.NewRat(1, int64(p.Step))
	falling := []*big.Rat{big.NewRat(1, 1)}
	fact := big.NewRat(1, 1)
	for k, d := range p.Diffs {
		if k > 0 {
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
	den := big.NewInt(1)
	for _, c := range coeffs {
		den.Mul(den, new(big.Int).Div(c.Denom(), new(big.Int).GCD(nil, nil, den, c.Denom())))
	}
	var terms []string
	for i := len(coeffs) - 1; i >= 0; i-- {
		c := coeffs[i]
		s := new(big.Int).Mul(c.Num(), new(big.Int).Div(den, c.Denom())).String()
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
	if den.String() == "1" {
		return body
	}
	return "(" + body + ")/" + den.String()
}

// randPoly draws a polynomial of degree 0-4 with differences up to 2^40
// in magnitude, so a share overflows the int64 expansion.
func randPoly(rng *rand.Rand) cost.Poly {
	p := cost.Poly{M0: rng.Intn(1 << uint(rng.Intn(21))), Step: 1 + rng.Intn(1<<uint(rng.Intn(13)))}
	for k := rng.Intn(5); k >= 0; k-- {
		d := rng.Int63n(1 << uint(1+rng.Intn(40)))
		if rng.Intn(2) == 0 {
			d = -d
		}
		p.Diffs = append(p.Diffs, d)
	}
	return p
}

// randPiecewise draws a piecewise polynomial of one to four pieces. A
// piece after the first is, one time in four each, the first again or
// the first anchored one step later — the same polynomial, so the same
// text — and otherwise a fresh draw.
func randPiecewise(rng *rand.Rand) *cost.PiecewisePoly {
	first := randPoly(rng)
	pp := &cost.PiecewisePoly{Period: 1 + rng.Intn(4), MinM: rng.Intn(64), Pieces: []cost.Poly{first}}
	for r := 1; r < pp.Period; r++ {
		p := randPoly(rng)
		switch rng.Intn(4) {
		case 0:
			p = first
		case 1:
			// The differences at t+1 are Diffs[k] + Diffs[k+1].
			p = cost.Poly{M0: first.M0 + first.Step, Step: first.Step, Diffs: append([]int64(nil), first.Diffs...)}
			for k := 0; k+1 < len(p.Diffs); k++ {
				p.Diffs[k] += p.Diffs[k+1]
			}
		}
		pp.Pieces = append(pp.Pieces, p)
	}
	return pp
}

// TestRenderMatchesFmt: every fitted polynomial and nest fit of the
// stored plans (the corpus), every evaluator's
// Formulas, and seeded random polynomials and fits render the bytes the
// fmt renderer wrote.
func TestRenderMatchesFmt(t *testing.T) {
	checkPoly := func(where string, pp *cost.PiecewisePoly) {
		if got, want := pp.String(), fmtPiecewise(pp); got != want {
			t.Fatalf("%s: %+v\n rendered %q\n fmt      %q", where, pp, got, want)
		}
	}
	checkCounts := func(where string, sc *cost.SymbolicCounts) {
		if got, want := sc.String(), fmtCounts(sc); got != want {
			t.Fatalf("%s: rendered %q\n fmt      %q", where, got, want)
		}
		if sc != nil {
			for _, pp := range []*cost.PiecewisePoly{sc.TotalFlops, sc.MaxProcFlops, sc.RemoteWords, sc.ReduceWords, sc.MaxProcIn, sc.MaxProcOut} {
				checkPoly(where, pp)
			}
		}
	}
	formulas := 0
	for _, sp := range storedPlans(t) {
		var fp core.FrozenPlan
		if err := json.Unmarshal(sp.payload, &fp); err != nil {
			t.Fatal(err)
		}
		for _, sc := range append(fp.ExecFits, fp.LCFits...) {
			checkCounts(sp.name, sc)
		}
		for _, sl := range fp.ChgFits {
			if sl != nil {
				checkPoly(sp.name, sl.MaxNum)
				checkPoly(sp.name, sl.Words)
			}
		}
		labels := make([]string, len(sp.prog.Nests))
		for k, nest := range sp.prog.Nests {
			labels[k] = nest.Label
		}
		got, want := sp.pe.Formulas(), fmtFormulas(labels, fp.ExecFits)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Formulas\n %q\n fmt %q", sp.name, got, want)
		}
		formulas += len(got)
	}
	if formulas == 0 {
		t.Fatal("no stored plan carries formulas")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		draw := func() *cost.PiecewisePoly {
			if rng.Intn(16) == 0 {
				return nil
			}
			return randPiecewise(rng)
		}
		sc := &cost.SymbolicCounts{TotalFlops: draw(), MaxProcFlops: draw(), RemoteWords: draw(), ReduceWords: draw(), MaxProcIn: draw(), MaxProcOut: draw()}
		checkCounts(fmt.Sprintf("draw %d", i), sc)
	}
	checkCounts("nil fit", nil)
}
