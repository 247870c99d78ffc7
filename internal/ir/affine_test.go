package ir

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// refAffine is the affine arithmetic Affine had before its canonical form:
// a coefficient map that may hold zero coefficients, which every reader
// skips. It is the reference the canonical form is checked against.
type refAffine struct {
	coeff map[string]int
	c     int
}

func newRef(c int, terms ...Term) refAffine {
	a := refAffine{coeff: map[string]int{}, c: c}
	for _, t := range terms {
		if t.Coeff != 0 {
			a.coeff[t.Var] += t.Coeff
		}
	}
	return a
}

func (a refAffine) plus(b refAffine) refAffine {
	out := newRef(a.c + b.c)
	for v, c := range a.coeff {
		out.coeff[v] += c
	}
	for v, c := range b.coeff {
		out.coeff[v] += c
	}
	for v, c := range out.coeff {
		if c == 0 {
			delete(out.coeff, v)
		}
	}
	return out
}

func (a refAffine) neg() refAffine {
	out := newRef(-a.c)
	for v, c := range a.coeff {
		out.coeff[v] = -c
	}
	return out
}

func (a refAffine) minus(b refAffine) refAffine { return a.plus(b.neg()) }

// eval is Eval, with ok false where Eval panics: an unbound variable of
// nonzero coefficient.
func (a refAffine) eval(bind map[string]int) (int, bool) {
	v := a.c
	for name, c := range a.coeff {
		if c == 0 {
			continue
		}
		val, ok := bind[name]
		if !ok {
			return 0, false
		}
		v += c * val
	}
	return v, true
}

func (a refAffine) vars() []string {
	var out []string
	for v, c := range a.coeff {
		if c != 0 {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

func (a refAffine) isConst() bool {
	for _, c := range a.coeff {
		if c != 0 {
			return false
		}
	}
	return true
}

func (a refAffine) constDiff(b refAffine) (int, bool) {
	d := a.minus(b)
	if !d.isConst() {
		return 0, false
	}
	return d.c, true
}

func (a refAffine) String() string {
	var b strings.Builder
	for _, v := range a.vars() {
		c := a.coeff[v]
		switch {
		case c == 1:
			if b.Len() > 0 {
				b.WriteByte('+')
			}
		case c == -1:
			b.WriteByte('-')
		default:
			if c > 0 && b.Len() > 0 {
				b.WriteByte('+')
			}
			fmt.Fprint(&b, c)
		}
		b.WriteString(v)
	}
	if a.c != 0 || b.Len() == 0 {
		if a.c >= 0 && b.Len() > 0 {
			b.WriteByte('+')
		}
		fmt.Fprint(&b, a.c)
	}
	return b.String()
}

// covers reports whether every nonzero coefficient of b is a's too.
func (a refAffine) covers(b refAffine) bool {
	for v, c := range b.coeff {
		if c != 0 && a.coeff[v] != c {
			return false
		}
	}
	return true
}

func (a refAffine) equal(b refAffine) bool { return a.c == b.c && a.covers(b) && b.covers(a) }

// coeffOf returns a's coefficient of v, 0 if a has no term in v.
func coeffOf(a Affine, v string) int {
	for _, t := range a.Terms {
		if t.Var == v {
			return t.Coeff
		}
	}
	return 0
}

// neg returns -a.
func neg(a Affine) Affine {
	ts := make([]Term, len(a.Terms))
	for i, t := range a.Terms {
		ts[i] = Term{Var: t.Var, Coeff: -t.Coeff}
	}
	return NewAffine(-a.Const, ts...)
}

// minus returns a - b.
func minus(a, b Affine) Affine { return a.Plus(neg(b)) }

// checkCanonical fails unless got is in the canonical form — terms sorted
// by variable, none twice, no zero coefficient, no spare capacity, nil
// when there are none — and denotes want.
func checkCanonical(t *testing.T, what string, got Affine, want refAffine) {
	t.Helper()
	for i, term := range got.Terms {
		if term.Coeff == 0 || i > 0 && got.Terms[i-1].Var >= term.Var {
			t.Fatalf("%s = %+v: not canonical", what, got.Terms)
		}
	}
	if cap(got.Terms) != len(got.Terms) || (got.Terms == nil) != (len(got.Terms) == 0) {
		t.Fatalf("%s = %+v: len %d cap %d", what, got.Terms, len(got.Terms), cap(got.Terms))
	}
	vars := want.vars()
	if got.Const != want.c || len(got.Terms) != len(vars) {
		t.Fatalf("%s = %s, want %s", what, got, want)
	}
	for i, v := range vars {
		if got.Terms[i] != (Term{Var: v, Coeff: want.coeff[v]}) {
			t.Fatalf("%s = %s, want %s", what, got, want)
		}
	}
	if got.String() != want.String() {
		t.Fatalf("%s prints %q, want %q", what, got, want)
	}
}

func evalPanics(a Affine, bind map[string]int) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	a.Eval(bind)
	return false
}

// TestCanonicalAffineMatchesReference: over seeded random term lists, with
// repeated variables, zero and cancelling coefficients and parameter-only
// forms, the constructors return canonical values, equal expressions are
// equal values, and Eval, IsConst, ConstDiff, String, Ref.Equal and
// Print→Parse agree with the map-based reference.
func TestCanonicalAffineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vars := []string{"i", "j", "k", "m", "n"}
	gen := func() []Term {
		var ts []Term
		for range rng.Intn(6) {
			v, c := vars[rng.Intn(len(vars))], rng.Intn(7)-3
			if rng.Intn(3) == 0 {
				v = vars[3+rng.Intn(2)] // a size parameter
			}
			ts = append(ts, Term{Var: v, Coeff: c})
			if rng.Intn(4) == 0 {
				ts = append(ts, Term{Var: v, Coeff: -c}) // cancels
			}
		}
		return ts
	}
	skeleton, err := Parse("PROGRAM t\nPARAM m, n\nREAL A(m)\nDO 2 i = 1, m\nDO 2 j = 1, m\nDO 2 k = 1, m\n1 A(i) = 1.0\n2 CONTINUE\nEND\n")
	if err != nil {
		t.Fatal(err)
	}
	checkCanonical(t, "Affine{}", Affine{}, newRef(0))
	for trial := range 3000 {
		ta, tb := gen(), gen()
		ca, cb := rng.Intn(11)-5, rng.Intn(11)-5
		a, b := NewAffine(ca, ta...), NewAffine(cb, tb...)
		ra, rb := newRef(ca, ta...), newRef(cb, tb...)
		what := fmt.Sprintf("trial %d: %+v %+v", trial, ta, tb)
		checkCanonical(t, what+" a", a, ra)
		checkCanonical(t, what+" a+b", a.Plus(b), ra.plus(rb))
		checkCanonical(t, what+" a+c", a.PlusConst(cb), ra.plus(newRef(cb)))
		checkCanonical(t, what+" a-b", minus(a, b), ra.minus(rb))
		checkCanonical(t, what+" Const", Const(ca), newRef(ca))
		if len(ta) > 0 {
			checkCanonical(t, what+" V", V(ta[0].Var), newRef(0, Term{Var: ta[0].Var, Coeff: 1}))
		}
		rng.Shuffle(len(ta), func(x, y int) { ta[x], ta[y] = ta[y], ta[x] })
		if s := NewAffine(ca, ta...); !reflect.DeepEqual(s, a) {
			t.Fatalf("%s: shuffled terms give %+v, want %+v", what, s, a)
		}
		if !reflect.DeepEqual(a.Plus(b), b.Plus(a)) {
			t.Fatalf("%s: a+b = %+v, b+a = %+v", what, a.Plus(b), b.Plus(a))
		}
		if a.IsConst() != ra.isConst() {
			t.Fatalf("%s: IsConst = %v", what, a.IsConst())
		}
		d, ok := a.ConstDiff(b)
		if wd, wok := ra.constDiff(rb); d != wd || ok != wok {
			t.Fatalf("%s: ConstDiff = %d, %v, want %d, %v", what, d, ok, wd, wok)
		}
		if d, ok := a.PlusConst(cb).ConstDiff(a); !ok || d != cb {
			t.Fatalf("%s: ConstDiff of a shift = %d, %v", what, d, ok)
		}
		if got, want := R("A", a, b).Equal(R("A", b, a)), ra.equal(rb); got != want {
			t.Fatalf("%s: Ref.Equal = %v, want %v", what, got, want)
		}
		bind := map[string]int{}
		for _, v := range vars {
			bind[v] = rng.Intn(21) - 10
		}
		if want, _ := ra.eval(bind); a.Eval(bind) != want {
			t.Fatalf("%s: Eval = %d, want %d", what, a.Eval(bind), want)
		}
		delete(bind, vars[rng.Intn(len(vars))])
		if _, ok := ra.eval(bind); evalPanics(a, bind) == ok {
			t.Fatalf("%s: Eval under %v panics = %v, want %v", what, bind, ok, !ok)
		}
		skeleton.Nests[0].Stmts[0].LHS.Subs[0] = a
		q, err := Parse(Print(skeleton))
		if err != nil {
			t.Fatalf("%s: %v\n%s", what, err, Print(skeleton))
		}
		if got := q.Nests[0].Stmts[0].LHS.Subs[0]; !reflect.DeepEqual(got, a) {
			t.Fatalf("%s: Print→Parse gives %+v, want %+v", what, got, a)
		}
	}
}

// TestAffineComparisonsAllocateNothing: ConstDiff and Ref.Equal compare
// the terms in place.
func TestAffineComparisonsAllocateNothing(t *testing.T) {
	a := NewAffine(3, Term{Var: "i", Coeff: 1}, Term{Var: "m", Coeff: 2})
	b, c := a.PlusConst(-1), NewAffine(3, Term{Var: "i", Coeff: 2}, Term{Var: "m", Coeff: 2})
	r, s := R("A", a, b), R("A", a, a)
	if n := testing.AllocsPerRun(100, func() {
		if d, ok := a.ConstDiff(b); !ok || d != 1 {
			panic("ConstDiff(a, a-1)")
		}
		if _, ok := a.ConstDiff(c); ok {
			panic("ConstDiff(i+2m+3, 2i+2m+3)")
		}
		if !r.Equal(r) || r.Equal(s) {
			panic("Ref.Equal")
		}
	}); n != 0 {
		t.Errorf("ConstDiff and Ref.Equal allocate %v times", n)
	}
}
