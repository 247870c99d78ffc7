package ir

import (
	"fmt"
	"math/rand"
	"testing"
)

// walkRanges is the range check before RangeAt, kept verbatim as its
// oracle: the lowering at one size, every subscript's extremes by
// substituting loop bounds innermost first over the bounding box, no
// loop clipped.
func walkRanges(lw *Lowered) error {
	for t, nest := range lw.Program.Nests {
		ln := &lw.Nests[t]
		for si, st := range nest.Stmts {
			ls := &ln.Stmts[si]
			for ri := -1; ri < len(ls.Reads); ri++ {
				r, lr := st.LHS, &ls.LHS
				if ri >= 0 {
					r, lr = st.Reads[ri], &ls.Reads[ri]
				}
				for d := range lr.Subs {
					lo, hi := extremeOracle(&lr.Subs[d], ln.Loops, false), extremeOracle(&lr.Subs[d], ln.Loops, true)
					// lo > hi: a loop above the statement never runs.
					if extent := lw.Shapes[lr.Array][d]; lo <= hi && (lo < 1 || hi > extent) {
						return &RangeError{Nest: nest.Label, Line: st.Line, Ref: r, Dim: d, Min: lo, Max: hi, Extent: extent}
					}
				}
			}
		}
	}
	return nil
}

// extremeOracle is walkRanges' substitution.
func extremeOracle(l *Lin, loops []LLoop, max bool) int {
	var buf [4]int // nests are rarely deeper: c stays on the stack
	k, c := l.K, append(buf[:0], l.C...)
	for d := len(c) - 1; d >= 0; d-- {
		if c[d] == 0 {
			continue
		}
		// An up loop's greatest index is its Hi, a down loop's its Lo.
		end := &loops[d].Lo
		if (c[d] > 0) == max == (loops[d].Step > 0) {
			end = &loops[d].Hi
		}
		k += c[d] * end.K
		for e, ce := range end.C {
			c[e] += c[d] * ce
		}
	}
	return k
}

// lowerAndWalk is the check at size m before RangeAt: a fresh lowering,
// then walkRanges.
func lowerAndWalk(p *Program, m int) error {
	lw, err := p.Lower(map[string]int{"m": m})
	if err != nil {
		return err
	}
	return walkRanges(lw)
}

// triangularSource is a nest whose inner loop is empty at the top of its
// outer loop's range: at k = m, DO i = k+1, m runs nothing, so B(i+k)
// reaches 2m-1, while the bounding box says 2m.
const triangularSource = `PROGRAM triangular
PARAM m
REAL B(2*m-1), C(m)
DO 9 k = 1, m
  DO 9 i = k + 1, m
7   C(k) = B(i+k)
9 CONTINUE
END
`

// rangeCorpus is oracleCorpus, a program whose extents fall below 1 at
// small sizes, and the triangular nest.
func rangeCorpus(t *testing.T) []*Program {
	progs := oracleCorpus(t)
	for _, src := range []string{
		"PROGRAM shifted\nPARAM m\nREAL A(m), B(m-3), C(2*m+1)\nDO 9 i = 1, m-3\n7   B(i) = A(i+3) + C(2*i+1) + C(m-i+1)\n9 CONTINUE\nEND\n",
		triangularSource,
	} {
		p, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	return progs
}

// TestRangeAtMatchesLowering: RangeAt(m) on one lowering at base 16 is,
// at every m in [1, 64], exactly what a fresh Lower(m) followed by the
// unclipped walk returns, error text included, for every listing,
// builtin, the stencil, Synthetic(4..8) and a program with extents below
// 1 at small sizes. The programs whose inner loop is empty for part of
// their outer range are the exception, named here: the clip only narrows,
// so RangeAt accepts whatever the walk accepts, and at some size it
// accepts what the walk refused.
func TestRangeAtMatchesLowering(t *testing.T) {
	const base = 16
	clipped := map[string]bool{"triangular": true}
	for _, p := range rangeCorpus(t) {
		lw, err := p.Lower(map[string]int{"m": base})
		if err != nil {
			t.Fatalf("%s at m=%d: %v", p.Name, base, err)
		}
		narrower := 0
		for m := 1; m <= 4*base; m++ {
			got, want := errText(lw.RangeAt(m)), errText(lowerAndWalk(p, m))
			switch {
			case got == want:
			case !clipped[p.Name]:
				t.Errorf("%s at m=%d: RangeAt says %q, Lower and the walk %q", p.Name, m, got, want)
			case got != "":
				t.Errorf("%s at m=%d: RangeAt refuses %q where the walk says %q", p.Name, m, got, want)
			default:
				narrower++
			}
		}
		if clipped[p.Name] && narrower == 0 {
			t.Errorf("%s is named as clipped, but RangeAt agrees with the walk at every size", p.Name)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestRangeAtIsSound: wherever RangeAt(m) accepts, EvalProgram at m meets
// no element outside its array — over rangeCorpus and random nests of
// every shape the lowering resolves, half of them with the written
// subscript shifted off its array by up to two.
func TestRangeAtIsSound(t *testing.T) {
	const base = 8
	progs := append(rangeCorpus(t), randomRangeNests()...)
	accepted, refused := 0, 0
	for i, p := range progs {
		lw, err := p.Lower(map[string]int{"m": base})
		if err != nil {
			t.Fatalf("%s at m=%d: %v", p.Name, base, err)
		}
		// Without right-hand sides every statement still reads and writes
		// its references and assigns 0: no value (a NaN) can end the
		// evaluation before it meets an element outside its array.
		accesses := p.clone()
		for _, nest := range accesses.Nests {
			for _, st := range nest.Stmts {
				st.RHS = nil
			}
		}
		for m := 1; m <= 3*base; m++ {
			if lw.RangeAt(m) != nil {
				refused++
				continue
			}
			accepted++
			if err := EvalProgram(accesses, map[string]int{"m": m}, NewStorage(p), nil, 1); err != nil {
				t.Errorf("program %d (%s) at m=%d: RangeAt accepts, EvalProgram says %v\n%s", i, p.Name, m, err, Print(p))
			}
		}
	}
	if refused == 0 || accepted == 0 {
		t.Errorf("RangeAt accepted %d and refused %d sizes: the test decides nothing", accepted, refused)
	}
}

// randomRangeNests is 200 random nests of every shape the lowering
// resolves, half of them with the written subscript shifted off its array
// by up to two.
func randomRangeNests() []*Program {
	var progs []*Program
	rng := rand.New(rand.NewSource(20261019))
	for trial := 0; trial < 200; trial++ {
		p := randomLoweringProgram(rng)
		if trial%2 == 1 {
			st := p.Nests[0].Stmts[rng.Intn(len(p.Nests[0].Stmts))]
			st.LHS.Subs[0] = st.LHS.Subs[0].PlusConst(rng.Intn(5) - 2)
		}
		progs = append(progs, p)
	}
	return progs
}

// rangeAtWalk is RangeAt before its bounds were derived once per lowering,
// kept verbatim as its oracle: at every call, every subscript's extremes
// by substituting the clipped loop bounds, innermost first.
func rangeAtWalk(lw *Lowered, m int) error {
	dm := m - lw.size
	if err := lw.extentsAt(dm); err != nil {
		return err
	}
	var buf [8]LLoop // nests are rarely deeper: the loops stay on the stack
	for t := range lw.Nests {
		ln := &lw.Nests[t]
		for si := range ln.Stmts {
			ls := &ln.Stmts[si]
			loops := ln.clipped(buf[:0], ls.Depth, dm)
			for ri := -1; ri < len(ls.Reads); ri++ {
				lr := ls.Ref(ri)
				for d := range lr.Subs {
					lo, hi := extreme(&lr.Subs[d], loops, dm, false), extreme(&lr.Subs[d], loops, dm, true)
					// lo > hi: a loop above the statement never runs.
					if extent := lw.Shapes[lr.Array][d] + lw.shapeM[lr.Array][d]*dm; lo <= hi && (lo < 1 || hi > extent) {
						st := lw.Program.Nests[t].Stmts[si]
						return &RangeError{Nest: lw.Program.Nests[t].Label, Line: st.Line, Ref: st.ref(ri), Dim: d, Min: lo, Max: hi, Extent: extent}
					}
				}
			}
		}
	}
	return nil
}

// clipped appends the nest's first depth loops to out with their bounds'
// constants read dm sizes past the lowering's own, each loop with constant
// bounds clipped to where every inner loop among them that is bounded by
// it alone, with a unit coefficient, runs.
func (ln *LNest) clipped(out []LLoop, depth, dm int) []LLoop {
	out = append(out, ln.Loops[:depth]...)
	for d := range out {
		out[d].Lo.K += out[d].Lo.M * dm
		out[d].Hi.K += out[d].Hi.M * dm
	}
	for d := range out {
		if len(out[d].Lo.C)+len(out[d].Hi.C) > 0 {
			continue
		}
		lo, hi := &out[d].Lo.K, &out[d].Hi.K
		if out[d].Step < 0 {
			lo, hi = hi, lo
		}
		for _, in := range out[d+1:] {
			cHi, okHi := in.Hi.only(d)
			cLo, okLo := in.Lo.only(d)
			// The inner loop runs at index k iff g0 + gk·k ≥ 0 (a step is ±1).
			g0, gk := in.Step*(in.Hi.K-in.Lo.K), in.Step*(cHi-cLo)
			if okHi && okLo && gk == 1 {
				*lo = max(*lo, -g0)
			} else if okHi && okLo && gk == -1 {
				*hi = min(*hi, g0)
			}
		}
	}
	return out
}

// extreme is the greatest (max) or least value of l, dm sizes past the
// lowering's own, over the iterations of the loops clipped returns: each
// index, innermost first, is replaced by the end of its range the term's
// sign calls for.
func extreme(l *Lin, loops []LLoop, dm int, max bool) int {
	var buf [8]int // nests are rarely deeper: c stays on the stack
	k, c := l.K+l.M*dm, append(buf[:0], l.C...)
	for d := len(c) - 1; d >= 0; d-- {
		if c[d] == 0 {
			continue
		}
		// An up loop's greatest index is its Hi, a down loop's its Lo.
		end := &loops[d].Lo
		if (c[d] > 0) == max == (loops[d].Step > 0) {
			end = &loops[d].Hi
		}
		k += c[d] * end.K
		for e, ce := range end.C {
			c[e] += c[d] * ce
		}
	}
	return k
}

// shrinkingSource is a program whose extent falls below 1 as m grows,
// past m = 39, and whose reads of B leave it below m = 20.
const shrinkingSource = `PROGRAM shrinking
PARAM m
REAL A(40-m), B(m)
DO 9 i = 1, 40 - m
7   A(i) = B(i) + B(41-m-i)
9 CONTINUE
END
`

// TestRangeAtMatchesWalk: the bounds Lower derives answer RangeAt(m), at
// every m in [1, 4·base], exactly what the per-call substitution walk
// answers there, error text included: over rangeCorpus, a program whose
// extent shrinks as m grows and TestRangeAtIsSound's random nests, on the
// lowering at base and again after Rebind moved it off base.
func TestRangeAtMatchesWalk(t *testing.T) {
	const base = 16
	shrinking, err := Parse(shrinkingSource)
	if err != nil {
		t.Fatal(err)
	}
	progs := append(append(rangeCorpus(t), shrinking), randomRangeNests()...)
	accepted, refused, clips := 0, 0, 0
	for i, p := range progs {
		lw, err := p.Lower(map[string]int{"m": base})
		if err != nil {
			t.Fatalf("%s at m=%d: %v", p.Name, base, err)
		}
		for _, c := range lw.checks {
			clips += len(c.lo.clips) + len(c.hi.clips)
		}
		for _, at := range []int{base, base + 3} {
			if err := lw.Rebind(map[string]int{"m": at}); err != nil {
				t.Fatalf("%s: Rebind to m=%d: %v", p.Name, at, err)
			}
			for m := 1; m <= 4*base; m++ {
				got, want := lw.RangeAt(m), rangeAtWalk(lw, m)
				if errText(got) != errText(want) {
					t.Errorf("program %d (%s) bound at m=%d, at m=%d: RangeAt says %q, the walk %q\n%s", i, p.Name, at, m, errText(got), errText(want), Print(p))
				}
				if got == nil {
					accepted++
				} else {
					refused++
				}
			}
		}
	}
	if accepted == 0 || refused == 0 || clips == 0 {
		t.Errorf("RangeAt accepted %d and refused %d sizes over %d clipped ends: the test decides nothing", accepted, refused, clips)
	}
}

// TestRangeAtAllocatesNothing: checking a size in range, on every program
// of the corpus, allocates nothing.
func TestRangeAtAllocatesNothing(t *testing.T) {
	for _, p := range rangeCorpus(t) {
		lw, err := p.Lower(map[string]int{"m": 16})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []int{16, 40} {
			if err := lw.RangeAt(m); err != nil {
				t.Fatalf("%s at m=%d: %v", p.Name, m, err)
			}
			if n := testing.AllocsPerRun(20, func() { _ = lw.RangeAt(m) }); n != 0 {
				t.Errorf("%s: RangeAt(%d) allocates %v times", p.Name, m, n)
			}
		}
	}
}

// TestIsConstAllocatesNothing: IsConst reads the coefficients, building no
// slice of names.
func TestIsConstAllocatesNothing(t *testing.T) {
	for _, a := range []Affine{NewAffine(3, Term{Var: "i", Coeff: 1}, Term{Var: "m", Coeff: 2}), Const(4), NewAffine(0, Term{Var: "j", Coeff: 0})} {
		want := len(a.Terms) == 0
		if n := testing.AllocsPerRun(100, func() {
			if a.IsConst() != want {
				panic(fmt.Sprintf("%s: IsConst = %v", a, !want))
			}
		}); n != 0 {
			t.Errorf("%s: IsConst allocates %v times", a, n)
		}
	}
}
