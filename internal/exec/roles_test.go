package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/ir"
)

// checkPeerLists checks the layout of every reduction exchange of a
// built plan (buildRoles): each role's destination and source lists are
// strictly ascending and name no empty range, the words each sender lists
// for (phase, receiver) are what that receiver lists for (phase, sender),
// and each role's put slots are a bijection onto its send vector — from
// the folded totals on, for a ring's last hop — and its get slots onto
// its receive vector. It returns the exchanges checked and how many of
// them are rings whose last hop delivers to a reader.
func checkPeerLists(t *testing.T, label string, pl *planSchedule) (exchanges, rings int) {
	t.Helper()
	type edge struct{ phase, src, dst int32 }
	ascending := func(where string, peers []peerWords) {
		t.Helper()
		for i, p := range peers {
			if p.n <= 0 || (i > 0 && p.peer <= peers[i-1].peer) {
				t.Fatalf("%s: peers %v are not strictly ascending with words", where, peers)
			}
		}
	}
	bijection := func(where string, slots []int32, base int32, peers []peerWords) {
		t.Helper()
		var words int32
		for _, p := range peers {
			words += p.n
		}
		got := slices.Clone(slots)
		slices.Sort(got)
		for k, slot := range got {
			if slot != base+int32(k) {
				t.Fatalf("%s: slots %v are not a bijection onto [%d, %d)", where, slots, base, base+words)
			}
		}
		if len(got) != int(words) {
			t.Fatalf("%s: %d slots for the %d words of %v", where, len(got), words, peers)
		}
	}
	for si, s := range pl.segs {
		for ni, ns := range s.nests {
			for ri, r := range ns.reds {
				exchanges++
				chain := ns.list(ns.fins[r.items.lo].contribs)
				sent, got := map[edge]int32{}, map[edge]int32{}
				for k, me := range ns.list(r.parts) {
					role := &ns.roles[r.roles+int32(k)]
					for pi, ph := range []*phase{&role.gather, &role.fanout} {
						where := fmt.Sprintf("%s: segment %d nest %d exchange %d (ring %v) rank %d phase %d", label, si, ni, ri, r.ring, me, pi)
						to, from := ns.peers[ph.to.lo:ph.to.hi], ns.peers[ph.from.lo:ph.from.hi]
						ascending(where+" destinations", to)
						ascending(where+" sources", from)
						for _, d := range to {
							sent[edge{int32(pi), me, d.peer}] += d.n
						}
						for _, src := range from {
							got[edge{int32(pi), src.peer, me}] += src.n
						}
						base := int32(0)
						if r.ring && me == chain[len(chain)-1] {
							base = int32(r.items.n())
							if len(to) > 0 {
								rings++
							}
						}
						bijection(where+" sends", ns.list(ph.put), base, to)
						bijection(where+" receives", ns.list(ph.get), 0, from)
					}
				}
				for e, n := range sent {
					if got[e] != n {
						t.Fatalf("%s: segment %d nest %d exchange %d: rank %d lists %d words to %d in phase %d, which lists %d from it",
							label, si, ni, ri, e.src, n, e.dst, e.phase, got[e])
					}
				}
				for e, n := range got {
					if sent[e] != n {
						t.Fatalf("%s: segment %d nest %d exchange %d: rank %d lists %d words from %d in phase %d, which lists %d to it",
							label, si, ni, ri, e.dst, n, e.src, e.phase, sent[e])
					}
				}
			}
		}
	}
	return exchanges, rings
}

// TestReductionPeerListsAgree: the two ends of every reduction exchange
// agree on what crosses the wire (checkPeerLists), over the compiled
// plans of every testdata/*.f, ir.Stencil and Synthetic(4..8) at m = 16
// on 4, 16 and 64 processors, and over the programs of
// TestExecDifferentialFuzz and TestBatchedMatchesExactFuzz, drawn with
// their generators, seeds and draw order, each whole under its schemes
// and under a random segmentation.
func TestReductionPeerListsAgree(t *testing.T) {
	exchanges, rings := 0, 0
	check := func(label string, p *ir.Program, m int, segs []core.Segment) {
		t.Helper()
		pl, err := buildPlan(mustLower(t, p, map[string]int{"m": m}), segs, map[string]float64{"OMEGA": 1.2}, &workspace{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		e, r := checkPeerLists(t, label, pl)
		exchanges, rings = exchanges+e, rings+r
	}

	progs := map[string]*ir.Program{"stencil": ir.Stencil()}
	for name, p := range casePrograms(t) {
		if _, builtin := ir.Builtin(name); !builtin {
			progs[name] = p // a builtin's listing is testdata/<name>.f
		}
	}
	for s := 4; s <= 8; s++ {
		progs[fmt.Sprintf("Synthetic(%d)", s)] = ir.Synthetic(s)
	}
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, n := range []int{4, 16, 64} {
			c := Case{Prog: progs[name], M: 16, N: n}
			plan, err := c.Plan()
			if err != nil {
				t.Fatalf("%s N=%d: %v", name, n, err)
			}
			check(fmt.Sprintf("%s m=16 N=%d", name, n), c.Prog, c.M, plan.DP.Segments)
		}
	}

	const m = 8
	for _, seed := range fuzzSeeds {
		for gi, gen := range []func(*rand.Rand) *ir.Program{randomProgram, randomReduceProgram} {
			rng := rand.New(rand.NewSource(seed))
			for trial := range []int{25, 30}[gi] {
				p := gen(rng)
				randomInput(p, m, rng)
				rng.Intn(2)
				for _, n := range []int{1, 2, 4} {
					if ss := fuzzSchemes(t, p, m, n); ss != nil {
						check(fuzzCase(seed, trial, n, p), p, m, wholeProgram(p, ss))
					}
					segs, label := randomPlan(t, seed, trial, m, n, p)
					check(label, p, m, segs)
				}
			}
		}
	}
	if rings == 0 {
		t.Errorf("of %d exchanges, no ring's last hop delivered to a reader", exchanges)
	}
	t.Logf("%d exchanges, %d rings delivering to readers", exchanges, rings)
}
