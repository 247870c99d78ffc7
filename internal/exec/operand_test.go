// The inspector's addresses against an oracle: every operand and every
// redistribution segment address decodes back to the element elemAt names
// at the instance's loop vector, and a copy no receive delivered is an
// error from Run.

package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"dmcc/internal/core"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

// rankAddr is one address in one rank's address space.
type rankAddr struct{ rank, addr int32 }

// invert maps every (rank, position) a table handed out back to its
// element, failing on a position handed out twice. An entry a direct send
// made holds no position (-1) until a buffered use numbers one, and is
// skipped.
func invert(t *testing.T, label string, pt *posTable) map[rankAddr]elemID {
	t.Helper()
	inv := map[rankAddr]elemID{}
	for a, row := range pt.rows {
		for off, ref := range row {
			for _, rp := range pt.slab[ref.at : ref.at+ref.n] {
				if rp.pos < 0 {
					continue
				}
				k := rankAddr{rp.rank, rp.pos}
				if prev, dup := inv[k]; dup {
					t.Fatalf("%s: rank %d position %d holds elements %d and %d", label, rp.rank, rp.pos, prev, mkElem(a, off))
				}
				if rp.pos >= pt.n[rp.rank] {
					t.Fatalf("%s: rank %d position %d past its count %d", label, rp.rank, rp.pos, pt.n[rp.rank])
				}
				inv[k] = mkElem(a, off)
			}
		}
	}
	return inv
}

// checkAddresses builds the schedule of p under ss with the instances'
// loop vectors captured and decodes every address in it: an opEval's
// operands (slab offsets through the layout, buffer and partial-sum
// positions through their tables, direct messages through the matching
// opSendDirect) against elemAt of its Reads, its written element and
// partial sum against elemAt of its LHS, and both ends of every segment
// against the segment's elements. It returns the operands checked.
func checkAddresses(t *testing.T, label string, p *ir.Program, ss *core.SchemeSet, m int) int {
	t.Helper()
	type evalAt struct {
		ns    *nestSchedule
		p, at int
	}
	ivs := map[evalAt][]int{}
	ws := &workspace{lowering: lowering{evalTap: func(ns *nestSchedule, p, at int, iv []int) { ivs[evalAt{ns, p, at}] = slices.Clone(iv) }}}
	s, err := wholeSchedule(mustLower(t, p, map[string]int{"m": m}), ss, map[string]float64{"OMEGA": 1.2}, ws)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	slab := map[rankAddr]elemID{}
	for a := range s.arrays {
		am := &s.arrays[a]
		for off := range am.size {
			for _, o := range am.lay.owners(off) {
				at, _ := s.slabOff(o, mkElem(a, off))
				slab[rankAddr{int32(o), at}] = mkElem(a, off)
			}
		}
	}
	bufs, parts := invert(t, label+" buffers", &s.bufs), invert(t, label+" partial sums", &s.parts)
	decode := func(where string, inv map[rankAddr]elemID, r, addr int32, want elemID) {
		t.Helper()
		if got, ok := inv[rankAddr{r, addr}]; !ok || got != want {
			t.Fatalf("%s: %s: rank %d address %d holds element %d (%v), want %d", label, where, r, addr, got, ok, want)
		}
	}

	checked := 0
	for ni, ns := range s.nests {
		// Direct messages in send order per ordered pair; each receive takes
		// the pair's next.
		direct := map[[2]int][]elemID{}
		for src := range s.nprocs {
			for _, in := range ns.stream(src) {
				if in.op == opSendDirect {
					k := [2]int{src, int(in.arg)}
					direct[k] = append(direct[k], in.elem)
				}
			}
		}
		for r := range s.nprocs {
			for at, in := range ns.stream(r) {
				where := fmt.Sprintf("nest %d rank %d instruction %d", ni, r, at)
				switch in.op {
				case opRedist:
					addrs := s.plan.addrs
					for _, rd := range nested(&s.plan, in.arg, 1)[0].rounds {
						for _, msg := range rd.sends {
							for _, seg := range msg.segs {
								n := len(seg.elems)
								for k, e := range seg.elems {
									from := slab
									if int(seg.origin) != r {
										from = bufs
									}
									decode(where+" send", from, int32(r), addrs[int(seg.addr)+k], e)
									decode(where+" send's receiver", bufs, msg.peer, addrs[int(seg.addr)+n+k], e)
								}
							}
						}
						for _, msg := range rd.recvs {
							for _, seg := range msg.segs {
								for k, e := range seg.elems {
									decode(where+" receive", bufs, int32(r), addrs[int(seg.addr)+len(seg.elems)+k], e)
								}
							}
						}
					}
				case opEval:
					iv, ok := ivs[evalAt{ns, r, at}]
					if !ok {
						t.Fatalf("%s: %s: an opEval the inspector never emitted", label, where)
					}
					st, ls := ns.stmts[in.stmt], &ns.ln.Stmts[in.stmt]
					if lhs, ok := elemAt(&ls.LHS, iv); !ok || lhs != in.elem {
						t.Fatalf("%s: %s at %v: writes element %d, elemAt gives %d (inside the extents: %v)", label, where, iv, in.elem, lhs, ok)
					}
					if in.role == roleReduce {
						decode(where+" partial sum", parts, int32(r), in.arg, in.elem)
					}
					for ri, o := range ns.operands[in.off : int(in.off)+len(ls.Reads)] {
						want, ok := elemAt(&ls.Reads[ri], iv)
						if !ok {
							t.Fatalf("%s: %s: %v", label, where, s.lw.Outside(ns.t, int(in.stmt), ri, iv))
						}
						what := fmt.Sprintf("%s at %v, operand %d (%s)", where, iv, ri, st.Reads[ri])
						switch o.kind() {
						case opdOwned:
							decode(what, slab, int32(r), int32(o.addr()), want)
						case opdBuffered:
							decode(what, bufs, int32(r), int32(o.addr()), want)
						case opdDirect:
							k := [2]int{o.addr(), r}
							if len(direct[k]) == 0 || direct[k][0] != want {
								t.Fatalf("%s: %s: direct from %d carries %v next, want element %d", label, what, o.addr(), direct[k], want)
							}
							direct[k] = direct[k][1:]
						case opdAcc:
							if want != in.elem {
								t.Fatalf("%s: %s: accumulator operand reads element %d, the instance writes %d", label, what, want, in.elem)
							}
							if in.role == roleReduce {
								decode(what, parts, int32(r), int32(o.addr()), want)
							}
						}
						checked++
					}
				}
			}
		}
		for k, left := range direct {
			if len(left) > 0 {
				t.Fatalf("%s: nest %d: %d direct sends from %d to %d no operand receives", label, ni, len(left), k[0], k[1])
			}
		}
	}
	return checked
}

// TestOperandAddressesMatchElements: every operand address the inspector
// records, and every address of every redistribution segment, is the
// element elemAt gives — on the kernels and on the programs of
// TestExecDifferentialFuzz and TestBatchedMatchesExactFuzz.
func TestOperandAddressesMatchElements(t *testing.T) {
	for _, k := range []struct {
		p    *ir.Program
		m, n int
	}{
		{ir.Gauss(), 32, 16}, {ir.Gauss(), 16, 4}, {ir.Jacobi(), 16, 64}, {ir.Jacobi(), 32, 4},
		{ir.SOR(), 32, 16}, {ir.SOR(), 16, 4}, {matmul(), 8, 4},
	} {
		label := fmt.Sprintf("%s m=%d n=%d", k.p.Name, k.m, k.n)
		t.Logf("%s: %d operands", label, checkAddresses(t, label, k.p, wholeProgramSchemes(t, k.p, k.m, k.n), k.m))
	}
	for _, k := range []struct {
		p    *ir.Program
		m, n int
	}{{stencilProgram(), 12, 4}, {matmulProgram(), 6, 3}, {matmulProgram(), 8, 4}} {
		label := fmt.Sprintf("%s m=%d n=%d", k.p.Name, k.m, k.n)
		t.Logf("%s: %d operands", label, checkAddresses(t, label, k.p, fuzzSchemes(t, k.p, k.m, k.n), k.m))
	}

	// The fuzz tests' programs, drawn with their generators, seeds and
	// draw order.
	const m = 8
	for _, seed := range fuzzSeeds {
		for gi, gen := range []func(*rand.Rand) *ir.Program{randomProgram, randomReduceProgram} {
			rng := rand.New(rand.NewSource(seed))
			for trial := range []int{25, 30}[gi] {
				p := gen(rng)
				randomInput(p, m, rng)
				rng.Intn(2)
				for _, n := range []int{1, 2, 4} {
					checkAddresses(t, fuzzCase(seed, trial, n, p), p, fuzzSchemes(t, p, m, n), m)
				}
			}
		}
	}
}

// TestUnfilledBufferIsAnError: a schedule whose first epoch lost one
// receive segment — dropped from its message at both ends, so the words
// still add up — leaves the receiver's positions for it unfilled. Reading
// one, as an operand or as a relay, makes Run return an error naming the
// receiver and one of those positions, and no Values; -v prints each.
func TestUnfilledBufferIsAnError(t *testing.T) {
	for _, k := range []struct {
		p    *ir.Program
		m, n int
	}{{ir.Gauss(), 8, 4}, {ir.Gauss(), 16, 4}, {ir.SOR(), 16, 64}, {ir.Jacobi(), 16, 64}, {ir.Gauss(), 32, 64}} {
		label := fmt.Sprintf("%s m=%d n=%d", k.p.Name, k.m, k.n)
		ss := wholeProgramSchemes(t, k.p, k.m, k.n)
		var dropped redistSeg
		var receiver int32 = -1
		ws := &workspace{lowering: lowering{tap: func(_ []epochShip, ranks []int32, p *redistPlan, op0 int32) {
			if receiver >= 0 {
				return
			}
			// The first receive of the epoch's first receiving rank, and the
			// matching send: a segment both ends share, dropped by moving
			// the start of both messages' segment ranges past it.
			for i := range ranks {
				op := p.ops[op0+int32(i)]
				for _, rd := range p.rounds[op.lo:op.hi] {
					if rd.recvs.n() == 0 {
						continue
					}
					recv := &p.msgs[rd.recvs.lo]
					j, _ := slices.BinarySearch(ranks, recv.peer)
					from := p.ops[op0+int32(j)]
					k := slices.IndexFunc(p.rounds[from.lo:from.hi], func(r planRound) bool { return r.round == rd.round })
					sends := p.rounds[from.lo+int32(k)].sends
					send := &p.msgs[sends.lo+int32(slices.IndexFunc(p.msgs[sends.lo:sends.hi], func(m planMsg) bool { return m.peer == ranks[i] }))]
					seg := p.segs[recv.segs.lo]
					receiver, dropped = ranks[i], redistSeg{origin: seg.origin, elems: slices.Clone(p.elems[seg.elems.lo:seg.elems.hi])}
					recv.segs.lo++
					send.segs.lo++
					return
				}
			}
		}}}
		bind := map[string]int{"m": k.m}
		a, b, _ := matrix.DiagonallyDominant(k.m, 1)
		input := loadLinearSystem(k.p, a, b, nil)
		lw := mustLower(t, k.p, bind)
		if err := validate(lw, wholeProgram(k.p, ss), input); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		pl, err := buildPlan(lw, wholeProgram(k.p, ss), map[string]float64{"OMEGA": 1.2}, ws)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if receiver < 0 {
			t.Fatalf("%s: no epoch has a receive", label)
		}
		s := pl.segs[0]
		res, err := ws.run(k.p, 1, machine.DefaultConfig(), input, time.Now())
		if res.Values != nil {
			t.Errorf("%s: Run returned Values beside %v", label, err)
		}
		want := make([]string, len(dropped.elems))
		for i, e := range dropped.elems {
			want[i] = fmt.Sprintf("exec: processor %d reads buffer position %d, which no receive filled", receiver, s.bufs.pos(s, e, int(receiver)))
		}
		t.Logf("%s: %v", label, err)
		if err == nil || !slices.ContainsFunc(want, func(w string) bool { return strings.Contains(err.Error(), w) }) {
			t.Errorf("%s: dropped %d elements of origin %d to rank %d: got %v, want one of %q", label, len(dropped.elems), dropped.origin, receiver, err, want)
		}
	}
}
