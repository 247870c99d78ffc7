package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dmcc/internal/grid"
)

// xop is one instruction of an exchange program: compute flops, send
// words to peer, or receive from peer.
type xop struct {
	kind        byte // 'c', 's' or 'r'
	peer, words int
}

// exchangeProgram is every rank's instruction list. Within a round all
// sends precede the receives, which drain sources in ascending order, as
// exec's epochs do, so the program cannot deadlock.
type exchangeProgram [][]xop

// rounds builds a program from per-round traffic: sends(round)[src] lists
// the (dst, words) messages src sends that round, self-sends included.
func rounds(n, nrounds int, sends func(round int) [][][2]int) exchangeProgram {
	prog := make(exchangeProgram, n)
	for r := 0; r < nrounds; r++ {
		traffic := sends(r)
		for me := 0; me < n; me++ {
			prog[me] = append(prog[me], xop{kind: 'c', words: (me + r) % 3})
			for _, s := range traffic[me] {
				prog[me] = append(prog[me], xop{kind: 's', peer: s[0], words: s[1]})
			}
		}
		for src := 0; src < n; src++ {
			for _, s := range traffic[src] {
				prog[s[0]] = append(prog[s[0]], xop{kind: 'r', peer: src, words: s[1]})
			}
		}
	}
	return prog
}

// ringProgram: every rank sends to its successor and receives from its
// predecessor, three rounds.
func ringProgram(n int) exchangeProgram {
	return rounds(n, 3, func(r int) [][][2]int {
		t := make([][][2]int, n)
		for src := range t {
			t[src] = [][2]int{{(src + 1) % n, 1 + r}}
		}
		return t
	})
}

// allToAllProgram: every rank sends every rank, itself included, two
// rounds.
func allToAllProgram(n int) exchangeProgram {
	return rounds(n, 2, func(r int) [][][2]int {
		t := make([][][2]int, n)
		for src := range t {
			for dst := 0; dst < n; dst++ {
				t[src] = append(t[src], [2]int{dst, 1 + (src+dst+r)%4})
			}
		}
		return t
	})
}

// randomProgram: each round every rank sends up to two messages to each
// of a random set of peers, itself among the candidates.
func randomProgram(n int, seed int64) exchangeProgram {
	rng := rand.New(rand.NewSource(seed))
	return rounds(n, 5, func(int) [][][2]int {
		t := make([][][2]int, n)
		for src := range t {
			for dst := 0; dst < n; dst++ {
				for k := rng.Intn(4) - 1; k > 0; k-- {
					t[src] = append(t[src], [2]int{dst, 1 + rng.Intn(6)})
				}
			}
		}
		return t
	})
}

// xpayload is the words rank me sends at instruction i.
func xpayload(me, i, words int) []Word {
	buf := make([]Word, words)
	for k := range buf {
		buf[k] = Word(me*10000 + i*10 + k)
	}
	return buf
}

// execOp runs one non-receive instruction.
func execOp(p *Proc, i int, op xop) {
	if op.kind == 'c' {
		p.Compute(op.words)
	} else {
		p.Send(op.peer, xpayload(p.Rank(), i, op.words))
	}
}

// received checks a message's length and folds it into the rank's sum.
func received(sum *Word, data []Word, op xop) {
	if len(data) != op.words {
		panic(fmt.Sprintf("got %d words from %d, want %d", len(data), op.peer, op.words))
	}
	for _, w := range data {
		*sum += w
	}
}

// runExchange runs prog as coroutine bodies (Run) or as steps
// (RunSteps) and returns the Stats, the trace and each rank's sum of the
// words it received.
func runExchange(t *testing.T, g *grid.Grid, cfg Config, prog exchangeProgram, steps bool) (Stats, []Event, []Word) {
	t.Helper()
	tr := &lockedTracer{}
	cfg.Tracer = tr
	sums := make([]Word, g.Size())
	m := mustNew(t, g, cfg)
	var st Stats
	var err error
	if steps {
		pc := make([]int, g.Size())
		st, err = m.RunSteps(func(p *Proc) bool {
			me := p.Rank()
			for ; pc[me] < len(prog[me]); pc[me]++ {
				op := prog[me][pc[me]]
				if op.kind != 'r' {
					execOp(p, pc[me], op)
					continue
				}
				data, ok := p.TryRecv(op.peer)
				if !ok {
					return false
				}
				received(&sums[me], data, op)
			}
			return true
		})
	} else {
		st, err = m.Run(func(p *Proc) {
			me := p.Rank()
			for i, op := range prog[me] {
				if op.kind != 'r' {
					execOp(p, i, op)
					continue
				}
				received(&sums[me], p.Recv(op.peer), op)
			}
		})
	}
	if err != nil {
		t.Fatalf("steps=%t: %v", steps, err)
	}
	return st, tr.events, sums
}

// TestStepsAgreeWithCoroutines: the same exchange program written as
// coroutine bodies and as steps gives identical Stats, identical
// received words and the identical trace, event for event in the
// scheduler's order — per processor and across them — on a ring, an
// all-to-all and random point-to-point traffic with self-sends, under
// blocking and overlapped sends.
func TestStepsAgreeWithCoroutines(t *testing.T) {
	type program struct {
		name string
		prog exchangeProgram
	}
	for _, shape := range [][]int{{1}, {5}, {2, 3}, {4, 4}} {
		g := grid.New(shape...)
		n := g.Size()
		progs := []program{{"ring", ringProgram(n)}, {"all-to-all", allToAllProgram(n)}}
		for _, seed := range []int64{1, 7, 42} {
			progs = append(progs, program{fmt.Sprintf("random seed %d", seed), randomProgram(n, seed)})
		}
		for _, pr := range progs {
			for _, overlap := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.Overlap, cfg.Alpha = overlap, 2
				label := fmt.Sprintf("%v %s overlap=%t", shape, pr.name, overlap)
				wantSt, wantEv, wantSums := runExchange(t, g, cfg, pr.prog, false)
				gotSt, gotEv, gotSums := runExchange(t, g, cfg, pr.prog, true)
				if !reflect.DeepEqual(gotSt, wantSt) {
					t.Fatalf("%s: stats differ:\n steps      %+v\n coroutines %+v", label, gotSt, wantSt)
				}
				if !reflect.DeepEqual(gotSums, wantSums) {
					t.Fatalf("%s: received words differ:\n steps      %v\n coroutines %v", label, gotSums, wantSums)
				}
				if !reflect.DeepEqual(gotEv, wantEv) {
					t.Fatalf("%s: traces differ (%d vs %d events)", label, len(gotEv), len(wantEv))
				}
				if n > 1 && gotSt.Messages == 0 {
					t.Fatalf("%s: the program sent nothing", label)
				}
			}
		}
	}
}

// runStepsErr runs step on a 4-processor machine and returns its error.
func runStepsErr(t *testing.T, step func(p *Proc) bool) error {
	t.Helper()
	_, err := mustNew(t, grid.New(4), DefaultConfig()).RunSteps(step)
	return err
}

// TestStepMutualWaitIsADeadlock: steps that all wait in TryRecv for
// messages nobody sends, from the start or after an exchange, are
// reported as the deadlock error.
func TestStepMutualWaitIsADeadlock(t *testing.T) {
	for name, step := range map[string]func(p *Proc) bool{
		"everyone waits on its neighbour": func(p *Proc) bool {
			_, ok := p.TryRecv((p.Rank() + 1) % p.NumProcs())
			return ok
		},
		"one message, then a mutual wait": func(p *Proc) bool {
			if p.Rank() == 0 && p.Clock() == 0 {
				p.Send(1, []Word{1})
				p.Compute(1)
			}
			_, ok := p.TryRecv(p.Rank() ^ 1)
			if ok && p.Rank() == 1 {
				_, ok = p.TryRecv(0)
			}
			return ok
		},
	} {
		if err := runStepsErr(t, step); err == nil || !strings.Contains(err.Error(), "deadlock") {
			t.Errorf("%s: err = %v, want the deadlock error", name, err)
		}
	}
}

// TestStepPanicIsTheRootCause: a panicking step is its rank's error and
// aborts the run; of two, the lower rank's is reported, and a step parked
// when it happened is never called again, so no casualty's unwind masks
// it. Ranks that do not panic wait for a message from rank 3.
func TestStepPanicIsTheRootCause(t *testing.T) {
	for _, c := range []struct {
		name, want string
		panics     func(me, call int) string
		calls      []int
	}{
		{"ranks 1 and 3 panic at once", "processor 1 panicked: first", func(me, call int) string {
			return map[int]string{1: "first", 3: "second"}[me]
		}, []int{1, 1, 1, 1}},
		{"rank 2 panics once rank 3's message wakes it", "processor 2 panicked: boom", func(me, call int) string {
			if me == 2 && call == 2 {
				return "boom"
			}
			return ""
		}, []int{1, 1, 2, 1}},
	} {
		calls := make([]int, 4)
		err := runStepsErr(t, func(p *Proc) bool {
			me := p.Rank()
			calls[me]++
			if msg := c.panics(me, calls[me]); msg != "" {
				panic(msg)
			}
			if me == 3 {
				p.Send(2, []Word{1})
				return true
			}
			_, ok := p.TryRecv(3)
			return ok
		})
		if err == nil || !strings.HasSuffix(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want ...%s", c.name, err, c.want)
		}
		if !reflect.DeepEqual(calls, c.calls) {
			t.Errorf("%s: steps were called %v times by rank, want %v: a parked step ran after the abort", c.name, calls, c.calls)
		}
	}
}

// TestStepMisuseIsAnError: a step that returns false without parking, or
// true while parked, or that calls Recv or a collective, is its rank's
// error naming the rank — not a hang, not a crash. TryRecv in a
// coroutine body is an error too.
func TestStepMisuseIsAnError(t *testing.T) {
	for _, c := range []struct {
		name, want string
		step       func(p *Proc) bool
	}{
		{"false without parking", "processor 1 panicked: machine: a step must return false exactly when TryRecv parked it",
			func(p *Proc) bool { return p.Rank() != 1 }},
		{"true while parked", "processor 2 panicked: machine: a step must return false exactly when TryRecv parked it",
			func(p *Proc) bool {
				if p.Rank() == 2 {
					p.TryRecv(0)
				}
				return true
			}},
		{"Recv inside a step", "processor 3 panicked: machine: Recv inside a step; a step receives with TryRecv",
			func(p *Proc) bool {
				if p.Rank() == 3 {
					p.Send(3, []Word{1})
					p.Recv(3)
				}
				return true
			}},
		{"collective inside a step", "processor 0 panicked: machine: Recv inside a step; a step receives with TryRecv",
			func(p *Proc) bool {
				p.Barrier()
				return true
			}},
	} {
		if err := runStepsErr(t, c.step); err == nil || !strings.HasSuffix(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want ...%s", c.name, err, c.want)
		}
	}
	_, err := mustNew(t, grid.New(2), DefaultConfig()).Run(func(p *Proc) { p.TryRecv(1 - p.Rank()) })
	if err == nil || !strings.Contains(err.Error(), "TryRecv outside a step") {
		t.Errorf("TryRecv in a coroutine body: err = %v", err)
	}
}
