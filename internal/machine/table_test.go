package machine

import (
	"reflect"
	"runtime"
	"testing"

	"dmcc/internal/grid"
)

// TestAllPairsAgree: every ordered pair of a 256-rank machine, self-pairs
// included, exchanges two messages of different lengths in one round, so
// the pair table grows to all 65,536 pairs and every queue holds two
// messages at once. Steps and coroutines agree on the Stats (PerProc's
// per-pair columns and the MaxPair maxima among them), the received
// words and the trace, and a message taken out of per-pair FIFO order
// would fail its length check.
func TestAllPairsAgree(t *testing.T) {
	const n = 256
	prog := rounds(n, 1, func(int) [][][2]int {
		t := make([][][2]int, n)
		for src := range t {
			for dst := 0; dst < n; dst++ {
				t[src] = append(t[src], [2]int{dst, 1 + (src+dst)%3}, [2]int{dst, 4})
			}
		}
		return t
	})
	g := grid.New(16, 16)
	cfg := DefaultConfig()
	wantSt, wantEv, wantSums := runExchange(t, g, cfg, prog, false)
	gotSt, gotEv, gotSums := runExchange(t, g, cfg, prog, true)
	if !reflect.DeepEqual(gotSt, wantSt) {
		t.Fatalf("stats differ: steps makespan %v, %d messages; coroutines %v, %d messages",
			gotSt.ParallelTime, gotSt.Messages, wantSt.ParallelTime, wantSt.Messages)
	}
	if !reflect.DeepEqual(gotSums, wantSums) {
		t.Fatal("received words differ")
	}
	if !reflect.DeepEqual(gotEv, wantEv) {
		t.Fatalf("traces differ (%d vs %d events)", len(gotEv), len(wantEv))
	}
	if gotSt.Messages != 2*n*(n-1) || gotSt.MaxPairMessages != 2 || len(gotSt.PerProc[7].Peers) != n-1 {
		t.Fatalf("%d messages, %d on the busiest pair, rank 7 talks to %d peers; want %d, 2, %d",
			gotSt.Messages, gotSt.MaxPairMessages, len(gotSt.PerProc[7].Peers), 2*n*(n-1), n-1)
	}
}

// TestReusedTablesMatchFresh: runs on the run tables an earlier run of
// another size and program put back in the pool — more or fewer ranks,
// pairs, queued messages and payload chunks — give the Stats, trace and
// received words of runs on empty tables. Steps and coroutines alternate,
// on one P, so each run takes the tables the run before it put back.
func TestReusedTablesMatchFresh(t *testing.T) {
	type kase struct {
		g     *grid.Grid
		prog  exchangeProgram
		steps bool
	}
	var cases []kase
	for i, n := range []int{64, 4, 256, 16, 1, 64} {
		g := grid.New(n)
		if n == 16 {
			g = grid.New(4, 4)
		}
		cases = append(cases, kase{g, randomProgram(n, int64(i)), i%2 == 0})
	}
	type outcome struct {
		st    Stats
		ev    []Event
		words []Word
	}
	runCase := func(c kase) outcome {
		st, ev, words := runExchange(t, c.g, DefaultConfig(), c.prog, c.steps)
		return outcome{st, ev, words}
	}
	fresh := make([]outcome, len(cases))
	for i, c := range cases {
		runtime.GC()
		runtime.GC() // empties the pool
		fresh[i] = runCase(c)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i, c := range cases {
		if got := runCase(c); !reflect.DeepEqual(got, fresh[i]) {
			t.Fatalf("case %d (%d ranks, steps %v) on reused tables differs from its run on empty ones", i, c.g.Size(), c.steps)
		}
	}
}

// ringStep is a RunSteps body: hops times, every rank sends one word to
// its successor and receives one from its predecessor. pc holds each
// rank's position, two per hop.
func ringStep(hops int, pc []int) func(p *Proc) bool {
	payload := []Word{1}
	return func(p *Proc) bool {
		me, n := p.Rank(), p.NumProcs()
		for ; pc[me] < 2*hops; pc[me]++ {
			if pc[me]%2 == 0 {
				p.Send((me+1)%n, payload)
				continue
			}
			if _, ok := p.TryRecv((me + n - 1) % n); !ok {
				return false
			}
		}
		return true
	}
}

// runRing runs an n-rank ring of the given hops on a fresh machine.
func runRing(tb testing.TB, n, hops int) Stats {
	st, err := mustNew(tb, grid.New(n), DefaultConfig()).RunSteps(ringStep(hops, make([]int, n)))
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// ringAllocs is the allocations and bytes of one runRing, the mean of
// runs.
func ringAllocs(t *testing.T, n, hops, runs int) (allocs, bytes float64) {
	runRing(t, n, hops)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		runRing(t, n, hops)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestMessagePathAllocations: a steady-state message allocates nothing.
// A 256-rank ring at 64 hops sends 14,336 messages more than at 8 hops
// over the same pairs, and may allocate at most one more time per 1,000
// of them — the payload arena's chunks, nothing per message, pair or
// peer. A 4,096-rank ring stays far below a dense pair structure's
// 4,096² words (134 MB): 1.8 MB when this was written. The count bound
// holds only without -race: there sync.Pool drops pooled run tables at
// random, and the difference counts their refills, not the message path.
func TestMessagePathAllocations(t *testing.T) {
	short, _ := ringAllocs(t, 256, 8, 5)
	long, _ := ringAllocs(t, 256, 64, 5)
	extra := 256 * (64 - 8)
	if !raceEnabled && long-short > float64(extra)/1000 {
		t.Errorf("a 256-rank ring allocates %.0f times at 8 hops and %.0f at 64: %.0f more for %d more messages, want at most %d",
			short, long, long-short, extra, extra/1000)
	}
	const budget = 4 << 20
	if _, bytes := ringAllocs(t, 4096, 4, 2); bytes > budget {
		t.Errorf("a 4,096-rank ring of 4 hops allocates %.0f bytes, budget %d", bytes, budget)
	}
}

// BenchmarkRunStepsRing is the machine's own profiling anchor, no exec in
// it: a RunSteps ring of 1,024 ranks, 16 hops, one word a hop.
func BenchmarkRunStepsRing(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		runRing(b, 1024, 16)
	}
}
