package exec

import (
	"runtime"
	"slices"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

// benchCase is one (program, schemes, input) ready for Run: the compile
// and the input generation stay outside what the benchmarks time.
type benchCase struct {
	p     *ir.Program
	ss    *core.SchemeSet
	bind  map[string]int
	iters int
	input ir.Storage
}

func newBenchCase(tb testing.TB, p *ir.Program, m, n, iters int, x0 bool) benchCase {
	tb.Helper()
	a, b, _ := matrix.DiagonallyDominant(m, 1)
	var x []float64
	if x0 {
		x = make([]float64, m)
	}
	return benchCase{p: p, ss: wholeProgramSchemes(tb, p, m, n), bind: map[string]int{"m": m},
		iters: iters, input: loadLinearSystem(p, a, b, x)}
}

func (c benchCase) run(tb testing.TB) Result {
	res, err := Run(c.p, c.ss, c.bind, nil, c.iters, machine.DefaultConfig(), c.input)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

var benchSink Result

func benchRun(b *testing.B, c benchCase) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = c.run(b)
	}
}

// BenchmarkRunGauss is the inspector-bound case dmbench's exec-gauss
// workload runs: Gauss m=32 on 16 processors.
func BenchmarkRunGauss(b *testing.B) { benchRun(b, newBenchCase(b, ir.Gauss(), 32, 16, 1, false)) }

// BenchmarkScheduleGauss times the inspector alone on BenchmarkRunGauss's
// case: buildPlan of Gauss m=32 on 16 processors under its whole-program
// schemes, in one warm workspace, the lowering and the scheme derivation
// outside the timer.
func BenchmarkScheduleGauss(b *testing.B) {
	c := newBenchCase(b, ir.Gauss(), 32, 16, 1, false)
	lw, segs, ws := mustLower(b, c.p, c.bind), wholeProgram(c.p, c.ss), &workspace{}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := buildPlan(lw, segs, nil, ws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunJacobi1024 is the machine-bound case of exec-scale: Jacobi
// m=32 on 1024 processors, two outer iterations.
func BenchmarkRunJacobi1024(b *testing.B) {
	benchRun(b, newBenchCase(b, ir.Jacobi(), 32, 1024, 2, true))
}

// jacobi1024Epoch is the traffic of the one epoch of exec-scale's case
// (jacobi m=32 on 1024 processors: 1,984 ships, 1,953 tree and residual
// edges, 1,147 messages in 5 rounds), captured through the tap.
func jacobi1024Epoch(tb testing.TB) []epochShip {
	tb.Helper()
	c := newBenchCase(tb, ir.Jacobi(), 32, 1024, 2, true)
	lw, err := c.p.Lower(c.bind)
	if err != nil {
		tb.Fatal(err)
	}
	var epochs [][]epochShip
	ws := &workspace{lowering: lowering{tap: func(traffic []epochShip, _ []int32, _ *redistPlan, _ int32) {
		epochs = append(epochs, slices.Clone(traffic))
	}}}
	if _, err := wholeSchedule(lw, c.ss, nil, ws); err != nil {
		tb.Fatal(err)
	}
	if len(epochs) != 1 {
		tb.Fatalf("the schedule closes %d epochs, want 1", len(epochs))
	}
	return epochs[0]
}

// BenchmarkLowerJacobi1024 times lowering.lower alone on jacobi1024Epoch:
// each iteration lowers a fresh copy of the epoch's traffic on one reused
// lowering, into one plan emptied first.
func BenchmarkLowerJacobi1024(b *testing.B) {
	epoch := jacobi1024Epoch(b)
	low, traffic := &lowering{}, make([]epochShip, len(epoch))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		copy(traffic, epoch)
		lowerSink.reset()
		low.lower(traffic, &lowerSink)
	}
}

// TestLowerCarvesOnlyLiveRounds: a processor's plan holds only the rounds
// it sends or receives in, so jacobi1024Epoch's plan carves at most one
// round list per message and rank — 5,120 while every rank held all five
// rounds.
func TestLowerCarvesOnlyLiveRounds(t *testing.T) {
	ranks, ops := lowerNested(&lowering{}, jacobi1024Epoch(t))
	lists, msgs := 0, 0
	for _, op := range ops {
		lists += len(op.rounds)
		for _, rd := range op.rounds {
			if len(rd.sends) == 0 && len(rd.recvs) == 0 {
				t.Fatalf("round %d is carved with no message", rd.round)
			}
			msgs += len(rd.sends)
		}
	}
	if msgs != 1147 {
		t.Fatalf("the epoch lowers to %d messages, want 1,147", msgs)
	}
	if lists > msgs+len(ranks) {
		t.Errorf("the plan carves %d round lists for %d messages over %d ranks, want at most %d", lists, msgs, len(ranks), msgs+len(ranks))
	}
	t.Logf("%d round lists for %d messages over %d ranks", lists, msgs, len(ranks))
}

var lowerSink redistPlan

// BenchmarkEventsN256 is the profiling anchor for the event runtime:
// jacobi, m=64, N=256, compile excluded. Pair with -cpuprofile to find what
// limits the engine-phase gap (a per-processor ownership scan of the
// input, which buildLoads' one bucketing pass replaced, was found this
// way).
func BenchmarkEventsN256(b *testing.B) { benchRun(b, newBenchCase(b, ir.Jacobi(), 64, 256, 2, true)) }

// allocsPerRun is testing.AllocsPerRun that also reports the bytes: the
// mean mallocs and bytes of runs calls of f, on one P so no other
// goroutine's allocations are counted. A warm run follows one warm-up call
// of f; a cold one follows two collections, which empty the pools, so it
// starts from an empty workspace.
func allocsPerRun(runs int, cold bool, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if !cold {
		f()
	}
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		if cold {
			runtime.GC()
			runtime.GC()
		}
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		allocs += float64(after.Mallocs - before.Mallocs)
		bytes += float64(after.TotalAlloc - before.TotalAlloc)
	}
	return allocs / float64(runs), bytes / float64(runs)
}

// TestRunAllocBudget gates what one Run allocates, cold — on an empty
// workspace and empty machine tables — and warm, the second Run of the
// same case, each budget ~10 % above the measured figure. Under -race
// sync.Pool drops a quarter of what is put back, so a warm run is cold
// that often, and both arms are held to the cold race figure. A warm Run
// allocates what it returns — Values, Stats (PerProc and the per-peer
// lists) and Segments — and what validate makes (the program's
// lowering): gauss m=32 N=16 makes 212 allocations of 122 kB and jacobi
// m=32 N=1024 71 of 201 kB, against 2.71 and 2.56 MB while every run
// built its workspace anew. Cold, they make 732 of 2.68 MB and 545 of
// 2.84 MB; under -race 1 129 of 2.70 MB and 2 019 of 2.94 MB. They made
// 749 of 2.72 MB and 556 of 2.85 MB cold while the inspector kept three
// bit-planes over the ranks per touched element beside its position rows
// and the lowering carved its references in chunks of 64.
//
// Before the workspace, Gauss (dmbench's exec-gauss case) made 1 046 allocations of
// 2.71 MB — 2 631 and 2.73 MB while the assembly of Values
// made one string per element key and grew each array's map, 4 478 and
// 2.87 MB while the epoch plans,
// reduction roles, owner lists, position rows, pending lists and input
// buckets were nested slices, pointers and maps, 13 703 and 3.04 MB while
// the machine allocated
// per message (a payload copy per send, a queue, a map entry and a first
// queue slot per pair, a tally slot per peer, a snapshot per processor)
// and the layouts allocated three slices per element's owner list,
// 13 750 while each processor was a goroutine,
// 14 561 and 3.13 MB while each processor's
// instruction stream grew on its own, its executor state was allocated in
// six pieces inside the machine and its reduction peers were maps; 20 456
// and 5.94 MB while the executor re-evaluated every operand's subscripts
// against a per-instance loop-vector arena and read buffered copies out of
// per-origin maps, and the arenas grew by append's quarters (52 601 and
// 7.02 MB while each of its 498 epochs was lowered through a dozen fresh
// maps and input keys were split into fresh slices, 155 286 before the
// nests were lowered, 65 944 before ranksFor filled its result in place,
// 52 736 and 9.12 MB while the inspector also recorded every per-element
// event for a stats replay). Jacobi on 1024 processors (exec-scale) made
// 682 allocations of 2.56 MB — 1 760 and 2.55 MB before the Values keys
// were sliced from one buffer per array, 6 980 and 3.32 MB before the plan and
// the executors' state were flat arrays, 20 873 and 3.64 MB before the
// machine's
// message path and the layouts' owner lists stopped allocating and the
// epoch's plan carved only the rounds a rank talks in, 24 862 and 3.96 MB
// while each processor
// was a goroutine with a channel, 44 906 and 4.54 MB before the inspector
// sized every processor's executor state, ~53 910 and 5.25 MB before
// operands were resolved once, 65 060 and 5.50 MB before the epoch
// lowering was slab-allocated, 103 200 and 17.5 MB while every processor
// held a dense copy of every array it touched, 67 480 and 6.24 MB with the
// replay record. A trip of this gate is a per-message, per-instance,
// per-epoch or per-processor allocation creeping back, or a piece of the
// workspace no longer reused, not noise.
func TestRunAllocBudget(t *testing.T) {
	for _, c := range []struct {
		name string
		run  benchCase
		// allocations and bytes of a cold and a warm run, and of a run under
		// -race, where a warm run can only be held to the cold figure.
		cold, warm, race [2]float64
	}{
		{"gauss m=32 N=16", newBenchCase(t, ir.Gauss(), 32, 16, 1, false), [2]float64{800, 2.95e6}, [2]float64{240, 1.34e5}, [2]float64{1230, 2.97e6}},
		{"jacobi m=32 N=1024", newBenchCase(t, ir.Jacobi(), 32, 1024, 2, true), [2]float64{580, 3.13e6}, [2]float64{85, 2.21e5}, [2]float64{2200, 3.23e6}},
	} {
		for _, arm := range []struct {
			name   string
			cold   bool
			budget [2]float64
		}{{"cold", true, c.cold}, {"warm", false, c.warm}} {
			if raceEnabled {
				arm.budget = c.race
			}
			allocs, bytes := allocsPerRun(5, arm.cold, func() { c.run.run(t) })
			t.Logf("%s Run(%s): %.0f allocations of %.0f bytes, budget %.0f and %.0f", arm.name, c.name, allocs, bytes, arm.budget[0], arm.budget[1])
			if allocs > arm.budget[0] || bytes > arm.budget[1] {
				t.Errorf("a %s Run(%s) made %.0f allocations of %.0f bytes, budget %.0f and %.0f", arm.name, c.name, allocs, bytes, arm.budget[0], arm.budget[1])
			}
		}
	}

	// Per epoch: with its scratch grown, lowering an epoch into a plan whose
	// arrays have room allocates nothing, whatever its pair count (a chunk
	// of a plan slab ran out every few epochs, six allocations, while the
	// plan was carved from slabs; a map entry per element before that). The
	// epochs ship one element on each of the first pairs of 64 ranks and
	// one element per source on all of its pairs, so the residual round
	// and the trees both run. The last one spreads its ranks up to 4,095:
	// the rank index grows once, in the warm-up, not per epoch.
	epoch := func(pairs int) []epochShip {
		var traffic []epochShip
		for i := range pairs {
			src, dst := int32(i/63), int32(i%63)
			if dst >= src {
				dst++
			}
			k := pairKey(src, dst)
			traffic = append(traffic, epochShip{k, mkElem(0, i)}, epochShip{k, mkElem(1, int(src))})
		}
		return traffic
	}
	sparse := epoch(4000)
	for i, sh := range sparse {
		sparse[i].k = pairKey(int32(sh.k>>32)*65, int32(sh.k)*65)
	}
	low, plan := &lowering{}, &redistPlan{}
	low.lower(epoch(4000), plan)
	for _, c := range []struct {
		name    string
		traffic []epochShip
	}{{"1 pair", epoch(1)}, {"5 pairs", epoch(5)}, {"64 pairs", epoch(64)}, {"500 pairs", epoch(500)},
		{"4000 pairs", epoch(4000)}, {"4000 pairs over ranks to 4095", sparse}} {
		if allocs := testing.AllocsPerRun(20, func() { plan.reset(); low.lower(c.traffic, plan) }); allocs > 0 {
			t.Errorf("lowering an epoch of %s made %.0f allocations, want none", c.name, allocs)
		}
	}
	at := &low.at[0]
	low.lower(epoch(5), plan)
	low.lower(sparse, plan)
	if &low.at[0] != at {
		t.Error("the rank index, grown to every rank, was allocated again")
	}
}

// goroutineTracer samples runtime.NumGoroutine at every trace event and
// keeps the largest count it saw.
type goroutineTracer struct{ peak int }

func (g *goroutineTracer) Record(machine.Event) { g.peak = max(g.peak, runtime.NumGoroutine()) }

// TestRunStartsNoProcessorGoroutines: Run's executors are steps of the
// machine, called on Run's goroutine, so no simulated processor gets a
// goroutine of its own. Jacobi on 1,024 processors samples the count at
// every trace event; it stayed about 1,024 above the count before Run
// while each processor was a coroutine.
func TestRunStartsNoProcessorGoroutines(t *testing.T) {
	c := newBenchCase(t, ir.Jacobi(), 32, 1024, 2, true)
	before := runtime.NumGoroutine()
	tr := &goroutineTracer{}
	cfg := machine.DefaultConfig()
	cfg.Tracer = tr
	if _, err := Run(c.p, c.ss, c.bind, nil, c.iters, cfg, c.input); err != nil {
		t.Fatal(err)
	}
	if tr.peak == 0 {
		t.Fatal("the tracer saw no event")
	}
	if tr.peak > before+4 {
		t.Fatalf("%d goroutines during Run, %d before it: the processors run as goroutines", tr.peak, before)
	}
}
