package exec

import (
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

// BenchmarkRunJacobi1024 is the machine-bound case of exec-scale: Jacobi
// m=32 on 1024 processors, two outer iterations.
func BenchmarkRunJacobi1024(b *testing.B) {
	benchRun(b, newBenchCase(b, ir.Jacobi(), 32, 1024, 2, true))
}

// BenchmarkEventsN256 is the profiling anchor for the event runtime:
// jacobi, m=64, N=256, compile excluded. Pair with -cpuprofile to find what
// limits the engine-phase gap (loadInput's per-processor ownership
// scan was found and removed this way).
func BenchmarkEventsN256(b *testing.B) { benchRun(b, newBenchCase(b, ir.Jacobi(), 64, 256, 2, true)) }

// gaussAllocBudget is ~10 % above the 65 944 allocations Run makes on the
// Gauss case (155 286 before the nests were lowered). The count repeats
// exactly run to run, so a trip of this gate is a per-instance allocation
// creeping back into the inspector or the executor, not noise.
const gaussAllocBudget = 72500

func TestRunAllocBudget(t *testing.T) {
	c := newBenchCase(t, ir.Gauss(), 32, 16, 1, false)
	if got := testing.AllocsPerRun(3, func() { c.run(t) }); got > gaussAllocBudget {
		t.Fatalf("Run(gauss m=32 N=16) made %.0f allocations, budget %d", got, gaussAllocBudget)
	}
}
