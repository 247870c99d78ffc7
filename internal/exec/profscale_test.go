package exec

import (
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

// BenchmarkEventsN256 is the profiling anchor for the event runtime:
// jacobi, m=64, N=256, compile excluded. Pair with -cpuprofile to find what
// limits the engine-phase gap (loadInput's per-processor ownership
// scan was found and removed this way).
func BenchmarkEventsN256(b *testing.B) {
	m, n := 64, 256
	p := ir.Jacobi()
	c := core.NewCompiler(p, cost.Unit(), map[string]int{"m": m}, n)
	_, ss, err := c.SegmentCost(1, len(p.Nests))
	if err != nil {
		b.Fatal(err)
	}
	a, bb, _ := matrix.DiagonallyDominant(m, 1)
	input := ir.NewStorage(p)
	for i := 1; i <= m; i++ {
		for j := 1; j <= m; j++ {
			input.Store("A", []int{i, j}, a.At(i-1, j-1))
		}
		input.Store("B", []int{i}, bb[i-1])
		input.Store("X", []int{i}, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, ss, map[string]int{"m": m}, nil, 2, machine.DefaultConfig(), input); err != nil {
			b.Fatal(err)
		}
	}
}
