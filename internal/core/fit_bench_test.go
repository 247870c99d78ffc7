package core_test

import (
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
	"dmcc/internal/sweep"
)

// kernelSources reads the paper kernels' Do-loop listings, the sources
// dmbench's compile-kernels op parses.
func kernelSources(tb testing.TB) []string {
	var srcs []string
	for _, name := range []string{"gauss", "jacobi", "sor"} {
		src, err := ir.Listing(name)
		if err != nil {
			tb.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	return srcs
}

var frozenSink *core.FrozenPlan

// BenchmarkPlanForKernels is compile-kernels' planning step on its own:
// parse, PlanFor (compile, then fit from base 128) and Freeze of gauss,
// jacobi and sor on 8 processors, serially. Profile it with -cpu 1,
// the GOMAXPROCS dmbench runs at.
func BenchmarkPlanForKernels(b *testing.B) {
	const baseM, n = 128, 8
	srcs := kernelSources(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			p, err := ir.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			c := core.NewCompiler(p, cost.Unit(), map[string]int{p.Params[0]: baseM}, n)
			c.Jobs = 1
			pe, _, _, err := sweep.PlanFor(c, baseM, sweep.Options{})
			if err != nil {
				b.Fatal(err)
			}
			frozenSink = pe.Freeze()
		}
	}
}
