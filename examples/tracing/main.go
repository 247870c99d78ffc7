// Processor-idleness study: Section 1 observes that "the reduction step
// normally uses a lot of communication time and results in the idleness
// of processors". This example traces the naive and pipelined SOR
// implementations, prints their per-processor time breakdowns and Gantt
// charts, and shows the compiled five-point stencil's nearest-neighbour
// pattern for contrast.
package main

import (
	"fmt"
	"log"

	"dmcc/internal/exec"
	"dmcc/internal/ir"
	"dmcc/internal/kernels"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
	"dmcc/internal/trace"
)

func main() {
	const (
		m, n  = 32, 4
		iters = 1
	)
	a, b, _ := matrix.DiagonallyDominant(m, 5)
	x0 := make([]float64, m)

	run := func(title string, f func(cfg machine.Config) (kernels.Result, error)) {
		col := trace.New()
		cfg := machine.DefaultConfig()
		cfg.Tracer = col
		res, err := f(cfg)
		if err != nil {
			log.Fatal(err)
		}
		sum := trace.Summarize(col.Events(), n, res.Stats.ParallelTime)
		fmt.Printf("== %s ==\n%s", title, sum)
		fmt.Print(trace.Gantt(col.Events(), n, res.Stats.ParallelTime, 96))
		fmt.Println()
	}

	run("SOR, naive reduction per step (Section 5's naive algorithm)",
		func(cfg machine.Config) (kernels.Result, error) {
			return kernels.SORNaive(cfg, a, b, x0, 1.2, iters, n)
		})
	run("SOR, Fig 6 ring pipeline",
		func(cfg machine.Config) (kernels.Result, error) {
			return kernels.SORPipelined(cfg, a, b, x0, 1.2, iters, n)
		})
	run("five-point stencil, compiled (neighbour-only communication)",
		func(cfg machine.Config) (kernels.Result, error) {
			c := exec.Case{Prog: ir.Stencil(), M: m, N: n, Iters: 2, Seed: 7}
			plan, err := c.Plan()
			if err != nil {
				return kernels.Result{}, err
			}
			res, err := c.Run(plan.DP.Segments, cfg)
			return kernels.Result{Stats: res.Stats}, err
		})
}
