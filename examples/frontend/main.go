// The complete pipeline in one example: parse the paper's SOR listing
// from source text, run the compiler (alignment + Algorithm 1 + the
// dependence analysis), execute the compiled program on the simulated
// machine with the naive backend, and compare its communication cost to
// the hand-pipelined Fig 6 kernel computing the same values.
package main

import (
	"fmt"
	"log"
	"os"

	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/exec"
	"dmcc/internal/ir"
	"dmcc/internal/kernels"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

func main() {
	const (
		m, n  = 24, 4
		omega = 1.2
		iters = 3
	)

	src, err := os.ReadFile("testdata/sor.f")
	if err != nil {
		log.Fatal(err)
	}
	prog, err := ir.Parse(string(src))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed %q: %d nest(s), arrays", prog.Name, len(prog.Nests))
	for _, d := range prog.AllDims() {
		if d.Dim == 0 {
			fmt.Printf(" %s", d.Array)
		}
	}
	fmt.Println()

	compiler := core.NewCompiler(prog, cost.Unit(), map[string]int{"m": m}, n)
	plan, err := compiler.Compile()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled: DP cost %.0f, pipelinable=%v\n",
		plan.DP.MinimumCost, plan.Pipelining[0].CanPipeline)

	// Execute the compiled program with the naive backend: the per-element
	// engine, one message per remote operand, on the exec harness's seeded
	// system, checked against the sequential interpreter.
	const seed = 11
	c := exec.Case{Prog: prog, M: m, N: n, Iters: iters, Scalars: map[string]float64{"OMEGA": omega}, Seed: seed}
	res, err := c.RunExact(machine.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	naiveDiff, err := c.Check(res)
	if err != nil {
		log.Fatal(err)
	}

	// The hand-pipelined Fig 6 kernel computes the same values from the
	// same system: A = a, B = X = b.
	a, b, _ := matrix.DiagonallyDominant(m, seed)
	pip, err := kernels.SORPipelined(machine.DefaultConfig(), a, b, b, omega, iters, n)
	if err != nil {
		log.Fatal(err)
	}
	want := matrix.SORSeq(a, b, b, omega, iters)
	fmt.Printf("naive backend:    makespan %.0f, %d msgs (per-element transfers + reductions)\n",
		res.Stats.ParallelTime, res.Stats.Messages)
	fmt.Printf("Fig 6 pipeline:   makespan %.0f, %d msgs\n",
		pip.Stats.ParallelTime, pip.Stats.Messages)
	fmt.Printf("pipelining gain:  %.2fx\n", res.Stats.ParallelTime/pip.Stats.ParallelTime)
	fmt.Printf("max |naive - sequential|    = %.3g\n", naiveDiff)
	fmt.Printf("max |pipeline - sequential| = %.3g\n", matrix.MaxAbsDiff(pip.X, want))
}
