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
	"dmcc/internal/parse"
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
	prog, err := parse.Parse(string(src))
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

	// Inputs.
	a, b, _ := matrix.DiagonallyDominant(m, 11)
	x0 := make([]float64, m)
	input := ir.NewStorage(prog)
	for i := 1; i <= m; i++ {
		for j := 1; j <= m; j++ {
			input.Store("A", []int{i, j}, a.At(i-1, j-1))
		}
		input.Store("B", []int{i}, b[i-1])
		input.Store("X", []int{i}, 0)
	}
	scalars := map[string]float64{"OMEGA": omega}

	// Execute the compiled program with the naive backend: the per-element
	// engine, one message per remote operand.
	_, ss, err := compiler.SegmentCost(1, len(prog.Nests))
	if err != nil {
		log.Fatal(err)
	}
	res, err := exec.RunExact(prog, ss, map[string]int{"m": m}, scalars, iters, machine.DefaultConfig(), input)
	if err != nil {
		log.Fatal(err)
	}

	// The hand-pipelined Fig 6 kernel computes the same values.
	pip, err := kernels.SORPipelined(machine.DefaultConfig(), a, b, x0, omega, iters, n)
	if err != nil {
		log.Fatal(err)
	}
	want := matrix.SORSeq(a, b, x0, omega, iters)
	got := make([]float64, m)
	for i := 1; i <= m; i++ {
		got[i-1] = res.Values.Load(ir.R("X", ir.Const(i)), []int{i})
	}
	fmt.Printf("naive backend:    makespan %.0f, %d msgs (per-element transfers + reductions)\n",
		res.Stats.ParallelTime, res.Stats.Messages)
	fmt.Printf("Fig 6 pipeline:   makespan %.0f, %d msgs\n",
		pip.Stats.ParallelTime, pip.Stats.Messages)
	fmt.Printf("pipelining gain:  %.2fx\n", res.Stats.ParallelTime/pip.Stats.ParallelTime)
	fmt.Printf("max |naive - sequential|    = %.3g\n", matrix.MaxAbsDiff(got, want))
	fmt.Printf("max |pipeline - sequential| = %.3g\n", matrix.MaxAbsDiff(pip.X, want))
}
