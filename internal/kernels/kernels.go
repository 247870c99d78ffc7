// Package kernels contains the executable SPMD programs the paper
// compiles: Jacobi iteration on all the candidate grids of Table 2 and
// the Section 4 row scheme, successive over-relaxation in both the naive
// (reduction per step) and the Fig 6 ring-pipelined form, Gauss
// elimination with broadcast and with the Fig 8 pipelined communication,
// and Cannon's matrix multiplication on the rotated layouts of Fig 1.
//
// Every kernel runs on the simulated machine (package machine), is
// verified numerically against its sequential reference (package matrix),
// and reports the machine's message/word/flop/makespan statistics so the
// benchmarks can compare communication schemes the way the paper does.
package kernels

import (
	"fmt"

	"dmcc/internal/grid"
	"dmcc/internal/machine"
)

// Result bundles a kernel's numeric output with the machine statistics of
// the run.
type Result struct {
	X     []float64
	Stats machine.Stats
}

// checkDivisible validates the block-distribution precondition m % n == 0
// shared by the kernels (the paper's examples all use divisible sizes).
func checkDivisible(m, n int, kernel string) error {
	if n < 1 {
		return fmt.Errorf("kernels: %s: need at least one processor, got %d", kernel, n)
	}
	if m%n != 0 {
		return fmt.Errorf("kernels: %s: problem size %d not divisible by %d processors", kernel, m, n)
	}
	return nil
}

// checkRing validates a ring kernel's processor count: at least one
// processor and no more than one per row (idle processors would only
// distort the statistics).
func checkRing(m, n int) error {
	if n < 1 {
		return fmt.Errorf("kernels: need at least one processor, got %d", n)
	}
	if n > m {
		return fmt.Errorf("kernels: %d processors for %d rows leaves idle processors", n, m)
	}
	return nil
}

// solve runs body on every processor of g and returns the m-vector the
// processors wrote with the run's statistics. Processors write disjoint
// entries of out; Run returns only after every processor has finished,
// which orders all writes before the read of the final slice.
func solve(g *grid.Grid, cfg machine.Config, m int, body func(p *machine.Proc, out []float64)) (Result, error) {
	mach, err := machine.New(g, cfg)
	if err != nil {
		return Result{}, err
	}
	out := make([]float64, m)
	st, err := mach.Run(func(p *machine.Proc) { body(p, out) })
	if err != nil {
		return Result{}, err
	}
	return Result{X: out, Stats: st}, nil
}
