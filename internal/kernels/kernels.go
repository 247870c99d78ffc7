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

// disjointWriter collects per-processor results into one slice. Writers
// must use disjoint index ranges; Run returns only after every processor
// has finished, which orders all writes before the read of the final
// slice.
type disjointWriter struct {
	out []float64
}

func newDisjointWriter(n int) *disjointWriter {
	return &disjointWriter{out: make([]float64, n)}
}

func (w *disjointWriter) put(i int, v float64) { w.out[i] = v }
