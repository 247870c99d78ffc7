package exec

import (
	"fmt"
	"math"
	"slices"

	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

// Case is one run of a compiled program on the simulated machine. It is
// the one place that decides what the machine runs — the compiled plan,
// its segments joined by their scheme changes — what the arrays hold when
// it starts, and what its result is checked against; the tools, the
// sweeps, the report and the examples run programs through it. Its
// methods share one analysis of the program at M (core.Analysis), built
// on first use, after which Prog and M must not change; use a Case from
// one goroutine.
type Case struct {
	Prog *ir.Program
	// M binds the program's size parameter (Program.BindSize); N is the
	// number of processors.
	M, N int
	// Iters is the trip count of the outer iterative loop; a
	// non-iterative program runs once (Iterations).
	Iters   int
	Scalars map[string]float64
	// Seed draws the input system (Input).
	Seed int64

	an *core.Analysis
}

// analysis is the program analysed at M, built on the first call.
func (c *Case) analysis() (*core.Analysis, error) {
	if c.an != nil {
		return c.an, nil
	}
	bind, err := c.Prog.BindSize(c.M)
	if err == nil {
		c.an, err = core.Analyse(c.Prog, bind)
	}
	return c.an, err
}

// Iterations is the number of times the run executes the program's nests.
func (c *Case) Iterations() int {
	if !c.Prog.Iterative {
		return 1
	}
	return c.Iters
}

// Compiler is the compiler of the case's plan: the program under the unit
// cost model on N processors, reading the case's analysis.
func (c *Case) Compiler() (*core.Compiler, error) {
	an, err := c.analysis()
	if err != nil {
		return nil, err
	}
	return an.Compiler(cost.Unit(), c.N), nil
}

// Plan is the plan the machine runs: Compiler's compile, whose Algorithm 1
// segments Run and RunExact are given.
func (c *Case) Plan() (*core.CompileResult, error) {
	comp, err := c.Compiler()
	if err != nil {
		return nil, err
	}
	return comp.Compile()
}

// Input is the seeded initial state. Every declared array, in name order,
// holds every element inside its lowered extents: with (a, b) the
// diagonally dominant system matrix.DiagonallyDominant(e, Seed) draws for
// the array's largest extent e, a 2-D array holds a's leading block and a
// 1-D array b's leading elements. Arrays of one extent therefore share
// one system, which a hand-written kernel run beside the program can be
// given too.
func (c *Case) Input() (ir.Storage, error) {
	an, err := c.analysis()
	if err != nil {
		return nil, err
	}
	lw := an.Lowered()
	input := ir.NewStorage(c.Prog)
	for k, name := range lw.Names {
		ext := lw.Shapes[k]
		if len(ext) == 0 || len(ext) > 2 {
			return nil, fmt.Errorf("exec: array %s is %d-D; the seeded input fills 1-D and 2-D arrays", name, len(ext))
		}
		a, b, _ := matrix.DiagonallyDominant(slices.Max(ext), c.Seed)
		for i := 1; i <= ext[0]; i++ {
			if len(ext) == 1 {
				input.Store(name, []int{i}, b[i-1])
			}
			for j := 1; len(ext) == 2 && j <= ext[1]; j++ {
				input.Store(name, []int{i, j}, a.At(i-1, j-1))
			}
		}
	}
	return input, nil
}

// Run executes a plan of the case's program — Plan's segments, or any
// segmentation of its nests on N processors — from Input with the
// batched engine.
func (c *Case) Run(plan []core.Segment, cfg machine.Config) (Result, error) {
	return c.run(run, plan, cfg)
}

// RunExact executes a plan as Run does with the per-element reference
// engine.
func (c *Case) RunExact(plan []core.Segment, cfg machine.Config) (Result, error) {
	return c.run(runExact, plan, cfg)
}

func (c *Case) run(engine func(*ir.Lowered, []core.Segment, map[string]float64, int, machine.Config, ir.Storage) (Result, error),
	plan []core.Segment, cfg machine.Config) (Result, error) {

	input, err := c.Input()
	if err != nil {
		return Result{}, err
	}
	return engine(c.an.Lowered(), plan, c.Scalars, c.Iters, cfg, input) // Input analysed the program
}

// Check is the reference check of a run of the case: the largest
// |Values − ir.EvalProgram| over the elements of every array. An element
// only one side holds makes it +Inf; a NaN makes it NaN.
func (c *Case) Check(res Result) (float64, error) {
	ref, err := c.Input()
	if err != nil {
		return 0, err
	}
	if err := c.an.Lowered().Eval(ref, c.Scalars, c.Iters); err != nil { // Input analysed the program
		return 0, err
	}
	diff := 0.0
	for name, want := range ref {
		got := res.Values[name]
		if len(got) != len(want) {
			return math.Inf(1), nil
		}
		for key, v := range want {
			g, ok := got[key]
			if !ok {
				return math.Inf(1), nil
			}
			diff = max(diff, math.Abs(g-v))
		}
	}
	return diff, nil
}
