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
// the one place that decides which schemes the machine runs, what the
// arrays hold when it starts, and what its result is checked against;
// the tools, the sweeps, the report and the examples run programs
// through it.
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
}

func (c Case) bind() (map[string]int, error) { return c.Prog.BindSize(c.M) }

// Iterations is the number of times the run executes the program's nests.
func (c Case) Iterations() int {
	if !c.Prog.Iterative {
		return 1
	}
	return c.Iters
}

// Schemes is the scheme set the machine runs: the compiler's M[1][s],
// Section 3's whole-program scheme.
func (c Case) Schemes() (*core.SchemeSet, error) {
	bind, err := c.bind()
	if err != nil {
		return nil, err
	}
	_, ss, err := core.NewCompiler(c.Prog, cost.Unit(), bind, c.N).SegmentCost(1, len(c.Prog.Nests))
	return ss, err
}

// Input is the seeded initial state. Every declared array, in name order,
// holds every element inside its lowered extents: with (a, b) the
// diagonally dominant system matrix.DiagonallyDominant(e, Seed) draws for
// the array's largest extent e, a 2-D array holds a's leading block and a
// 1-D array b's leading elements. Arrays of one extent therefore share
// one system, which a hand-written kernel run beside the program can be
// given too.
func (c Case) Input() (ir.Storage, error) {
	bind, err := c.bind()
	if err != nil {
		return nil, err
	}
	lw, err := c.Prog.Lower(bind)
	if err != nil {
		return nil, err
	}
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

// Run executes the case with the batched engine (the package's Run).
func (c Case) Run(cfg machine.Config) (Result, error) { return c.run(Run, cfg) }

// RunExact executes the case with the per-element reference engine.
func (c Case) RunExact(cfg machine.Config) (Result, error) { return c.run(RunExact, cfg) }

func (c Case) run(engine func(*ir.Program, *core.SchemeSet, map[string]int, map[string]float64, int, machine.Config, ir.Storage) (Result, error),
	cfg machine.Config) (Result, error) {

	ss, err := c.Schemes()
	if err != nil {
		return Result{}, err
	}
	input, err := c.Input()
	if err != nil {
		return Result{}, err
	}
	bind, _ := c.bind() // Schemes bound it
	return engine(c.Prog, ss, bind, c.Scalars, c.Iters, cfg, input)
}

// Check is the reference check of a run of the case: the largest
// |Values − ir.EvalProgram| over the elements of every array. An element
// only one side holds makes it +Inf; a NaN makes it NaN.
func (c Case) Check(res Result) (float64, error) {
	ref, err := c.Input()
	if err != nil {
		return 0, err
	}
	bind, _ := c.bind() // Input bound it
	if err := ir.EvalProgram(c.Prog, bind, ref, c.Scalars, c.Iters); err != nil {
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
