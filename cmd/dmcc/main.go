// Command dmcc runs the full compile pipeline of the paper on one of the
// built-in Do-loop programs: component affinity graph, alignment, the
// dynamic programming algorithm over the loop sequence, the dependence
// analysis and pipelining decision, and the generated SPMD code.
//
// Usage:
//
//	dmcc -prog jacobi|sor|gauss|matmul [-m 64] [-n 8] [-j 4]
//	dmcc -file testdata/jacobi.f [-m 64] [-n 8]
//	dmcc -prog jacobi -exec      also execute the compiled program on the
//	                             simulated machine (seeded system, checked
//	                             against the sequential interpreter)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"dmcc/internal/cli"
	"dmcc/internal/codegen"
	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/dep"
	"dmcc/internal/exec"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
	"dmcc/internal/report"
)

func main() {
	prog := flag.String("prog", "jacobi", "program to compile: jacobi, sor, gauss, matmul")
	file := flag.String("file", "", "compile a Do-loop source file instead of a built-in program")
	m := flag.Int("m", 64, "problem size")
	n := flag.Int("n", 8, "total processors")
	doExec := flag.Bool("exec", false, "execute the compiled program on the simulated machine and verify")
	jobs := flag.Int("j", 0, "cost-engine worker count (0 = all CPUs, 1 = serial)")
	engine := flag.String("engine", "fast", "cost engine: fast (closed-form counting, reference enumeration for declined nests) or prechange (the oracle: exact everything, no caches)")
	flag.Parse()

	// Validate flag values upfront so a typo is a usage error (exit 2),
	// not a mid-pipeline runtime failure.
	if err := applyEngine(&core.Compiler{}, *engine); err != nil {
		cli.Usage("dmcc", err)
	}
	if *m < 1 || *n < 1 {
		cli.Usage("dmcc", fmt.Errorf("-m %d -n %d: a size or processor count below 1", *m, *n))
	}
	var p *ir.Program
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		p, err = ir.Parse(string(src))
		if err != nil {
			fatal(err)
		}
	} else if p, _ = ir.Builtin(*prog); p == nil {
		cli.Usage("dmcc", fmt.Errorf("unknown program %q", *prog))
	}
	if err := run(p, *m, *n, *jobs, *engine); err != nil {
		fatal(err)
	}
	if *doExec {
		if err := execute(p, *m, *n); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	cli.Fail("dmcc", err)
}

// applyEngine configures the compiler's cost engine: the production
// closed-form path or the exact-everything oracle it is tested against.
func applyEngine(c *core.Compiler, engine string) error {
	switch engine {
	case "fast":
	case "prechange":
		c.ExactNestCount = true
		c.ExactChangeCost = true
		c.NoCache = true
	default:
		return fmt.Errorf("unknown engine %q (want fast or prechange)", engine)
	}
	return nil
}

// execute runs the compiled program on the simulated machine through the
// exec harness (seeded diagonally dominant system) and checks the result
// against the sequential IR interpreter.
func execute(p *ir.Program, m, n int) error {
	c := exec.Case{Prog: p, M: m, N: n, Iters: 3, Scalars: map[string]float64{"OMEGA": 1.2}, Seed: 7}
	ss, err := c.Schemes()
	if err != nil {
		return err
	}
	res, err := c.Run(machine.DefaultConfig())
	if err != nil {
		return err
	}
	maxDiff, err := c.Check(res)
	if err != nil {
		return err
	}
	fmt.Printf("-- executed on the simulated machine (%s, %d iteration(s)) --\n", ss.Grid, c.Iterations())
	fmt.Printf("  simulated makespan %.0f, %d messages, %d words\n",
		res.Stats.ParallelTime, res.Stats.Messages, res.Stats.Words)
	fmt.Printf("  max |parallel - sequential interpreter| = %.3g\n", maxDiff)
	if !(maxDiff <= 1e-9) {
		return fmt.Errorf("execution diverged from the sequential interpreter by %g", maxDiff)
	}
	return nil
}

func run(p *ir.Program, m, n, jobs int, engine string) error {
	fmt.Printf("=== compiling %s for %d processors (m=%d) ===\n\n", p.Name, n, m)

	bind, err := p.BindSize(m)
	if err != nil {
		return err
	}
	c := core.NewCompiler(p, cost.Unit(), bind, n)
	c.Jobs = jobs
	if err := applyEngine(c, engine); err != nil {
		return err
	}
	s, err := report.AffinityGraph("-- whole-program component affinity graph --", p, p.Nests, c.Weights)
	if err != nil {
		return err
	}
	fmt.Println(s)

	c.Engines = &core.EngineStats{}
	res, err := c.Compile()
	if err != nil {
		return err
	}
	// Telemetry goes to stderr so stdout stays a pure function of the
	// configuration.
	eng := c.Engines.Snapshot()
	fmt.Fprintf(os.Stderr, "dmcc: engines: analytic_hits=%d exact_fallbacks=%d nest_pricings=%d greedy_alignments=%d\n",
		eng["analytic_hits"], eng["exact_fallbacks"], eng["nest_pricings"], eng["greedy_alignments"])
	fmt.Println("-- Algorithm 1: minimum-cost order of distribution schemes --")
	for _, seg := range res.DP.Segments {
		fmt.Printf("  loops L%d..L%d: %s, segment cost %.0f, entry redistribution %.0f",
			seg.Start, seg.Start+seg.Len-1, seg.Schemes, seg.M, seg.ChangeIn)
		if method := seg.Schemes.Partition.Method; method != "exact" {
			// The affinity graph was past align.ExactMaxNodes.
			fmt.Printf(", alignment %s", method)
		}
		fmt.Println()
		names := make([]string, 0, len(seg.Schemes.Schemes))
		for name := range seg.Schemes.Schemes {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("    %-4s %s\n", name, seg.Schemes.Schemes[name])
		}
	}
	fmt.Printf("  loop-carried cost %.0f; total %.0f (whole-program baseline %.0f)\n\n",
		res.DP.LoopCarried, res.DP.MinimumCost, res.WholeProgramCost)

	fmt.Println("-- dependence analysis and pipelining decisions --")
	var plans []codegen.NestPlan
	byNest := map[string]dep.PipelineDecision{}
	for _, d := range res.Pipelining {
		byNest[d.Mapping.Nest] = d
		fmt.Printf("  nest %s: mapping %s, pipelinable=%v, travelling %v\n",
			d.Mapping.Nest, d.Mapping, d.CanPipeline, d.TravellingTokens)
	}
	cyclic := false
	for _, seg := range res.DP.Segments {
		if seg.Schemes.Cyclic {
			cyclic = true
		}
	}
	allPipelinable := true
	for _, nest := range p.Nests {
		d, ok := byNest[nest.Label]
		if !ok || !d.CanPipeline {
			allPipelinable = false
			continue
		}
		plans = append(plans, codegen.NestPlan{Nest: nest, Decision: d, Cyclic: cyclic})
	}
	fmt.Println()

	if allPipelinable && len(plans) == len(p.Nests) {
		code, err := codegen.Program(p, plans)
		if err != nil {
			return err
		}
		fmt.Printf("-- generated SPMD program --\n%s", code)
	} else {
		fmt.Println("-- codegen skipped: not every nest is pipelinable under the chosen mapping --")
	}
	return nil
}
