// Command dmcc runs the full compile pipeline of the paper on one of the
// built-in Do-loop programs: component affinity graph, alignment, the
// dynamic programming algorithm over the loop sequence, the dependence
// analysis and pipelining decision, and the generated SPMD code.
//
// Usage:
//
//	dmcc -prog jacobi|sor|gauss|matmul [-m 64] [-n 8]
//	dmcc -file testdata/jacobi.f [-m 64] [-n 8]
//	dmcc -prog jacobi -exec      also execute the compiled program on the
//	                             simulated machine (seeded system, checked
//	                             against the sequential interpreter)
//	dmcc -prog jacobi -exec -trace
//	                             and print the run's per-processor time
//	                             breakdown and Gantt chart
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"dmcc/internal/cli"
	"dmcc/internal/codegen"
	"dmcc/internal/core"
	"dmcc/internal/exec"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
	"dmcc/internal/report"
	"dmcc/internal/trace"
)

func main() {
	prog := flag.String("prog", "jacobi", "program to compile: jacobi, sor, gauss, matmul")
	file := flag.String("file", "", "compile a Do-loop source file instead of a built-in program")
	m := flag.Int("m", 64, "problem size")
	n := flag.Int("n", 8, "total processors")
	doExec := flag.Bool("exec", false, "execute the compiled program on the simulated machine and verify")
	doTrace := flag.Bool("trace", false, "with -exec: print the run's per-processor time breakdown and Gantt chart")
	flag.Parse()

	// Validate flag values upfront so a typo is a usage error (exit 2),
	// not a mid-pipeline runtime failure.
	if *m < 1 || *n < 1 {
		cli.Usage("dmcc", fmt.Errorf("-m %d -n %d: a size or processor count below 1", *m, *n))
	}
	if *doTrace && !*doExec {
		cli.Usage("dmcc", fmt.Errorf("-trace traces the run of -exec"))
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
	c := caseOf(p, *m, *n)
	plan, err := run(c)
	if err != nil {
		fatal(err)
	}
	if *doExec {
		if err := execute(c, plan, *doTrace); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	cli.Fail("dmcc", err)
}

// caseOf is the exec case dmcc compiles and, under -exec, runs.
func caseOf(p *ir.Program, m, n int) *exec.Case {
	return &exec.Case{Prog: p, M: m, N: n, Iters: 3, Scalars: map[string]float64{"OMEGA": 1.2}, Seed: 7}
}

// execute runs the compiled plan on the simulated machine through the
// exec harness (seeded diagonally dominant system) and checks the result
// against the sequential IR interpreter. It prints the plan the run
// executed: one line per segment, with the words of the scheme change
// into it, under it one line per nest with what one execution of the nest
// did (exec.NestCount), the change an iterative program crosses at the
// iteration boundary, and what the machine moved and held; with doTrace,
// the run's per-processor time breakdown and Gantt chart. The host walls
// of the run's phases go to stderr.
func execute(c *exec.Case, plan *core.CompileResult, doTrace bool) error {
	p := c.Prog
	cfg := machine.DefaultConfig()
	var col *trace.Collector
	if doTrace {
		col = trace.New()
		cfg.Tracer = col
	}
	res, err := c.Run(plan.DP.Segments, cfg)
	if err != nil {
		return err
	}
	maxDiff, err := c.Check(res)
	if err != nil {
		return err
	}
	segs := res.Segments
	fmt.Printf("-- executed on the simulated machine (%d segment(s), %d iteration(s)) --\n", len(segs), c.Iterations())
	for k, seg := range segs {
		fmt.Printf("  loops L%d..L%d on %s", seg.Start, seg.Start+seg.Len-1, seg.Grid)
		if k > 0 {
			fmt.Printf(", entry change %d words", seg.ChangeWords)
		}
		fmt.Println()
		for t, nc := range seg.Nests {
			fmt.Printf("    %s: %d flops (+%d combine); words %d remote, %d partial, %d fan-out, %d on the wire\n",
				p.Nests[seg.Start-1+t].Label, nc.TotalFlops, nc.CombineFlops, nc.RemoteWords, nc.ReduceWords, nc.FanoutWords, nc.Words)
		}
	}
	if p.Iterative && len(segs) > 1 {
		last := segs[len(segs)-1]
		fmt.Printf("  iteration boundary L%d -> L1: change of %d words, crossed %d time(s)\n",
			last.Start+last.Len-1, segs[0].ChangeWords, c.Iterations()-1)
	}
	st := res.Stats
	fmt.Printf("  simulated makespan %.0f, %d messages, %d words\n", st.ParallelTime, st.Messages, st.Words)
	fmt.Printf("  largest message %d words; stores hold %d words, at most %d on one processor\n",
		st.MaxMsgWords, res.StoreWords, res.MaxProcStoreWords)
	fmt.Printf("  busiest pair: %d messages, %d words\n", st.MaxPairMessages, st.MaxPairWords)
	fmt.Fprintf(os.Stderr, "dmcc: wall: inspect %v, machine %v, assemble %v\n",
		res.InspectWall.Round(time.Microsecond), res.SimWall.Round(time.Microsecond), res.AssembleWall.Round(time.Microsecond))
	fmt.Printf("  max |parallel - sequential interpreter| = %.3g\n", maxDiff)
	if col != nil {
		events := col.Events()
		fmt.Print(trace.Summarize(events, c.N, st.ParallelTime))
		fmt.Print(trace.Gantt(events, c.N, st.ParallelTime, 100))
	}
	if !(maxDiff <= 1e-9) {
		return fmt.Errorf("execution diverged from the sequential interpreter by %g", maxDiff)
	}
	return nil
}

// run compiles the case's program, the plan execute runs, and prints the
// compile: the affinity graph, the Algorithm 1 segments, the pipelining
// decisions and the SPMD listing.
func run(cs *exec.Case) (*core.CompileResult, error) {
	p := cs.Prog
	fmt.Printf("=== compiling %s for %d processors (m=%d) ===\n\n", p.Name, cs.N, cs.M)

	c, err := cs.Compiler()
	if err != nil {
		return nil, err
	}
	g, err := c.AffinityGraph()
	if err != nil {
		return nil, err
	}
	s, err := report.AffinityGraph("-- whole-program component affinity graph --", g)
	if err != nil {
		return nil, err
	}
	fmt.Println(s)

	c.Engines = &core.EngineStats{}
	res, err := c.Compile()
	if err != nil {
		return nil, err
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
	for _, d := range res.Pipelining {
		fmt.Printf("  nest %s: mapping %s, pipelinable=%v, travelling %v\n",
			d.Mapping.Nest, d.Mapping, d.CanPipeline, d.TravellingTokens)
	}
	fmt.Println()

	if code, err := codegen.Program(p, res); err != nil {
		fmt.Printf("-- SPMD program skipped: %v --\n", err)
	} else {
		fmt.Printf("-- generated SPMD program --\n%s", code)
	}
	return res, nil
}
