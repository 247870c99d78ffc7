// Command dmrun executes a kernel on the simulated distributed memory
// machine, verifies the result against the sequential reference, and
// prints the machine statistics.
//
// Usage:
//
//	dmrun -kernel jacobi      -m 64 -n 8 -n2 1 -iters 10
//	dmrun -kernel sor         -m 64 -n 8 -iters 10 [-naive]
//	dmrun -kernel gauss       -m 64 -n 8 [-broadcast]
//	dmrun -kernel cannon      -m 64 -n 4            (n = grid side q)
//	dmrun -kernel jacobi -exec -m 64 -n 8 -iters 10  (IR program through the
//	                                                  exec backend with
//	                                                  compiler-chosen schemes)
//	flags: -overlap (comm/comp overlap), -async (asynchronous collectives),
//	       -trace (per-processor time breakdown + Gantt chart),
//	       -cpuprofile / -memprofile (write pprof profiles)
package main

import (
	"flag"
	"fmt"
	"time"

	"dmcc/internal/cli"
	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/exec"
	"dmcc/internal/ir"
	"dmcc/internal/kernels"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
	"dmcc/internal/trace"
)

func main() {
	kernel := flag.String("kernel", "jacobi", "jacobi, sor, gauss, cannon")
	m := flag.Int("m", 64, "problem size")
	n := flag.Int("n", 8, "processors (first grid dimension; cannon: grid side)")
	n2 := flag.Int("n2", 1, "second grid dimension (jacobi)")
	iters := flag.Int("iters", 10, "iterations (jacobi, sor)")
	naive := flag.Bool("naive", false, "SOR: reduction-per-step instead of pipeline")
	broadcast := flag.Bool("broadcast", false, "gauss: multicast instead of pipeline")
	execBackend := flag.Bool("exec", false, "run the IR program through the exec backend (jacobi, sor, gauss)")
	overlap := flag.Bool("overlap", false, "overlap communication with computation")
	async := flag.Bool("async", false, "asynchronous collectives instead of the paper's synchronous model")
	doTrace := flag.Bool("trace", false, "print per-processor time breakdown and Gantt chart")
	seed := flag.Int64("seed", 1, "system generator seed")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// Validate flag values upfront: a typo is a usage error (exit 2),
	// not a runtime failure (exit 1).
	switch *kernel {
	case "jacobi", "sor", "gauss", "cannon":
	default:
		cli.Usage("dmrun", fmt.Errorf("unknown kernel %q (want jacobi, sor, gauss or cannon)", *kernel))
	}
	if *m < 1 || *n < 1 || *n2 < 1 {
		cli.Usage("dmrun", fmt.Errorf("-m %d -n %d -n2 %d: a size or processor count below 1", *m, *n, *n2))
	}

	stopProf, err := cli.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		cli.Fail("dmrun", err)
	}
	defer stopProf()

	cfg := machine.DefaultConfig()
	cfg.Overlap = *overlap
	if *async {
		cfg.SyncCollectives = false
	}
	var col *trace.Collector
	if *doTrace {
		col = trace.New()
		cfg.Tracer = col
	}

	if *execBackend {
		err = runExec(*kernel, cfg, *m, *n, *iters, *seed)
	} else {
		err = run(*kernel, cfg, *m, *n, *n2, *iters, *naive, *broadcast, *seed)
	}
	if err != nil {
		stopProf()
		cli.Fail("dmrun", err)
	}
	if col != nil {
		events := col.Events()
		nprocs := *n * *n2
		if *kernel == "cannon" {
			nprocs = *n * *n
		}
		if *kernel == "sor" || *kernel == "gauss" || *execBackend {
			nprocs = *n
		}
		makespan := 0.0
		for _, e := range events {
			if e.End > makespan {
				makespan = e.End
			}
		}
		sum := trace.Summarize(events, nprocs, makespan)
		fmt.Print(sum)
		fmt.Print(trace.Gantt(events, nprocs, makespan, 100))
	}
}

func run(kernel string, cfg machine.Config, m, n, n2, iters int, naive, broadcast bool, seed int64) error {
	switch kernel {
	case "jacobi":
		a, b, _ := matrix.DiagonallyDominant(m, seed)
		x0 := make([]float64, m)
		res, err := kernels.JacobiGrid(cfg, a, b, x0, iters, n, n2)
		if err != nil {
			return err
		}
		ref := matrix.JacobiSeq(a, b, x0, iters)
		report(fmt.Sprintf("jacobi %dx%d grid, %d iters", n, n2, iters), res.Stats, matrix.MaxAbsDiff(res.X, ref))
	case "sor":
		a, b, _ := matrix.DiagonallyDominant(m, seed)
		x0 := make([]float64, m)
		var res kernels.Result
		var err error
		variant := "pipelined"
		if naive {
			variant = "naive"
			res, err = kernels.SORNaive(cfg, a, b, x0, 1.2, iters, n)
		} else {
			res, err = kernels.SORPipelined(cfg, a, b, x0, 1.2, iters, n)
		}
		if err != nil {
			return err
		}
		ref := matrix.SORSeq(a, b, x0, 1.2, iters)
		report(fmt.Sprintf("sor (%s) ring of %d, %d sweeps", variant, n, iters), res.Stats, matrix.MaxAbsDiff(res.X, ref))
	case "gauss":
		a, b, _ := matrix.DiagonallyDominant(m, seed)
		var res kernels.Result
		var err error
		variant := "pipelined"
		if broadcast {
			variant = "broadcast"
			res, err = kernels.GaussBroadcast(cfg, a, b, n)
		} else {
			res, err = kernels.GaussPipelined(cfg, a, b, n)
		}
		if err != nil {
			return err
		}
		ref := matrix.GaussSeq(a, b)
		report(fmt.Sprintf("gauss (%s) ring of %d", variant, n), res.Stats, matrix.MaxAbsDiff(res.X, ref))
	case "cannon":
		bm := matrix.RandomDense(m, m, seed)
		cm := matrix.RandomDense(m, m, seed+1)
		got, st, err := kernels.Cannon(cfg, bm, cm, n)
		if err != nil {
			return err
		}
		ref := bm.Mul(cm)
		report(fmt.Sprintf("cannon %dx%d grid", n, n), st, matrix.MaxAbsDiff(got.Data, ref.Data))
	default:
		return fmt.Errorf("unknown kernel %q", kernel)
	}
	return nil
}

// runExec compiles the kernel's IR program (whole-program schemes via
// Algorithm 1's segment cost), executes it on the batched exec backend,
// verifies against the sequential reference, and reports what the
// vectored transport moved on the simulated machine.
func runExec(kernel string, cfg machine.Config, m, n, iters int, seed int64) error {
	a, b, _ := matrix.DiagonallyDominant(m, seed)
	var p *ir.Program
	var scalars map[string]float64
	var x0, ref []float64
	switch kernel {
	case "jacobi":
		p = ir.Jacobi()
		x0 = make([]float64, m)
		ref = matrix.JacobiSeq(a, b, x0, iters)
	case "sor":
		p = ir.SOR()
		scalars = map[string]float64{"OMEGA": 1.2}
		x0 = make([]float64, m)
		ref = matrix.SORSeq(a, b, x0, 1.2, iters)
	case "gauss":
		p = ir.Gauss()
		iters = 1
		ref = matrix.GaussSeq(a, b)
	default:
		return fmt.Errorf("-exec supports jacobi, sor and gauss (got %q)", kernel)
	}
	c := core.NewCompiler(p, cost.Unit(), map[string]int{"m": m}, n)
	_, ss, err := c.SegmentCost(1, len(p.Nests))
	if err != nil {
		return err
	}
	input := ir.NewStorage(p)
	for i := 1; i <= m; i++ {
		for j := 1; j <= m; j++ {
			input.Store("A", []int{i, j}, a.At(i-1, j-1))
		}
		input.Store("B", []int{i}, b[i-1])
		if x0 != nil {
			input.Store("X", []int{i}, x0[i-1])
		}
	}
	res, err := exec.Run(p, ss, map[string]int{"m": m}, scalars, iters, cfg, input)
	if err != nil {
		return err
	}
	x := make([]float64, m)
	for i := 1; i <= m; i++ {
		x[i-1] = res.Values.Load(ir.R("X", ir.Const(i)), []int{i})
	}
	report(fmt.Sprintf("%s (exec backend) on %d processors, %d iters", kernel, n, iters),
		res.Stats, matrix.MaxAbsDiff(x, ref))
	fmt.Printf("  largest message %d words; stores hold %d words, at most %d on one processor\n",
		res.Stats.MaxMsgWords, res.StoreWords, res.MaxProcStoreWords)
	fmt.Printf("  busiest pair: %d messages, %d words\n",
		res.Stats.MaxPairMessages, res.Stats.MaxPairWords)
	fmt.Printf("  wall: inspect %v, machine %v, assemble %v\n",
		res.InspectWall.Round(time.Microsecond), res.SimWall.Round(time.Microsecond),
		res.AssembleWall.Round(time.Microsecond))
	return nil
}

func report(title string, st machine.Stats, diff float64) {
	fmt.Printf("%s\n", title)
	fmt.Printf("  simulated makespan: %.0f\n", st.ParallelTime)
	fmt.Printf("  flops: %d total, %d on the most loaded processor\n", st.Flops, st.MaxFlops())
	fmt.Printf("  communication: %d messages, %d words\n", st.Messages, st.Words)
	fmt.Printf("  max |diff| vs sequential reference: %.3g\n", diff)
}
