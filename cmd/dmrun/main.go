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
//	flags: -overlap (comm/comp overlap),
//	       -trace (per-processor time breakdown + Gantt chart),
//	       -cpuprofile / -memprofile (write pprof profiles)
//
// The compiled IR programs run through dmcc -exec.
package main

import (
	"flag"
	"fmt"

	"dmcc/internal/cli"
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
	overlap := flag.Bool("overlap", false, "overlap communication with computation")
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
	if *iters < 1 {
		cli.Usage("dmrun", fmt.Errorf("-iters %d: an iteration count below 1", *iters))
	}

	stopProf, err := cli.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		cli.Fail("dmrun", err)
	}
	defer stopProf()

	cfg := machine.DefaultConfig()
	cfg.Overlap = *overlap
	var col *trace.Collector
	if *doTrace {
		col = trace.New()
		cfg.Tracer = col
	}

	if err := run(*kernel, cfg, *m, *n, *n2, *iters, *naive, *broadcast, *seed); err != nil {
		stopProf()
		cli.Fail("dmrun", err)
	}
	if col != nil {
		events := col.Events()
		nprocs := *n * *n2
		if *kernel == "cannon" {
			nprocs = *n * *n
		}
		if *kernel == "sor" || *kernel == "gauss" {
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
	a, b, _ := matrix.DiagonallyDominant(m, seed)
	x0 := make([]float64, m)
	switch kernel {
	case "jacobi":
		res, err := kernels.JacobiGrid(cfg, a, b, x0, iters, n, n2)
		if err != nil {
			return err
		}
		ref := matrix.JacobiSeq(a, b, x0, iters)
		report(fmt.Sprintf("jacobi %dx%d grid, %d iters", n, n2, iters), res.Stats, matrix.MaxAbsDiff(res.X, ref))
	case "sor":
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

func report(title string, st machine.Stats, diff float64) {
	fmt.Printf("%s\n", title)
	fmt.Printf("  simulated makespan: %.0f\n", st.ParallelTime)
	fmt.Printf("  flops: %d total, %d on the most loaded processor\n", st.Flops, st.MaxFlops())
	fmt.Printf("  communication: %d messages, %d words\n", st.Messages, st.Words)
	fmt.Printf("  max |diff| vs sequential reference: %.3g\n", diff)
}
