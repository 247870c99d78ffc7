// Benchmark harness: one benchmark per table and figure of the paper
// (see DESIGN.md's experiment index), plus the ablations of the design
// choices. Wall-clock ns/op measures the simulator itself; the paper's
// quantities — simulated makespan, words on the wire, flop balance — are
// emitted as custom metrics (simtime, words, maxflops), so
//
//	go test -bench=. -benchmem
//
// regenerates every series the paper reports.
package dmcc_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"dmcc/internal/align"
	"dmcc/internal/artifact"
	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/dep"
	"dmcc/internal/dist"
	"dmcc/internal/exec"
	"dmcc/internal/grid"
	"dmcc/internal/ir"
	"dmcc/internal/kernels"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
	"dmcc/internal/sched"
	"dmcc/internal/sweep"
)

// ---------------------------------------------------------------- T1 ---

// BenchmarkTable1Primitives measures each communication primitive of
// Table 1 on the simulated hypercube (m=256 words, 16 processors) and
// reports the simulated makespan, which must follow the O(m), O(m log n),
// O(m n) rows.
func BenchmarkTable1Primitives(b *testing.B) {
	const words, procs = 256, 16
	data := make([]machine.Word, words)
	g := grid.New(procs)
	run := func(b *testing.B, body func(p *machine.Proc)) {
		var last machine.Stats
		for i := 0; i < b.N; i++ {
			mach, err := machine.New(g, machine.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			st, err := mach.Run(body)
			if err != nil {
				b.Fatal(err)
			}
			last = st
		}
		b.ReportMetric(last.ParallelTime, "simtime")
		b.ReportMetric(float64(last.Words), "words")
	}
	b.Run("Transfer", func(b *testing.B) {
		run(b, func(p *machine.Proc) {
			switch p.Rank() {
			case 0:
				p.Transfer(0, 1, data)
			case 1:
				p.Transfer(0, 1, nil)
			}
		})
	})
	b.Run("Shift", func(b *testing.B) {
		run(b, func(p *machine.Proc) { p.Shift(0, 1, data) })
	})
	b.Run("OneToManyMulticast", func(b *testing.B) {
		run(b, func(p *machine.Proc) {
			var d []machine.Word
			if p.Rank() == 0 {
				d = data
			}
			p.OneToManyMulticast([]int{0}, 0, d)
		})
	})
	b.Run("Reduction", func(b *testing.B) {
		run(b, func(p *machine.Proc) { p.Reduction([]int{0}, 0, data, machine.SumOp) })
	})
	b.Run("AffineTransform", func(b *testing.B) {
		perm := make([]int, procs)
		for i := range perm {
			perm[i] = (i + 1) % procs
		}
		run(b, func(p *machine.Proc) { p.AffineTransform([]int{0}, perm, data) })
	})
	b.Run("Scatter", func(b *testing.B) {
		run(b, func(p *machine.Proc) {
			var chunks [][]machine.Word
			if p.Rank() == 0 {
				chunks = make([][]machine.Word, procs)
				for i := range chunks {
					chunks[i] = data
				}
			}
			p.Scatter([]int{0}, 0, chunks)
		})
	})
	b.Run("Gather", func(b *testing.B) {
		run(b, func(p *machine.Proc) { p.Gather([]int{0}, 0, data) })
	})
	b.Run("ManyToManyMulticast", func(b *testing.B) {
		run(b, func(p *machine.Proc) { p.ManyToManyMulticast([]int{0}, data) })
	})
}

// ---------------------------------------------------------------- F1 ---

// BenchmarkFig1Layouts times the eight distribution functions of Fig 1
// over a full 64x64 owner map each.
func BenchmarkFig1Layouts(b *testing.B) {
	cases := dist.Fig1Cases(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			dist.LayoutMatrix(c.Grid, []int{64, 64}, c.Scheme)
		}
	}
}

// ------------------------------------------------------------ F2 / F7 --

// BenchmarkFig2JacobiAlignment builds and exactly aligns the Jacobi
// affinity graph (Fig 2); BenchmarkFig7GaussAlignment does the Gauss
// graph (Fig 7).
func BenchmarkFig2JacobiAlignment(b *testing.B) {
	benchAlignment(b, ir.Jacobi())
}

func BenchmarkFig7GaussAlignment(b *testing.B) {
	benchAlignment(b, ir.Gauss())
}

func benchAlignment(b *testing.B, p *ir.Program) {
	wp := align.DefaultWeightParams()
	var cut float64
	for i := 0; i < b.N; i++ {
		g, err := align.BuildGraph(p, p.Nests, wp)
		if err != nil {
			b.Fatal(err)
		}
		pt, err := align.ExactAlign(g, 2)
		if err != nil {
			b.Fatal(err)
		}
		cut = pt.Cut
	}
	b.ReportMetric(cut, "cutweight")
}

// ---------------------------------------------------------------- T2 ---

// BenchmarkTable2 regenerates the Table 2 rows: the simulated Jacobi
// makespan on each grid shape (m=64, N=16, 2 iterations).
func BenchmarkTable2(b *testing.B) {
	const m, n, iters = 64, 16, 2
	a, rhs, _ := matrix.DiagonallyDominant(m, 3)
	x0 := make([]float64, m)
	for _, shape := range [][2]int{{1, n}, {n, 1}, {4, 4}} {
		b.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(b *testing.B) {
			var last kernels.Result
			for i := 0; i < b.N; i++ {
				res, err := kernels.JacobiGrid(machine.DefaultConfig(), a, rhs, x0, iters, shape[0], shape[1])
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Stats.ParallelTime, "simtime")
			b.ReportMetric(float64(last.Stats.Words), "words")
			b.ReportMetric(float64(last.Stats.MaxFlops()), "maxflops")
		})
	}
}

// ----------------------------------------------------------- A1 / F3 ---

// BenchmarkAlgorithm1DP runs the full Section 4 dynamic program on the
// Jacobi loop sequence, reporting the minimum cost it finds (Fig 3's
// decomposition) and the whole-program baseline.
func BenchmarkAlgorithm1DP(b *testing.B) {
	var res *core.CompileResult
	for i := 0; i < b.N; i++ {
		c := core.NewCompiler(ir.Jacobi(), cost.Unit(), map[string]int{"m": 32}, 4)
		r, err := c.Compile()
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.DP.MinimumCost, "dpcost")
	b.ReportMetric(res.WholeProgramCost, "wholecost")
}

// BenchmarkAlgorithm1DPGauss prices the three-nest Gauss sequence.
func BenchmarkAlgorithm1DPGauss(b *testing.B) {
	var res *core.CompileResult
	for i := 0; i < b.N; i++ {
		c := core.NewCompiler(ir.Gauss(), cost.Unit(), map[string]int{"m": 16}, 4)
		r, err := c.Compile()
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.DP.MinimumCost, "dpcost")
}

// ------------------------------------------------------------ T3 / T4 --

// BenchmarkTable3JacobiRowScheme measures the Section 4 / Table 3 row
// scheme end to end: the DP-chosen Nx1 kernel.
func BenchmarkTable3JacobiRowScheme(b *testing.B) {
	const m, n, iters = 64, 8, 2
	a, rhs, _ := matrix.DiagonallyDominant(m, 5)
	x0 := make([]float64, m)
	var last kernels.Result
	for i := 0; i < b.N; i++ {
		res, err := kernels.JacobiGrid(machine.DefaultConfig(), a, rhs, x0, iters, n, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Stats.ParallelTime, "simtime")
	b.ReportMetric(float64(last.Stats.Words), "words")
}

// BenchmarkTable4SORColumnScheme measures the Table 4 column layout via
// the naive SOR kernel (its data layout is exactly Table 4).
func BenchmarkTable4SORColumnScheme(b *testing.B) {
	const m, n, iters = 64, 8, 2
	a, rhs, _ := matrix.DiagonallyDominant(m, 7)
	x0 := make([]float64, m)
	var last kernels.Result
	for i := 0; i < b.N; i++ {
		res, err := kernels.SORNaive(machine.DefaultConfig(), a, rhs, x0, 1.2, iters, n)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Stats.ParallelTime, "simtime")
}

// ---------------------------------------------------------------- F5 ---

// BenchmarkFig5Schedule generates the SOR wavefront schedule of Fig 5 and
// reports the iteration period (20 steps for m=16, N=4 in the paper).
func BenchmarkFig5Schedule(b *testing.B) {
	var period int
	for i := 0; i < b.N; i++ {
		table, err := sched.Schedule(16, 4, 3)
		if err != nil {
			b.Fatal(err)
		}
		period = sched.IterationPeriod(table)
	}
	b.ReportMetric(float64(period), "steps/iter")
}

// ------------------------------------------------------------ F6 / X2 --

// BenchmarkFig6SORNaive and BenchmarkFig6SORPipelined regenerate the
// Section 5 comparison across problem sizes; the paper's claims are the
// naive (2m^2/N+4m)tf + m(logN+1)tc versus pipelined
// (2m^2/N+2m)tf + 2(m+N)tc per-iteration times.
func BenchmarkFig6SORNaive(b *testing.B) {
	benchSOR(b, true)
}

func BenchmarkFig6SORPipelined(b *testing.B) {
	benchSOR(b, false)
}

func benchSOR(b *testing.B, naive bool) {
	const n, iters = 4, 2
	for _, m := range []int{32, 64, 128} {
		a, rhs, _ := matrix.DiagonallyDominant(m, 17)
		x0 := make([]float64, m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var last kernels.Result
			for i := 0; i < b.N; i++ {
				var res kernels.Result
				var err error
				if naive {
					res, err = kernels.SORNaive(machine.DefaultConfig(), a, rhs, x0, 1.2, iters, n)
				} else {
					res, err = kernels.SORPipelined(machine.DefaultConfig(), a, rhs, x0, 1.2, iters, n)
				}
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Stats.ParallelTime/iters, "simtime/iter")
			b.ReportMetric(float64(last.Stats.Words)/iters, "words/iter")
		})
	}
}

// ---------------------------------------------------------------- T5 ---

// BenchmarkTable5Dependence runs the full dependence analysis of the
// Gauss program (Table 5).
func BenchmarkTable5Dependence(b *testing.B) {
	p := ir.Gauss()
	dd := map[string]int{"A": 0, "L": 0, "V": 0, "B": 0, "X": 0}
	var tokens int
	for i := 0; i < b.N; i++ {
		tokens = 0
		for _, nest := range p.Nests {
			mu, err := dep.DeriveMapping(p, nest, dd)
			if err != nil {
				continue
			}
			tokens += len(dep.Analyze(p, nest, mu))
		}
	}
	b.ReportMetric(float64(tokens), "tokens")
}

// ------------------------------------------------------------ F8 / X3 --

// BenchmarkFig8GaussBroadcast / BenchmarkFig8GaussPipelined regenerate
// the Section 6 comparison: the multicast's log N factor versus the
// shift pipeline, across ring sizes.
func BenchmarkFig8GaussBroadcast(b *testing.B) {
	benchGauss(b, true)
}

func BenchmarkFig8GaussPipelined(b *testing.B) {
	benchGauss(b, false)
}

func benchGauss(b *testing.B, broadcast bool) {
	const m = 96
	a, rhs, _ := matrix.DiagonallyDominant(m, 23)
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var last kernels.Result
			for i := 0; i < b.N; i++ {
				var res kernels.Result
				var err error
				if broadcast {
					res, err = kernels.GaussBroadcast(machine.DefaultConfig(), a, rhs, n)
				} else {
					res, err = kernels.GaussPipelined(machine.DefaultConfig(), a, rhs, n)
				}
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Stats.ParallelTime, "simtime")
			b.ReportMetric(float64(last.Stats.Words), "words")
		})
	}
}

// ---------------------------------------------------------------- X1 ---

// BenchmarkJacobiDPvsGlobal sweeps m and reports the DP plan's cost
// advantage over the whole-program single-scheme baseline (Section 4's
// headline claim).
func BenchmarkJacobiDPvsGlobal(b *testing.B) {
	for _, m := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var dpCost, whole float64
			for i := 0; i < b.N; i++ {
				c := core.NewCompiler(ir.Jacobi(), cost.Unit(), map[string]int{"m": m}, 4)
				res, err := c.Compile()
				if err != nil {
					b.Fatal(err)
				}
				dpCost, whole = res.DP.MinimumCost, res.WholeProgramCost
			}
			b.ReportMetric(dpCost, "dpcost")
			b.ReportMetric(whole, "wholecost")
			b.ReportMetric(whole/dpCost, "advantage")
		})
	}
}

// ---------------------------------------------------------------- X4 ---

// BenchmarkCannonMatmul runs Cannon's algorithm on the rotated layouts of
// Fig 1 (b)/(c) on a 4x4 grid.
func BenchmarkCannonMatmul(b *testing.B) {
	for _, m := range []int{32, 64, 128} {
		bm := matrix.RandomDense(m, m, 31)
		cm := matrix.RandomDense(m, m, 37)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var last machine.Stats
			for i := 0; i < b.N; i++ {
				_, st, err := kernels.Cannon(machine.DefaultConfig(), bm, cm, 4)
				if err != nil {
					b.Fatal(err)
				}
				last = st
			}
			b.ReportMetric(last.ParallelTime, "simtime")
			b.ReportMetric(float64(last.Words), "words")
		})
	}
}

// ----------------------------------------------------------- ablations --

// BenchmarkAblationAlignment compares exact branch-and-bound alignment
// against the greedy heuristic on the Gauss graph (solution quality and
// speed).
func BenchmarkAblationAlignment(b *testing.B) {
	p := ir.Gauss()
	wp := align.DefaultWeightParams()
	g, err := align.BuildGraph(p, p.Nests, wp)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exact", func(b *testing.B) {
		var cut float64
		for i := 0; i < b.N; i++ {
			pt, err := align.ExactAlign(g, 2)
			if err != nil {
				b.Fatal(err)
			}
			cut = pt.Cut
		}
		b.ReportMetric(cut, "cutweight")
	})
	b.Run("greedy", func(b *testing.B) {
		var cut float64
		for i := 0; i < b.N; i++ {
			pt, err := align.GreedyAlign(g, 2)
			if err != nil {
				b.Fatal(err)
			}
			cut = pt.Cut
		}
		b.ReportMetric(cut, "cutweight")
	})
}

// BenchmarkAblationOverlap measures the effect of comm/comp overlap on
// the pipelined kernels (the closing remark of Section 5).
func BenchmarkAblationOverlap(b *testing.B) {
	const m, n = 64, 4
	a, rhs, _ := matrix.DiagonallyDominant(m, 43)
	x0 := make([]float64, m)
	for _, mode := range []struct {
		name    string
		overlap bool
	}{{"blocking", false}, {"overlap", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := machine.DefaultConfig()
			cfg.Overlap = mode.overlap
			var t float64
			for i := 0; i < b.N; i++ {
				res, err := kernels.SORPipelined(cfg, a, rhs, x0, 1.2, 2, n)
				if err != nil {
					b.Fatal(err)
				}
				t = res.Stats.ParallelTime
			}
			b.ReportMetric(t, "simtime")
		})
	}
}

// BenchmarkAblationGELayout compares block-contiguous against cyclic row
// distribution for the triangular Gauss workload: the cyclic layout's
// load balance (Section 6's reason for choosing it).
func BenchmarkAblationGELayout(b *testing.B) {
	p := ir.Gauss()
	bind := map[string]int{"m": 32}
	g := grid.New(4, 1)
	full := dist.Dim{Sign: 1, Disp: -1, Block: 32, GridDim: 1}
	layouts := map[string]map[string]dist.Scheme{
		"cyclic": {
			"A": dist.Scheme2D(dist.Cyclic(0), full, nil),
			"L": dist.Scheme2D(dist.Cyclic(0), full, nil),
			"V": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: 0}),
			"B": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: 0}),
			"X": dist.Scheme1D(dist.Cyclic(0), map[int]int{1: 0}),
		},
		"block": {
			"A": dist.Scheme2D(dist.BlockContiguous(32, 4, 0), full, nil),
			"L": dist.Scheme2D(dist.BlockContiguous(32, 4, 0), full, nil),
			"V": dist.Scheme1D(dist.BlockContiguous(32, 4, 0), map[int]int{1: 0}),
			"B": dist.Scheme1D(dist.BlockContiguous(32, 4, 0), map[int]int{1: 0}),
			"X": dist.Scheme1D(dist.BlockContiguous(32, 4, 0), map[int]int{1: 0}),
		},
	}
	for name, schemes := range layouts {
		b.Run(name, func(b *testing.B) {
			var ct cost.Counts
			for i := 0; i < b.N; i++ {
				var err error
				ct, err = cost.CountNestOpts(p, p.Nests[0], schemes, g, bind, cost.CountOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ct.MaxProcFlops), "maxflops")
			b.ReportMetric(float64(ct.TotalFlops), "totalflops")
		})
	}
}

// BenchmarkAblationChunkSize sweeps the pipelining granularity of the
// chunked SOR wavefront under two per-message startup costs: with
// alpha=0 the finest grain wins (shortest fill); with a large alpha the
// coarser chunks amortize message startups.
func BenchmarkAblationChunkSize(b *testing.B) {
	const m, n = 64, 4
	a, rhs, _ := matrix.DiagonallyDominant(m, 83)
	x0 := make([]float64, m)
	for _, alpha := range []float64{0, 16} {
		for _, chunk := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("alpha=%.0f/chunk=%d", alpha, chunk), func(b *testing.B) {
				cfgc := machine.DefaultConfig()
				cfgc.Alpha = alpha
				var t float64
				for i := 0; i < b.N; i++ {
					res, err := kernels.SORPipelinedChunked(cfgc, a, rhs, x0, 1.2, 2, n, chunk)
					if err != nil {
						b.Fatal(err)
					}
					t = res.Stats.ParallelTime
				}
				b.ReportMetric(t, "simtime")
			})
		}
	}
}

// runExactWhole runs prog under ss, as one segment, with exec's
// per-element engine (Case.RunExact) on the exec harness's seeded input:
// the naive figure, which no input value moves.
func runExactWhole(prog *ir.Program, ss *core.SchemeSet, m, n int, scalars map[string]float64, iters int, cfg machine.Config) (exec.Result, error) {
	c := exec.Case{Prog: prog, M: m, N: n, Iters: iters, Scalars: scalars, Seed: 401}
	return c.RunExact([]core.Segment{{Start: 1, Len: len(prog.Nests), Schemes: ss}}, cfg)
}

// BenchmarkNaiveBackendVsPipelined measures the end-to-end payoff of the
// paper's optimizations: the naive compiler backend (Case.RunExact,
// per-element transfers and reductions) against the hand-pipelined Fig 6
// kernel for SOR.
func BenchmarkNaiveBackendVsPipelined(b *testing.B) {
	const m, n, iters = 24, 4, 2
	a, rhs, _ := matrix.DiagonallyDominant(m, 401)
	x0 := make([]float64, m)
	prog := ir.SOR()
	c := core.NewCompiler(prog, cost.Unit(), map[string]int{"m": m}, n)
	_, ss, err := c.SegmentCost(1, len(prog.Nests))
	if err != nil {
		b.Fatal(err)
	}
	input := ir.NewStorage(prog)
	for i := 1; i <= m; i++ {
		for j := 1; j <= m; j++ {
			input.Store("A", []int{i, j}, a.At(i-1, j-1))
		}
		input.Store("B", []int{i}, rhs[i-1])
		input.Store("X", []int{i}, 0)
	}
	b.Run("naive-backend", func(b *testing.B) {
		var t float64
		for i := 0; i < b.N; i++ {
			res, err := runExactWhole(prog, ss, m, n, map[string]float64{"OMEGA": 1.2}, iters, machine.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			t = res.Stats.ParallelTime
		}
		b.ReportMetric(t, "simtime")
	})
	b.Run("fig6-pipeline", func(b *testing.B) {
		var t float64
		for i := 0; i < b.N; i++ {
			res, err := kernels.SORPipelined(machine.DefaultConfig(), a, rhs, x0, 1.2, iters, n)
			if err != nil {
				b.Fatal(err)
			}
			t = res.Stats.ParallelTime
		}
		b.ReportMetric(t, "simtime")
	})
}

// BenchmarkExecBatchedVsExact measures the tentpole of the batched
// communication schedules: the inspector/executor engine (exec.Run,
// collective redistribution and vectored reductions) against the
// per-element oracle (Case.RunExact, one message per remote operand) on
// Gauss elimination at the paper's m=64, N=16 scale. Each reports the
// simulated time of the run it executed; ns/op is the real-time gap, and
// the custom metrics show the transport difference (messages on the
// wire, largest vectored message).
func BenchmarkExecBatchedVsExact(b *testing.B) {
	const m, n = 64, 16
	prog := ir.Gauss()
	c := core.NewCompiler(prog, cost.Unit(), map[string]int{"m": m}, n)
	_, ss, err := c.SegmentCost(1, len(prog.Nests))
	if err != nil {
		b.Fatal(err)
	}
	a, rhs, _ := matrix.DiagonallyDominant(m, 401)
	input := ir.NewStorage(prog)
	for i := 1; i <= m; i++ {
		for j := 1; j <= m; j++ {
			input.Store("A", []int{i, j}, a.At(i-1, j-1))
		}
		input.Store("B", []int{i}, rhs[i-1])
	}
	bind := map[string]int{"m": m}
	b.Run("batched", func(b *testing.B) {
		var last exec.Result
		for i := 0; i < b.N; i++ {
			res, err := exec.Run(prog, ss, bind, nil, 1, machine.DefaultConfig(), input)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.ReportMetric(last.Stats.ParallelTime, "simtime")
		b.ReportMetric(float64(last.Transport.Messages), "transportmsgs")
		b.ReportMetric(float64(last.Transport.Words), "transportwords")
		b.ReportMetric(float64(last.Transport.MaxMsgWords), "maxmsgwords")
	})
	b.Run("exact", func(b *testing.B) {
		cfg := machine.DefaultConfig()
		var last exec.Result
		for i := 0; i < b.N; i++ {
			res, err := runExactWhole(prog, ss, m, n, nil, 1, cfg)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.ReportMetric(last.Stats.ParallelTime, "simtime")
		b.ReportMetric(float64(last.Transport.Messages), "transportmsgs")
	})

	// SOR is the pipelined-reduction showcase: every finalize is forced
	// mid-epoch by the next row's read, and the Section 5 ring lowering
	// turns each per-element combining star into neighbor hops.
	sor := ir.SOR()
	cs := core.NewCompiler(sor, cost.Unit(), map[string]int{"m": m}, n)
	_, sss, err := cs.SegmentCost(1, len(sor.Nests))
	if err != nil {
		b.Fatal(err)
	}
	sorInput := ir.NewStorage(sor)
	for i := 1; i <= m; i++ {
		for j := 1; j <= m; j++ {
			sorInput.Store("A", []int{i, j}, a.At(i-1, j-1))
		}
		sorInput.Store("B", []int{i}, rhs[i-1])
		sorInput.Store("X", []int{i}, 0)
	}
	omega := map[string]float64{"OMEGA": 1.2}
	const sorIters = 2
	b.Run("sor-batched", func(b *testing.B) {
		var last exec.Result
		for i := 0; i < b.N; i++ {
			res, err := exec.Run(sor, sss, bind, omega, sorIters, machine.DefaultConfig(), sorInput)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.ReportMetric(last.Stats.ParallelTime, "simtime")
		b.ReportMetric(float64(last.Transport.Messages), "transportmsgs")
		b.ReportMetric(float64(last.Transport.MaxMsgWords), "maxmsgwords")
	})
	b.Run("sor-exact", func(b *testing.B) {
		cfg := machine.DefaultConfig()
		var last exec.Result
		for i := 0; i < b.N; i++ {
			res, err := runExactWhole(sor, sss, m, n, omega, sorIters, cfg)
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.ReportMetric(last.Stats.ParallelTime, "simtime")
		b.ReportMetric(float64(last.Transport.Messages), "transportmsgs")
	})
}

// ------------------------------------------------- compile-time scaling --

// BenchmarkCompileScaling measures the compile pipeline itself — the
// cost engine behind Algorithm 1 — on synthetic nest sequences of
// growing length s and on the paper's Gauss/Jacobi/SOR programs. Each
// program is compiled under both engines: "fast" is the production
// configuration (closed-form nest counting with the reference
// enumeration behind it, analytic ChangeCost, memoized cost tables,
// worker pool); "prechange" is the oracle (element-enumeration
// ChangeCost, exact nest counts, no caches, serial). The prechange
// variant stops at s=8; past it the oracle is impractical.
func BenchmarkCompileScaling(b *testing.B) {
	const m, n = 64, 16
	compile := func(b *testing.B, p func() *ir.Program, engine string) {
		var res *core.CompileResult
		for i := 0; i < b.N; i++ {
			newCompiler := core.NewCompiler
			if engine == "prechange" {
				newCompiler = core.NewOracleCompiler
			}
			c := newCompiler(p(), cost.Unit(), map[string]int{"m": m}, n)
			if engine == "prechange" {
				c.Jobs = 1
			}
			r, err := c.Compile()
			if err != nil {
				b.Fatal(err)
			}
			res = r
		}
		b.ReportMetric(res.DP.MinimumCost, "dpcost")
		b.ReportMetric(float64(len(res.DP.Segments)), "segments")
	}
	for _, s := range []int{4, 8, 16, 32} {
		s := s
		b.Run(fmt.Sprintf("synth/s=%d/fast", s), func(b *testing.B) {
			compile(b, func() *ir.Program { return ir.Synthetic(s) }, "fast")
		})
		if s <= 8 {
			b.Run(fmt.Sprintf("synth/s=%d/prechange", s), func(b *testing.B) {
				compile(b, func() *ir.Program { return ir.Synthetic(s) }, "prechange")
			})
		}
	}
	for _, pc := range []struct {
		name string
		prog func() *ir.Program
	}{
		{"gauss", ir.Gauss},
		{"jacobi", ir.Jacobi},
		{"sor", ir.SOR},
	} {
		pc := pc
		b.Run(pc.name+"/fast", func(b *testing.B) { compile(b, pc.prog, "fast") })
		b.Run(pc.name+"/prechange", func(b *testing.B) { compile(b, pc.prog, "prechange") })
	}
}

// BenchmarkSymbolicEvaluator measures the closed-form compile: planfit
// is the one-time cost of compiling a program and fitting every cost
// term — nest counts, loop-carried words and scheme-change loads — as
// piecewise polynomials in m; evalat is the per-point cost of pricing
// the fitted plan at a fresh size, which must stay in the microsecond
// range (O(degree) arithmetic, no counting, no redistribution
// enumeration). BENCH_compile.json's symbolic entries record both.
func BenchmarkSymbolicEvaluator(b *testing.B) {
	// Base size in the asymptotic regime (sweep.symbolicBaseM: n² for
	// n=16) — below it the last processor's block is empty and counts
	// are not yet piecewise polynomial.
	const baseM, n = 256, 16
	progs := []struct {
		name string
		prog func() *ir.Program
	}{
		{"gauss", ir.Gauss},
		{"jacobi", ir.Jacobi},
		{"sor", ir.SOR},
	}
	for _, pc := range progs {
		pc := pc
		b.Run("planfit/"+pc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := core.NewCompiler(pc.prog(), cost.Unit(), map[string]int{"m": baseM}, n)
				pe, err := core.NewPlanEvaluator(c)
				if err != nil {
					b.Fatal(err)
				}
				if err := pe.Fit(baseM, 3, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("evalat/"+pc.name, func(b *testing.B) {
			c := core.NewCompiler(pc.prog(), cost.Unit(), map[string]int{"m": baseM}, n)
			pe, err := core.NewPlanEvaluator(c)
			if err != nil {
				b.Fatal(err)
			}
			if err := pe.Fit(baseM, 3, 2); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var total float64
			for i := 0; i < b.N; i++ {
				// Vary m so no per-size memo could hide behind the number.
				pct, err := pe.EvalAt(baseM + i%1024)
				if err != nil {
					b.Fatal(err)
				}
				total += pct.Total()
			}
			_ = total
		})
	}
}

// ------------------------------------------------------- artifact cache --

// BenchmarkSweepCached measures the artifact cache behind dmsweep
// -cache on a compile sweep: "cold" runs the grid into an empty store,
// computing and persisting every point; "warm" re-runs the same grid
// against the populated store, so every point is a disk read plus a
// checksum — no compilation. The cold/warm ratio over the full default
// grid is recorded in BENCH_compile.json's sweep_cache entry.
func BenchmarkSweepCached(b *testing.B) {
	mList, nList, sList := []int{32, 64}, []int{4}, []int{4, 8}
	points := len(mList) * len(nList) * len(sList) * len(sweep.CompileEngines)
	open := func(dir string) *artifact.Store {
		st, err := artifact.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := open(filepath.Join(b.TempDir(), fmt.Sprintf("c%d", i)))
			if _, err := sweep.Compile(mList, nList, sList, sweep.Options{Cache: st}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		st := open(b.TempDir())
		if _, err := sweep.Compile(mList, nList, sList, sweep.Options{Cache: st}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sweep.Compile(mList, nList, sList, sweep.Options{Cache: st}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		// Only the populating run may miss; every benchmarked sweep must
		// have been served entirely from the store.
		if s := st.Stats(); s.Misses != int64(points) {
			b.Fatalf("warm sweeps missed the cache: %s (want misses=%d from the populate pass only)", s, points)
		}
	})
}
