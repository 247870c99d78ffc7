// Package report regenerates every table and figure of the paper as text,
// from live analysis and simulation results — not from hard-coded data.
// The dmtables command prints them; EXPERIMENTS.md records them next to
// the paper's originals.
package report

import (
	"fmt"
	"sort"
	"strings"

	"dmcc/internal/align"
	"dmcc/internal/codegen"
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
	"dmcc/internal/trace"
)

// Table1 renders the communication-primitive cost table, with the
// asymptotic form and a measured makespan on the simulated hypercube for
// a concrete message size and processor count.
func Table1(m, procs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: costs of communication primitives (m=%d words, %d processors)\n", m, procs)
	fmt.Fprintf(&b, "%-28s %-16s %s\n", "Primitive", "Cost (model)", "Simulated makespan")
	g := grid.New(procs)
	cfg := machine.DefaultConfig()
	data := make([]machine.Word, m)

	row := func(name, model string, body func(p *machine.Proc)) {
		mach, err := machine.New(g, cfg)
		var st machine.Stats
		if err == nil {
			st, err = mach.Run(body)
		}
		if err != nil {
			fmt.Fprintf(&b, "%-28s %-16s error: %v\n", name, model, err)
			return
		}
		fmt.Fprintf(&b, "%-28s %-16s %.0f\n", name, model, st.ParallelTime)
	}
	row("Transfer(m)", "O(m)", func(p *machine.Proc) {
		switch p.Rank() {
		case 0:
			p.Transfer(0, 1, data)
		case 1:
			p.Transfer(0, 1, nil)
		}
	})
	row("Shift(m)", "O(m)", func(p *machine.Proc) { p.Shift(0, 1, data) })
	row("OneToManyMulticast(m,seq)", "O(m log num)", func(p *machine.Proc) {
		var d []machine.Word
		if p.Rank() == 0 {
			d = data
		}
		p.OneToManyMulticast([]int{0}, 0, d)
	})
	row("Reduction(m,seq)", "O(m log num)", func(p *machine.Proc) {
		p.Reduction([]int{0}, 0, data, machine.SumOp)
	})
	row("AffineTransform(m,seq)", "O(m log num)", func(p *machine.Proc) {
		perm := make([]int, procs)
		for i := range perm {
			perm[i] = (i + 1) % procs
		}
		p.AffineTransform([]int{0}, perm, data)
	})
	row("Scatter(m,seq)", "O(m num)", func(p *machine.Proc) {
		var chunks [][]machine.Word
		if p.Rank() == 0 {
			chunks = make([][]machine.Word, procs)
			for i := range chunks {
				chunks[i] = data
			}
		}
		p.Scatter([]int{0}, 0, chunks)
	})
	row("Gather(m,seq)", "O(m num)", func(p *machine.Proc) {
		p.Gather([]int{0}, 0, data)
	})
	row("ManyToManyMulticast(m,seq)", "O(m num)", func(p *machine.Proc) {
		p.ManyToManyMulticast([]int{0}, data)
	})
	return b.String()
}

// Fig1 renders the eight data layouts of Fig 1 for a size x size array.
func Fig1(size int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 1: data layouts for various distribution schema (%dx%d array)\n", size, size)
	for _, c := range dist.Fig1Cases(size) {
		fmt.Fprintf(&b, "\n(%s) %s on %s:\n", c.Name, c.Scheme, c.Grid)
		mtx := dist.LayoutMatrix(c.Grid, []int{size, size}, c.Scheme)
		for _, line := range dist.BlockLabels(mtx) {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}

// AffinityGraph renders a component affinity graph and its alignment
// (Figs 2, 4 and 7).
func AffinityGraph(title string, g *align.Graph) (string, error) {
	pt, err := align.Align(g, 2)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s", title, g)
	method := ""
	if pt.Method != "exact" {
		method = pt.Method + ", "
	}
	fmt.Fprintf(&b, "alignment (%scut %.0f): dim1 = {", method, pt.Cut)
	b.WriteString(dimList(pt.Subset(g, 0)))
	b.WriteString("}, dim2 = {")
	b.WriteString(dimList(pt.Subset(g, 1)))
	b.WriteString("}\n")
	return b.String(), nil
}

func dimList(dims []ir.DimID) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = d.String()
	}
	return strings.Join(parts, ", ")
}

// Table2 renders the Jacobi grid comparison, with the paper's symbolic
// formulas alongside the numeric evaluation.
func Table2(m, n int) string {
	c := cost.Unit()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Jacobi iteration time on three processor grids (m=%d, N=%d, tf=tc=1)\n", m, n)
	fmt.Fprintf(&b, "%-12s %-18s %-18s %-10s %s\n", "N1 x N2", "Computation", "Communication", "Total", "Formula")
	formulas := map[string]string{
		fmt.Sprintf("1 x %d", n): cost.SymbolicJacobiRow1().String(),
		fmt.Sprintf("%d x 1", n): cost.SymbolicJacobiRow2().String(),
	}
	for _, r := range c.Table2(m, n) {
		key := fmt.Sprintf("%d x %d", r.N1, r.N2)
		fmt.Fprintf(&b, "%-12s %-18.0f %-18.0f %-10.0f %s\n",
			key, r.Comp, r.Comm, r.Total(), formulas[key])
	}
	dp := c.JacobiDPIteration(m, n)
	fmt.Fprintf(&b, "%-12s %-18.0f %-18.0f %-10.0f %s   (Section 4 DP scheme)\n",
		fmt.Sprintf("%d x 1*", n), dp.Comp, dp.Comm, dp.Total(), cost.SymbolicJacobiDP())
	return b.String()
}

// Fig3 renders the cost structure of the two-segment Jacobi plan.
func Fig3(m, n int) (string, error) {
	c := core.NewCompiler(ir.Jacobi(), cost.Unit(), map[string]int{"m": m}, n)
	m1, p1, err := c.SegmentCost(1, 1)
	if err != nil {
		return "", err
	}
	m2, p2, err := c.SegmentCost(2, 1)
	if err != nil {
		return "", err
	}
	chg, err := c.ChangeCost(p1, p2)
	if err != nil {
		return "", err
	}
	lc, err := c.LoopCarriedCost(p2)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 3: total execution time of two Do-loops in an iteration (m=%d, N=%d)\n", m, n)
	fmt.Fprintf(&b, "  execution time for L1                       %10.0f  (%s)\n", m1, p1)
	fmt.Fprintf(&b, "  communication: change layouts L1 -> L2      %10.0f\n", chg)
	fmt.Fprintf(&b, "  execution time for L2                       %10.0f  (%s)\n", m2, p2)
	fmt.Fprintf(&b, "  communication: loop-carried dependence      %10.0f\n", lc)
	fmt.Fprintf(&b, "  total                                       %10.0f\n", m1+chg+m2+lc)
	return b.String(), nil
}

// LayoutTable renders the Table 3 / Table 4 per-processor data layouts:
// which elements of each array every processor stores (replicated copies
// in parentheses).
func LayoutTable(title string, g *grid.Grid, shapes map[string][]int, schemes map[string]dist.Scheme, repl map[string]bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	names := make([]string, 0, len(schemes))
	for n := range schemes {
		names = append(names, n)
	}
	sort.Strings(names)
	for r := 0; r < g.Size(); r++ {
		fmt.Fprintf(&b, "processor %d:", r)
		for _, name := range names {
			s := schemes[name]
			shape := shapes[name]
			var owned []string
			if len(shape) == 1 {
				for i := 1; i <= shape[0]; i++ {
					if s.IsOwner(g, r, i) {
						owned = append(owned, fmt.Sprintf("%s%d", name, i))
					}
				}
			} else {
				// 2-D arrays: summarize by owned rows/columns.
				rows := map[int]bool{}
				cols := map[int]bool{}
				for i := 1; i <= shape[0]; i++ {
					for j := 1; j <= shape[1]; j++ {
						if s.IsOwner(g, r, i, j) {
							rows[i] = true
							cols[j] = true
						}
					}
				}
				owned = append(owned, fmt.Sprintf("%s[rows %s; cols %s]", name, intSet(rows), intSet(cols)))
			}
			sep := " "
			if repl[name] {
				fmt.Fprintf(&b, "%s(%s)", sep, strings.Join(owned, " "))
			} else {
				fmt.Fprintf(&b, "%s%s", sep, strings.Join(owned, " "))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func intSet(s map[int]bool) string {
	var xs []int
	for x := range s {
		xs = append(xs, x)
	}
	sort.Ints(xs)
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, ",")
}

// Table3 renders the Jacobi row-distribution layout on a 4-processor
// linear array (A4x4 X4 = B4, Table 3 of the paper).
func Table3() string {
	m, n := 4, 4
	g := grid.New(n, 1)
	blockCol := dist.Dim{Sign: 1, Disp: -1, Block: m, GridDim: 1}
	schemes := map[string]dist.Scheme{
		"A": dist.Scheme2D(dist.BlockContiguous(m, n, 0), blockCol, nil),
		"V": dist.Scheme1D(dist.BlockContiguous(m, n, 0), map[int]int{1: 0}),
		"B": dist.Scheme1D(dist.BlockContiguous(m, n, 0), map[int]int{1: 0}),
		"X": dist.Scheme1D(dist.BlockContiguous(m, n, 0), map[int]int{1: 0}),
	}
	shapes := map[string][]int{"A": {m, m}, "V": {m}, "B": {m}, "X": {m}}
	s := LayoutTable("Table 3: data layouts of the parallel Jacobi algorithm (A4x4, 4-processor linear array)",
		g, shapes, schemes, nil)
	return s + "(plus a replicated copy of the full X on every processor, refreshed by the per-iteration exchange)\n"
}

// Table4 renders the SOR column-distribution layout (Table 4).
func Table4() string {
	m, n := 4, 4
	g := grid.New(1, n)
	blockRow := dist.Dim{Sign: 1, Disp: -1, Block: m, GridDim: 0}
	schemes := map[string]dist.Scheme{
		"A": dist.Scheme2D(blockRow, dist.BlockContiguous(m, n, 1), nil),
		"B": dist.Scheme1D(dist.BlockContiguous(m, n, 1), map[int]int{0: 0}),
		"X": dist.Scheme1D(dist.BlockContiguous(m, n, 1), map[int]int{0: 0}),
		"V": dist.Scheme1D(dist.Replicated(1), map[int]int{0: 0}),
	}
	shapes := map[string][]int{"A": {m, m}, "V": {m}, "B": {m}, "X": {m}}
	return LayoutTable("Table 4: data layouts of the parallel SOR algorithm (A4x4, 4-processor linear array; V replicated)",
		g, shapes, schemes, map[string]bool{"V": true})
}

// Fig5 renders the SOR pipeline wavefront schedule for m=16, N=4.
func Fig5() (string, error) {
	table, err := sched.Schedule(16, 4, 2)
	if err != nil {
		return "", err
	}
	head := "Fig 5: pipelined SOR schedule (A16x16 on a four-processor ring; sweep 2 begins at step 21)\n"
	// Show the paper's 24 steps.
	if len(table) > 24 {
		table = table[:24]
	}
	return head + sched.Render(table, 4), nil
}

// Fig6 renders the generated SOR code plus the measured naive/pipelined
// comparison.
func Fig6(m, n int) (string, error) {
	p := ir.SOR()
	// The paper's column mapping as a one-segment block plan, not the
	// compiled one: the DP's plan gives A these column blocks too, but
	// dep.DeriveMapping takes 1*i from X's left-hand side, and that
	// prints a Shift loop instead of Fig 6's wavefront.
	mu := dep.Mapping{Nest: "S1", Terms: ir.V("j").Terms}
	plan := &core.CompileResult{
		DP:         &core.DPResult{Segments: []core.Segment{{Start: 1, Len: 1, Schemes: &core.SchemeSet{}}}},
		Pipelining: []dep.PipelineDecision{dep.DecidePipelining(p, p.Nests[0], mu)},
	}
	code, err := codegen.Program(p, plan)
	if err != nil {
		return "", err
	}
	a, bb, _ := matrix.DiagonallyDominant(m, 101)
	x0 := make([]float64, m)
	cfg := machine.DefaultConfig()
	naive, err := kernels.SORNaive(cfg, a, bb, x0, 1.2, 2, n)
	if err != nil {
		return "", err
	}
	pip, err := kernels.SORPipelined(cfg, a, bb, x0, 1.2, 2, n)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 6: generated parallel code for the SOR iterative algorithm\n\n%s\n", code)
	fmt.Fprintf(&b, "measured on the simulated machine (m=%d, N=%d, 2 sweeps):\n", m, n)
	fmt.Fprintf(&b, "  naive (reduction per step): makespan %.0f, %d msgs, %d words\n",
		naive.Stats.ParallelTime, naive.Stats.Messages, naive.Stats.Words)
	fmt.Fprintf(&b, "  pipelined (Fig 6):          makespan %.0f, %d msgs, %d words\n",
		pip.Stats.ParallelTime, pip.Stats.Messages, pip.Stats.Words)
	fmt.Fprintf(&b, "  speedup: %.2fx\n", naive.Stats.ParallelTime/pip.Stats.ParallelTime)
	return b.String(), nil
}

// Table5 renders the dependence table of the Gauss elimination program.
func Table5() (string, error) {
	p := ir.Gauss()
	dd := map[string]int{"A": 0, "L": 0, "V": 0, "B": 0, "X": 0}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: data-dependence information and index-processor mapping (Gauss elimination)\n")
	fmt.Fprintf(&b, "%-8s %-5s %-22s %-10s %-8s %s\n", "token", "line", "used in indices", "mapping", "mu.d", "used in PEs")
	for _, nest := range []*ir.Nest{p.Nests[0], p.Nests[2]} {
		mu, err := dep.DeriveMapping(p, nest, dd)
		if err != nil {
			return "", err
		}
		for _, tok := range dep.Analyze(p, nest, mu) {
			if len(tok.ReuseDirs) == 0 {
				continue // fully anchored tokens are trivially local
			}
			muds := make([]string, len(tok.MuDotD))
			for i, v := range tok.MuDotD {
				muds[i] = fmt.Sprintf("%d", v)
			}
			fmt.Fprintf(&b, "%-8s %-5d %-22s %-10s %-8s %s\n",
				tok.Ref, tok.Line, tok.UsedIn(), mu.String(), strings.Join(muds, ","), tok.UsedInPEs())
		}
	}
	return b.String(), nil
}

// Fig8 renders the generated Gauss code plus the measured
// broadcast/pipelined comparison.
func Fig8(m, n int) (string, error) {
	p := ir.Gauss()
	plan, err := core.NewCompiler(p, cost.Unit(), map[string]int{"m": m}, n).Compile()
	if err != nil {
		return "", err
	}
	code, err := codegen.Program(p, plan)
	if err != nil {
		// At N = 1 the plan distributes no array, so it has no listing.
		code = fmt.Sprintf("(no SPMD program: %v)\n", err)
	}
	a, bb, _ := matrix.DiagonallyDominant(m, 103)
	cfg := machine.DefaultConfig()
	bc, err := kernels.GaussBroadcast(cfg, a, bb, n)
	if err != nil {
		return "", err
	}
	pp, err := kernels.GaussPipelined(cfg, a, bb, n)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8: generated parallel code for the Gauss elimination algorithm\n\n%s\n", code)
	fmt.Fprintf(&b, "measured on the simulated machine (m=%d, N=%d):\n", m, n)
	fmt.Fprintf(&b, "  broadcast (naive multicasts): makespan %.0f, %d msgs, %d words\n",
		bc.Stats.ParallelTime, bc.Stats.Messages, bc.Stats.Words)
	fmt.Fprintf(&b, "  pipelined (Fig 8 shifts):     makespan %.0f, %d msgs, %d words\n",
		pp.Stats.ParallelTime, pp.Stats.Messages, pp.Stats.Words)
	fmt.Fprintf(&b, "  speedup: %.2fx\n", bc.Stats.ParallelTime/pp.Stats.ParallelTime)
	return b.String(), nil
}

// Algorithm1 renders the DP plan for a program.
func Algorithm1(p *ir.Program, m, n int) (string, error) {
	c := core.NewCompiler(p, cost.Unit(), map[string]int{"m": m}, n)
	res, err := c.Compile()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Algorithm 1: minimum-cost order of distribution schemes for %s (m=%d, N=%d)\n", p.Name, m, n)
	for _, seg := range res.DP.Segments {
		fmt.Fprintf(&b, "  loops L%d..L%d under %s: M = %.0f (entry redistribution %.0f)\n",
			seg.Start, seg.Start+seg.Len-1, seg.Schemes, seg.M, seg.ChangeIn)
	}
	fmt.Fprintf(&b, "  loop-carried dependence cost: %.0f\n", res.DP.LoopCarried)
	fmt.Fprintf(&b, "  minimum cost: %.0f   (whole-program single scheme: %.0f)\n",
		res.DP.MinimumCost, res.WholeProgramCost)
	for _, d := range res.Pipelining {
		fmt.Fprintf(&b, "  nest %s: mapping %s, pipelinable=%v, travelling tokens %v\n",
			d.Mapping.Nest, d.Mapping, d.CanPipeline, d.TravellingTokens)
	}
	return b.String(), nil
}

// Idleness quantifies the Section 1 claim that the reduction step
// "results in the idleness of processors": per-processor time breakdowns
// for the naive and pipelined SOR implementations.
func Idleness(m, n int) (string, error) {
	a, bb, _ := matrix.DiagonallyDominant(m, 131)
	x0 := make([]float64, m)
	runWith := func(pipelined bool) (trace.Summary, error) {
		col := trace.New()
		cfg := machine.DefaultConfig()
		cfg.Tracer = col
		var res kernels.Result
		var err error
		if pipelined {
			res, err = kernels.SORPipelined(cfg, a, bb, x0, 1.2, 2, n)
		} else {
			res, err = kernels.SORNaive(cfg, a, bb, x0, 1.2, 2, n)
		}
		if err != nil {
			return trace.Summary{}, err
		}
		return trace.Summarize(col.Events(), n, res.Stats.ParallelTime), nil
	}
	naive, err := runWith(false)
	if err != nil {
		return "", err
	}
	pip, err := runWith(true)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Processor idleness (Section 1's motivation; m=%d, N=%d, 2 sweeps)\n\n", m, n)
	fmt.Fprintf(&b, "naive (reduction per step):\n%s\n", naive)
	fmt.Fprintf(&b, "pipelined (Fig 6):\n%s", pip)
	return b.String(), nil
}

// NaiveBackend compares the per-element exec engine (RunExact, the
// Section 6 "naive compiler" made executable) against the pipelined
// kernel for SOR.
func NaiveBackend(m, n int) (string, error) {
	const seed, omega, sweeps = 137, 1.2, 2
	c := exec.Case{Prog: ir.SOR(), M: m, N: n, Iters: sweeps, Scalars: map[string]float64{"OMEGA": omega}, Seed: seed}
	plan, err := c.Plan()
	if err != nil {
		return "", err
	}
	res, err := c.RunExact(plan.DP.Segments, machine.DefaultConfig())
	if err != nil {
		return "", err
	}
	naiveDiff, err := c.Check(res)
	if err != nil {
		return "", err
	}
	// The kernel solves the system the harness seeded: A = a, B = X = b.
	a, bb, _ := matrix.DiagonallyDominant(m, seed)
	pip, err := kernels.SORPipelined(machine.DefaultConfig(), a, bb, bb, omega, sweeps, n)
	if err != nil {
		return "", err
	}
	want := matrix.SORSeq(a, bb, bb, omega, sweeps)
	var b strings.Builder
	fmt.Fprintf(&b, "Naive backend vs pipelined kernel (SOR, m=%d, N=%d, 2 sweeps)\n", m, n)
	fmt.Fprintf(&b, "  naive (exec, per-element transfers): makespan %.0f, %d msgs\n",
		res.Stats.ParallelTime, res.Stats.Messages)
	fmt.Fprintf(&b, "  pipelined (Fig 6 kernel):            makespan %.0f, %d msgs\n",
		pip.Stats.ParallelTime, pip.Stats.Messages)
	fmt.Fprintf(&b, "  pipelining gain: %.2fx; both match sequential SOR to %.3g / %.3g\n",
		res.Stats.ParallelTime/pip.Stats.ParallelTime,
		naiveDiff, matrix.MaxAbsDiff(pip.X, want))
	return b.String(), nil
}
