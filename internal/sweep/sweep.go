// Package sweep is the engine behind cmd/dmsweep: it runs the sweep
// families (kernel simulations, compile-time scaling, symbolic m-sweeps,
// exec-backend comparisons, the layouts table) as uniform lists of points, each
// producing one Row of deterministic metrics plus ephemeral wall-clock
// columns.
//
// Points are content-addressed: with a cache attached (Options.Cache),
// every point's deterministic metrics are stored in the artifact store
// under a key derived from the program hash, the parameter binding, the
// engine flags and the machine fingerprint, so a warm sweep re-reads
// results instead of recompiling or re-simulating. Concurrent workers
// (Options.Workers) computing the same key collapse to one computation
// through the store's single-flight layer. Rows are sorted by (variant,
// m, N, s), so cached and fresh sweeps emit byte-identical JSON and a
// committed baseline can be diffed row by row (see baseline.go).
package sweep

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"dmcc/internal/artifact"
	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/exec"
	"dmcc/internal/ir"
	"dmcc/internal/kernels"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

// Row is one sweep point. Metrics are deterministic (simulated costs
// and counts — what gets cached, emitted as JSON, and gated against
// baselines); Wall carries ephemeral wall-clock columns that appear
// only in CSV output.
type Row struct {
	Variant string
	M, N, S int
	Metrics map[string]float64
	Wall    map[string]float64
}

// Result is one finished sweep.
type Result struct {
	Kind string
	Rows []Row
	// Comments are CSV-only preamble lines (the symbolic sweep's fitted
	// formulas).
	Comments []string
}

// Options configures a sweep run.
type Options struct {
	// Cache, when non-nil, memoizes every point's metrics — on disk, and
	// through the store's peer daemon when it has one.
	Cache *artifact.Store
	// Workers is the point-level parallelism (1 = serial).
	Workers int
	// Warnf receives non-fatal diagnostics; nil silences them.
	Warnf func(format string, args ...any)
}

func (o Options) warnf(format string, args ...any) {
	if o.Warnf != nil {
		o.Warnf(format, args...)
	}
}

// point is one unit of sweep work: fixed row identity, a cache key, and
// the computation producing the row's metrics.
type point struct {
	variant string
	m, n, s int
	key     string // "" = never cached
	wallCol string // name of the wall-clock column, "" = none
	compute func() (map[string]float64, error)
	// moreWall, when non-nil, supplies extra ephemeral wall-clock
	// columns after compute ran (empty on a warm cache, where compute is
	// skipped — wall columns are never cached).
	moreWall func() map[string]float64
}

// runPoints executes points (concurrently when Options.Workers > 1),
// consulting the cache when attached, and returns rows sorted by
// (variant, m, n, s).
func runPoints(pts []point, opt Options) ([]Row, error) {
	rows := make([]Row, len(pts))
	err := forEach(len(pts), opt.Workers, func(i int) (err error) {
		rows[i], err = runPoint(pts[i], opt)
		return err
	})
	if err != nil {
		return nil, err
	}
	SortRows(rows)
	return rows, nil
}

// forEach runs f(0), ..., f(n-1) on up to workers goroutines (at least
// one) and returns the error of the lowest index that failed.
func forEach(n, workers int, f func(i int) error) error {
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(1, min(workers, n)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func runPoint(pt point, opt Options) (Row, error) {
	start := time.Now()
	metrics, err := cachedMetrics(pt, opt)
	if err != nil {
		return Row{}, err
	}
	row := Row{Variant: pt.variant, M: pt.m, N: pt.n, S: pt.s, Metrics: metrics}
	if pt.wallCol != "" {
		row.Wall = map[string]float64{pt.wallCol: float64(time.Since(start).Nanoseconds())}
	}
	if pt.moreWall != nil {
		for k, v := range pt.moreWall() {
			if row.Wall == nil {
				row.Wall = map[string]float64{}
			}
			row.Wall[k] = v
		}
	}
	return row, nil
}

func cachedMetrics(pt point, opt Options) (map[string]float64, error) {
	if opt.Cache == nil || pt.key == "" {
		return pt.compute()
	}
	payload, _, err := opt.Cache.GetOrCompute(pt.key, func() ([]byte, error) {
		m, err := pt.compute()
		if err != nil {
			return nil, err
		}
		return json.Marshal(m) // map keys marshal sorted: deterministic
	})
	if err != nil {
		return nil, err
	}
	var m map[string]float64
	if err := json.Unmarshal(payload, &m); err != nil {
		// The record passed its checksum but does not decode — a payload
		// schema change that slipped past SchemaVersion. Recompute.
		opt.warnf("sweep: undecodable cached metrics for %s (%v); recomputing", pt.variant, err)
		return pt.compute()
	}
	return m, nil
}

// SortRows orders rows by (variant, m, n, s) — the canonical emission
// order shared by CSV, JSON and baseline matching.
func SortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Variant != b.Variant {
			return a.Variant < b.Variant
		}
		if a.M != b.M {
			return a.M < b.M
		}
		if a.N != b.N {
			return a.N < b.N
		}
		return a.S < b.S
	})
}

// ------------------------------------------------------------ kernels --

// Kernel runs the simulated-kernel sweeps (sor, gauss, chunks) over the
// (m, n) grid.
func Kernel(kind string, mList, nList []int, opt Options) (*Result, error) {
	cfg := machine.DefaultConfig()
	var pts []point
	add := func(variant string, m, n int, c machine.Config, run func() (machine.Stats, error)) {
		pts = append(pts, point{
			variant: variant, m: m, n: n,
			key: artifact.KeyOf("kind=kernel", "variant="+variant,
				fmt.Sprintf("m=%d", m), fmt.Sprintf("n=%d", n), "machine="+c.Fingerprint()),
			compute: func() (map[string]float64, error) {
				st, err := run()
				if err != nil {
					return nil, err
				}
				return map[string]float64{
					"simtime":  st.ParallelTime,
					"words":    float64(st.Words),
					"maxflops": float64(st.MaxFlops()),
				}, nil
			},
		})
	}
	for _, m := range mList {
		for _, n := range nList {
			switch kind {
			case "sor":
				a, b, _ := matrix.DiagonallyDominant(m, 1)
				x0 := make([]float64, m)
				add("sor-naive", m, n, cfg, func() (machine.Stats, error) {
					r, err := kernels.SORNaive(cfg, a, b, x0, 1.2, 2, n)
					return r.Stats, err
				})
				add("sor-pipelined", m, n, cfg, func() (machine.Stats, error) {
					r, err := kernels.SORPipelined(cfg, a, b, x0, 1.2, 2, n)
					return r.Stats, err
				})
			case "gauss":
				a, b, _ := matrix.DiagonallyDominant(m, 1)
				add("gauss-broadcast", m, n, cfg, func() (machine.Stats, error) {
					r, err := kernels.GaussBroadcast(cfg, a, b, n)
					return r.Stats, err
				})
				add("gauss-pipelined", m, n, cfg, func() (machine.Stats, error) {
					r, err := kernels.GaussPipelined(cfg, a, b, n)
					return r.Stats, err
				})
				add("gauss-pivoting", m, n, cfg, func() (machine.Stats, error) {
					r, err := kernels.GaussPartialPivot(cfg, a, b, n)
					return r.Stats, err
				})
			case "chunks":
				a, b, _ := matrix.DiagonallyDominant(m, 1)
				x0 := make([]float64, m)
				for _, alpha := range []float64{0, 16} {
					for chunk := 1; chunk <= m/n; chunk *= 2 {
						if (m/n)%chunk != 0 {
							continue
						}
						c := cfg
						c.Alpha = alpha
						add(fmt.Sprintf("sor-chunk%d-alpha%.0f", chunk, alpha), m, n, c, func() (machine.Stats, error) {
							r, err := kernels.SORPipelinedChunked(c, a, b, x0, 1.2, 2, n, chunk)
							return r.Stats, err
						})
					}
				}
			default:
				return nil, fmt.Errorf("unknown sweep %q", kind)
			}
		}
	}
	rows, err := runPoints(pts, opt)
	if err != nil {
		return nil, err
	}
	return &Result{Kind: kind, Rows: rows}, nil
}

// ------------------------------------------------------------ compile --

// CompileEngines are the cost-engine configurations of the compile
// sweep, in emission order: the production engine and the all-exact
// oracle (reference nest walker, element-enumeration ChangeCost, no
// caches).
var CompileEngines = []string{"analytic", "exact"}

// newCompileCompiler builds the compiler for one compile-sweep point.
func newCompileCompiler(engine string, s, m, n int) *core.Compiler {
	if engine == "exact" {
		return core.NewOracleCompiler(ir.Synthetic(s), cost.Unit(), map[string]int{"m": m}, n)
	}
	return core.NewCompiler(ir.Synthetic(s), cost.Unit(), map[string]int{"m": m}, n)
}

// Compile measures the compile pipeline on synthetic nest sequences of
// the given lengths, per engine.
func Compile(mList, nList, sList []int, opt Options) (*Result, error) {
	var pts []point
	for _, s := range sList {
		for _, m := range mList {
			for _, n := range nList {
				for _, engine := range CompileEngines {
					pts = append(pts, point{
						variant: engine, m: m, n: n, s: s,
						key: artifact.KeyOf("kind=compile", "engine="+engine,
							newCompileCompiler(engine, s, m, n).CacheKey()),
						wallCol: "compile_ns",
						compute: func() (map[string]float64, error) {
							res, err := newCompileCompiler(engine, s, m, n).Compile()
							if err != nil {
								return nil, err
							}
							return map[string]float64{
								"segments": float64(len(res.DP.Segments)),
								"mincost":  res.DP.MinimumCost,
							}, nil
						},
					})
				}
			}
		}
	}
	rows, err := runPoints(pts, opt)
	if err != nil {
		return nil, err
	}
	return &Result{Kind: "compile", Rows: rows}, nil
}

// ----------------------------------------------------------- symbolic --

// symbolicBaseM places the base size in the asymptotic regime: below
// (n-1)^2 + n the last processor's block under ceil(m/n) partitioning
// is still empty, and counts only become piecewise polynomial once
// every block is populated.
func symbolicBaseM(n int) int {
	baseM := n * n
	if baseM < 4*n {
		baseM = 4 * n
	}
	return baseM
}

// Symbolic runs the closed-form m-sweep: compile once per (program, N)
// — or thaw the frozen plan from the cache — fit piecewise polynomials
// in m, and price every m by evaluating them. The frozen plan (plus
// fits) is the cached artifact; per-point evaluation is O(degree) and
// never cached.
func Symbolic(mList, nList []int, opt Options) (*Result, error) {
	// The unit of symbolic work is one (program, N) compile+fit, so the
	// workers share that list: per-m evaluations are microseconds and
	// ride with their plan. Each unit keeps its own rows and comments, so
	// the output does not depend on which worker finished first.
	type unit struct {
		mk       func() *ir.Program
		n        int
		rows     []Row
		comments []string
	}
	var units []unit
	for _, mk := range []func() *ir.Program{ir.Jacobi, ir.SOR, ir.Gauss} {
		for _, n := range nList {
			units = append(units, unit{mk: mk, n: n})
		}
	}
	err := forEach(len(units), opt.Workers, func(i int) error {
		u := &units[i]
		p := u.mk()
		baseM := symbolicBaseM(u.n)
		c := core.NewCompiler(p, cost.Unit(), map[string]int{"m": baseM}, u.n)
		pe, fitErr, _, err := PlanFor(c, baseM, opt)
		if err != nil {
			return err
		}
		if fitErr != "" {
			u.comments = append(u.comments,
				fmt.Sprintf("# %s n=%d: %s; evaluating per point instead", p.Name, u.n, fitErr))
		}
		for _, f := range pe.Formulas() {
			u.comments = append(u.comments, fmt.Sprintf("# %s n=%d %s", p.Name, u.n, f))
		}
		for _, m := range mList {
			start := time.Now()
			pc, err := pe.EvalAt(m)
			if err != nil {
				return err
			}
			u.rows = append(u.rows, Row{
				Variant: p.Name, M: m, N: u.n,
				Metrics: map[string]float64{
					"total": pc.Total(), "exec": pc.Exec,
					"redist": pc.Redist, "loopcarried": pc.LoopCarried,
				},
				Wall: map[string]float64{"eval_ns": float64(time.Since(start).Nanoseconds())},
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Kind: "symbolic"}
	for _, u := range units {
		res.Rows = append(res.Rows, u.rows...)
		res.Comments = append(res.Comments, u.comments...)
	}
	SortRows(res.Rows)
	return res, nil
}

// PlanKey is the artifact-store key under which the compiler's frozen,
// fitted plan is cached. It is shared between the symbolic sweep and
// the dmccd daemon (internal/serve), so a plan compiled by either is a
// warm hit for the other.
func PlanKey(c *core.Compiler, baseM int) string {
	return artifact.KeyOf("kind=planfit", c.CacheKey(), fmt.Sprintf("fit=minM%d,deg3,val2", baseM))
}

// PlanPayload is the stored form of a plan under its PlanKey: the frozen
// plan with the fit diagnostic, as compact JSON.
func PlanPayload(pe *core.PlanEvaluator, fitErr string) ([]byte, error) {
	fp := pe.Freeze()
	fp.FitErr = fitErr
	return json.Marshal(fp)
}

// PlanFor returns a ready PlanEvaluator for the compiler — thawed from
// the artifact store when possible, otherwise compiled, fitted and
// frozen into the store under PlanKey. cached reports whether the plan
// came from the store rather than a fresh compile; fitErr records why
// symbolic fitting was declined (the evaluator then prices points
// through the analytic engine — still never the DP).
func PlanFor(c *core.Compiler, baseM int, opt Options) (pe *core.PlanEvaluator, fitErr string, cached bool, err error) {
	key := ""
	if opt.Cache != nil {
		key = PlanKey(c, baseM)
	}
	return PlanForKey(c, key, baseM, opt)
}

// PlanForKey is PlanFor for a caller that has already derived
// PlanKey(c, baseM) — the key costs a print and a hash of the program, and
// the daemon needs it again for the plan id.
func PlanForKey(c *core.Compiler, key string, baseM int, opt Options) (pe *core.PlanEvaluator, fitErr string, cached bool, err error) {
	build := func() (*core.PlanEvaluator, string, error) {
		pe, err := core.NewPlanEvaluator(c)
		if err != nil {
			return nil, "", err
		}
		// Some plans have a pre-polynomial transient (counts settle into
		// a fixed polynomial only past some size); retry the fit from
		// higher floors before declining. EvalAt prices sizes below the
		// accepted floor numerically, so a raised floor stays exact.
		fitErr := ""
		for _, minM := range []int{baseM, 2 * baseM, 4 * baseM} {
			if err := pe.Fit(minM, 3, 2); err != nil {
				fitErr = err.Error()
				continue
			}
			fitErr = ""
			break
		}
		return pe, fitErr, nil
	}
	if opt.Cache == nil {
		pe, fitErr, err = build()
		return pe, fitErr, false, err
	}
	payload, cached, err := opt.Cache.GetOrCompute(key, func() ([]byte, error) {
		var err error
		pe, fitErr, err = build()
		if err != nil {
			return nil, err
		}
		return PlanPayload(pe, fitErr)
	})
	if err != nil {
		return nil, "", false, err
	}
	if pe != nil && !cached {
		return pe, fitErr, false, nil // we computed it in this flight
	}
	var fp core.FrozenPlan
	if err := fp.UnmarshalJSON(payload); err != nil {
		opt.warnf("sweep: undecodable frozen plan (%v); recompiling", err)
		pe, fitErr, err = build()
		return pe, fitErr, false, err
	}
	thawed, err := core.Thaw(c, &fp)
	if err != nil {
		opt.warnf("sweep: stale frozen plan (%v); recompiling", err)
		pe, fitErr, err = build()
		return pe, fitErr, false, err
	}
	return thawed, fp.FitErr, true, nil
}

// --------------------------------------------------------------- exec --

// execProg is one exec-sweep workload: a paper program with its scalar
// bindings and iteration count.
type execProg struct {
	name    string
	mk      func() *ir.Program
	scalars map[string]float64
	iters   int
}

var execProgs = []execProg{
	{"jacobi", ir.Jacobi, nil, 2},
	{"sor", ir.SOR, map[string]float64{"OMEGA": 1.2}, 2},
	{"gauss", ir.Gauss, nil, 1},
}

// Exec compares the batched exec backend against the per-element
// RunExact oracle on the three paper programs.
func Exec(mList, nList []int, opt Options) (*Result, error) {
	var pts []point
	for _, pr := range execProgs {
		for _, m := range mList {
			for _, n := range nList {
				for _, engine := range []string{"batched", "exact"} {
					exact := engine == "exact"
					cfg := machine.DefaultConfig()
					pts = append(pts, point{
						variant: pr.name + "/" + engine, m: m, n: n,
						key:     execKey("exec", engine, pr, m, n, cfg),
						wallCol: "wall_ns",
						compute: func() (map[string]float64, error) {
							_, res, err := runPlan(pr.caseAt(m, n), exact, cfg)
							return execMetrics(res), err
						},
					})
				}
			}
		}
	}
	rows, err := runPoints(pts, opt)
	if err != nil {
		return nil, err
	}
	return &Result{Kind: "exec", Rows: rows}, nil
}

// -------------------------------------------------------------- scale --

// Scale runs the large-N scaling family: the three exec programs on the
// batched backend at every N. The deterministic metrics gate against
// BENCH_scale.json; the ephemeral wall-clock columns — wall_ns for the
// whole point and sim_ns for the machine phase alone — show where the
// time goes as the grid grows.
func Scale(mList, nList []int, opt Options) (*Result, error) {
	cfg := machine.DefaultConfig()
	var pts []point
	for _, pr := range execProgs {
		for _, m := range mList {
			for _, n := range nList {
				var simNS float64
				pts = append(pts, point{
					variant: pr.name, m: m, n: n,
					key:     execKey("scale", "", pr, m, n, cfg),
					wallCol: "wall_ns",
					compute: func() (map[string]float64, error) {
						_, res, err := runPlan(pr.caseAt(m, n), false, cfg)
						simNS = float64(res.SimWall.Nanoseconds())
						return execMetrics(res), err
					},
					moreWall: func() map[string]float64 {
						if simNS == 0 {
							return nil
						}
						return map[string]float64{"sim_ns": simNS}
					},
				})
			}
		}
	}
	rows, err := runPoints(pts, opt)
	if err != nil {
		return nil, err
	}
	return &Result{Kind: "scale", Rows: rows}, nil
}

// execKey is the cache key shared by the exec and scale families. engine
// names the exec sweep's arm; the scale family has one and passes "".
// run=dp names what a point executes, the compiled plan's segments
// (exec.Case), so a stored row of the whole-program scheme set is never
// served as a plan run's.
func execKey(kind, engine string, pr execProg, m, n int, cfg machine.Config) string {
	parts := []string{"kind=" + kind, "prog=" + core.ProgramHash(pr.mk())}
	if engine != "" {
		parts = append(parts, "engine="+engine)
	}
	return artifact.KeyOf(append(parts, fmt.Sprintf("m=%d", m), fmt.Sprintf("n=%d", n),
		fmt.Sprintf("iters=%d;omega=%g", pr.iters, pr.scalars["OMEGA"]),
		"machine="+cfg.Fingerprint(), "run=dp")...)
}

// caseAt is the exec harness's case of the program at size m on n
// processors.
func (pr execProg) caseAt(m, n int) *exec.Case {
	return &exec.Case{Prog: pr.mk(), M: m, N: n, Iters: pr.iters, Scalars: pr.scalars, Seed: 1}
}

// runPlan compiles the case and runs its plan through the batched
// backend, or through the per-element oracle when exact is set; it
// returns the plan's modelled cost beside the run.
func runPlan(c *exec.Case, exact bool, cfg machine.Config) (float64, exec.Result, error) {
	plan, err := c.Plan()
	if err != nil {
		return 0, exec.Result{}, err
	}
	run := c.Run
	if exact {
		run = c.RunExact
	}
	res, err := run(plan.DP.Segments, cfg)
	return plan.DP.MinimumCost, res, err
}

// execMetrics are the deterministic columns of an exec or scale row.
func execMetrics(res exec.Result) map[string]float64 {
	return map[string]float64{
		"simtime":            res.Stats.ParallelTime,
		"messages":           float64(res.Stats.Messages),
		"words":              float64(res.Stats.Words),
		"transport_messages": float64(res.Transport.Messages),
		"transport_words":    float64(res.Transport.Words),
		"max_msg_words":      float64(res.Transport.MaxMsgWords),
		"max_pair_messages":  float64(res.Transport.MaxPairMessages),
		"max_pair_words":     float64(res.Transport.MaxPairWords),
	}
}

// ------------------------------------------------------------ layouts --

// layoutProgs are the layouts sweep's programs, ir.Corpus(): the exec
// programs first, as the exec sweep runs them (so their dp rows are its
// batched runs), then the rest of the corpus. An iterative program runs
// two iterations.
func layoutProgs() []execProg {
	progs := slices.Clone(execProgs)
	for _, p := range ir.Corpus() {
		if slices.ContainsFunc(execProgs, func(pr execProg) bool { return pr.name == p.Name }) {
			continue
		}
		iters := 1
		if p.Iterative {
			iters = 2
		}
		progs = append(progs, execProg{p.Name, func() *ir.Program { return p }, nil, iters})
	}
	return progs
}

// factorPairs is every r x n/r grid of n processors, r ascending.
func factorPairs(n int) [][2]int {
	var shapes [][2]int
	for r := 1; r <= n; r++ {
		if n%r == 0 {
			shapes = append(shapes, [2]int{r, n / r})
		}
	}
	return shapes
}

// Layouts puts the DP's price of a layout beside what the machine runs:
// per program, m and N, one "<prog>/<r>x<N/r>" row per factor-pair grid
// (the whole program on it, priced by Candidates plus LoopCarriedCost,
// run by exec.Run) and one "<prog>/dp" row (the compiled plan, run by
// exec.Case), each with modelled, makespan, words, ratio = makespan /
// (iterations × modelled) and the ranks rankLayouts sets.
func Layouts(mList, nList []int, opt Options) (*Result, error) {
	cfg := machine.DefaultConfig()
	var pts []point
	for _, pr := range layoutProgs() {
		hash := core.ProgramHash(pr.mk())
		for _, m := range mList {
			for _, n := range nList {
				add := func(layout string, price func(c *exec.Case) (float64, exec.Result, error)) {
					pts = append(pts, point{
						variant: pr.name + "/" + layout, m: m, n: n,
						key:     layoutKey(hash, pr, m, n, layout, cfg),
						wallCol: "wall_ns",
						compute: func() (map[string]float64, error) {
							c := pr.caseAt(m, n)
							modelled, res, err := price(c)
							if err != nil {
								return nil, err
							}
							return map[string]float64{
								"modelled": modelled,
								"makespan": res.Stats.ParallelTime,
								"words":    float64(res.Stats.Words),
								"ratio":    res.Stats.ParallelTime / (float64(c.Iterations()) * modelled),
							}, nil
						},
					})
				}
				for _, shape := range factorPairs(n) {
					add(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(c *exec.Case) (float64, exec.Result, error) {
						return wholeProgramOn(c, shape, cfg)
					})
				}
				add("dp", func(c *exec.Case) (float64, exec.Result, error) { return runPlan(c, false, cfg) })
			}
		}
	}
	rows, err := runPoints(pts, opt)
	if err != nil {
		return nil, err
	}
	rankLayouts(rows)
	return &Result{Kind: "layouts", Rows: rows}, nil
}

// layoutKey is the cache key of one layouts row: the program's hash, the
// size, the layout ("RxC" or "dp"), the case's iterations and OMEGA, and
// the machine.
func layoutKey(hash string, pr execProg, m, n int, layout string, cfg machine.Config) string {
	return artifact.KeyOf("kind=layouts", "prog="+hash, fmt.Sprintf("m=%d", m), fmt.Sprintf("n=%d", n),
		"layout="+layout, fmt.Sprintf("iters=%d;omega=%g", pr.iters, pr.scalars["OMEGA"]),
		"machine="+cfg.Fingerprint())
}

// wholeProgramOn prices the case's whole program on one grid shape, as
// one segment plus the loop-carried cost of its scheme set, and runs it.
func wholeProgramOn(c *exec.Case, shape [2]int, cfg machine.Config) (float64, exec.Result, error) {
	comp, err := c.Compiler()
	if err != nil {
		return 0, exec.Result{}, err
	}
	s := len(c.Prog.Nests)
	sets, costs, err := comp.Candidates(1, s, [][2]int{shape})
	if err != nil {
		return 0, exec.Result{}, err
	}
	lc, err := comp.LoopCarriedCost(sets[0])
	if err != nil {
		return 0, exec.Result{}, err
	}
	res, err := c.Run([]core.Segment{{Start: 1, Len: s, Schemes: sets[0]}}, cfg)
	return costs[0] + lc, res, err
}

// rankLayouts sets each row's model_rank and machine_rank: one plus the
// number of rows of its (program, m, N) strictly cheaper by modelled and
// by makespan.
func rankLayouts(rows []Row) {
	cells := map[string][]map[string]float64{}
	for _, r := range rows {
		prog, _ := splitVariant(r.Variant)
		cells[rowID(prog, r.M, r.N, 0)] = append(cells[rowID(prog, r.M, r.N, 0)], r.Metrics)
	}
	for _, cell := range cells {
		for _, a := range cell {
			a["model_rank"], a["machine_rank"] = 1, 1
			for _, b := range cell {
				if b["modelled"] < a["modelled"] {
					a["model_rank"]++
				}
				if b["makespan"] < a["makespan"] {
					a["machine_rank"]++
				}
			}
		}
	}
}
