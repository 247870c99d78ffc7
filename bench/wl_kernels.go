package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"dmcc/internal/artifact"
	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
	"dmcc/internal/parse"
	"dmcc/internal/sweep"
)

// The kernels op compiles the three paper programs from their Do-loop
// sources for kernelN processors at base size kernelBaseM (2·N², past
// Gauss's pre-polynomial transient, so no fit retry is paid), and
// re-prices each thawed plan at kernelEvals fresh sizes.
const (
	kernelN     = 8
	kernelBaseM = 128
	kernelEvals = 8
	// Sizes are drawn from [kernelBaseM, kernelMaxM]; the first of every
	// op's draws stays below kernelNearM so the numeric oracle, whose
	// cost grows like m³ on Gauss, can afford to check it.
	kernelMaxM  = 16 * kernelBaseM
	kernelNearM = kernelBaseM + kernelBaseM/8
	// The retry case: from this base size Gauss's first fit is declined
	// and PlanFor raises the floor (core.fit_floor_ratio).
	kernelRetryBaseM = kernelBaseM / 2
)

var kernelNames = []string{"gauss", "jacobi", "sor"}

// kernelOp is the generated input of one op.
type kernelOp struct {
	Order []int
	Sizes [][]int // per kernel, kernelEvals sizes
}

func genKernelOps(seed int64, n int) []kernelOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]kernelOp, n)
	for i := range ops {
		o := kernelOp{Order: rng.Perm(len(kernelNames)), Sizes: make([][]int, len(kernelNames))}
		for k := range o.Sizes {
			sizes := make([]int, kernelEvals)
			sizes[0] = kernelBaseM + rng.Intn(kernelNearM-kernelBaseM)
			for j := 1; j < kernelEvals; j++ {
				sizes[j] = kernelBaseM + rng.Intn(kernelMaxM-kernelBaseM+1)
			}
			o.Sizes[k] = sizes
		}
		ops[i] = o
	}
	return ops
}

// kernelResult is what one kernel's pipeline produced in one op.
type kernelResult struct {
	kernel int
	prog   *ir.Program
	res    *core.CompileResult
	blob   []byte
	sizes  []int
	totals []float64
}

type compileKernels struct {
	sources []string
	ops     []kernelOp
	pending []*kernelResult
	seen    firstSeen
	plans   map[int]*kernelResult // first result per kernel
	evals   map[[2]int]float64    // first EvalAt total per (kernel, m)

	engines *core.EngineStats
}

func (w *compileKernels) batch() int            { return 1 }
func (w *compileKernels) opsPerSecond() float64 { return 10.5 }
func (w *compileKernels) tracedOps() int        { return 9 }

// readKernelSources loads the repository's Do-loop test programs.
func readKernelSources() ([]string, error) {
	srcs := make([]string, len(kernelNames))
	for k, name := range kernelNames {
		raw, err := os.ReadFile(filepath.Join("testdata", name+".f"))
		if err != nil {
			return nil, err
		}
		srcs[k] = string(raw)
	}
	return srcs, nil
}

func (w *compileKernels) setup(seed int64) error {
	srcs, err := readKernelSources()
	if err != nil {
		return err
	}
	all := genKernelOps(seed, warmupOps+opListLen)
	*w = compileKernels{sources: srcs, ops: all[warmupOps:], plans: map[int]*kernelResult{},
		evals: map[[2]int]float64{}, engines: &core.EngineStats{}}
	for _, o := range all[:warmupOps] {
		if _, err := w.pipeline(o, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *compileKernels) teardown() {}

// kernelCompiler is the compiler configuration of the kernels op.
func kernelCompiler(p *ir.Program, baseM int) *core.Compiler {
	return core.NewCompiler(p, cost.Unit(), map[string]int{p.Params[0]: baseM}, kernelN)
}

// planForSteps is sweep.PlanFor without a store, taken apart: the
// compile behind NewPlanEvaluator and the fit with PlanFor's retry
// floors, each its own span.
func planForSteps(tr *tracer, c *core.Compiler, baseM int) (pe *core.PlanEvaluator, fitErr string, err error) {
	tr.push("core.NewPlanEvaluator")
	pe, err = core.NewPlanEvaluator(c)
	tr.pop()
	if err != nil {
		return nil, "", err
	}
	tr.push("core.Fit")
	for _, minM := range []int{baseM, 2 * baseM, 4 * baseM} {
		tr.count("attempts", 1)
		if err := pe.Fit(minM, 3, 2); err != nil {
			fitErr = err.Error()
			continue
		}
		fitErr = ""
		break
	}
	tr.pop()
	return pe, fitErr, nil
}

// pipeline is the op: source text to re-priced plan for each kernel,
// through the same calls dmsweep -sweep symbolic and the daemon make.
// With a tracer every public call is a span and PlanFor is replaced by
// its steps.
func (w *compileKernels) pipeline(o kernelOp, tr *tracer) ([]*kernelResult, error) {
	step := func(name string, f func() error) error {
		if tr == nil {
			return f()
		}
		return tr.call(name, f)
	}
	out := make([]*kernelResult, 0, len(o.Order))
	for _, k := range o.Order {
		name := kernelNames[k]
		var p *ir.Program
		if err := step("parse.Parse", func() (err error) { p, err = parse.Parse(w.sources[k]); return }); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", name, err)
		}
		var pe *core.PlanEvaluator
		var fitErr string
		var err error
		if tr == nil {
			pe, fitErr, _, err = sweep.PlanFor(kernelCompiler(p, kernelBaseM), kernelBaseM, sweep.Options{})
		} else {
			c := kernelCompiler(p, kernelBaseM)
			c.Engines = w.engines
			pe, fitErr, err = planForSteps(tr, c, kernelBaseM)
		}
		if err != nil {
			return nil, fmt.Errorf("planning %s: %w", name, err)
		}
		var fp *core.FrozenPlan
		step("core.Freeze", func() error { fp = pe.Freeze(); return nil }) //nolint:errcheck — the closure returns nil
		fp.FitErr = fitErr
		var blob []byte
		if err := step("json.Marshal", func() (err error) { blob, err = json.Marshal(fp); return }); err != nil {
			return nil, err
		}
		var back core.FrozenPlan
		if err := step("json.Unmarshal", func() error { return json.Unmarshal(blob, &back) }); err != nil {
			return nil, err
		}
		var thawed *core.PlanEvaluator
		if err := step("core.Thaw", func() (err error) { thawed, err = core.Thaw(kernelCompiler(p, kernelBaseM), &back); return }); err != nil {
			return nil, fmt.Errorf("thawing %s: %w", name, err)
		}
		r := &kernelResult{kernel: k, prog: p, res: pe.Base, blob: blob, sizes: o.Sizes[k]}
		if err := step("core.EvalAt", func() error {
			for _, m := range r.sizes {
				pc, err := thawed.EvalAt(m)
				if err != nil {
					return fmt.Errorf("pricing %s at m=%d: %w", name, m, err)
				}
				r.totals = append(r.totals, pc.Total())
			}
			return nil
		}); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func (w *compileKernels) op(i int) error {
	res, err := w.pipeline(w.ops[i%len(w.ops)], nil)
	w.pending = res
	return err
}

func (w *compileKernels) tracedOp(i int, tr *tracer) error {
	res, err := w.pipeline(w.ops[i%len(w.ops)], tr)
	w.pending = res
	return err
}

func (w *compileKernels) after(int) {
	for _, r := range w.pending {
		h := fnv.New64a()
		fmt.Fprintf(h, "%x|", planDigest(r.res))
		h.Write(r.blob)
		if w.seen.observe(kernelNames[r.kernel], h.Sum64()) {
			w.plans[r.kernel] = r
		}
		for j, m := range r.sizes {
			key := [2]int{r.kernel, m}
			if first, ok := w.evals[key]; !ok {
				w.evals[key] = r.totals[j]
			} else if first != r.totals[j] {
				w.seen.differ++
			}
		}
	}
	w.pending = nil
}

func (w *compileKernels) finish(int) (outcome, error) {
	out := outcome{nondeterministic: w.seen.differ}
	if len(w.plans) != len(kernelNames) {
		return out, fmt.Errorf("compile-kernels saw %d of %d kernels", len(w.plans), len(kernelNames))
	}
	fail := func(format string, args ...any) {
		out.verifyFailed++
		out.notes = append(out.notes, fmt.Sprintf(format, args...))
	}
	for k, name := range kernelNames {
		r := w.plans[k]
		out.modelledCost += r.res.DP.MinimumCost
		out.verifyChecked++
		if err := checkPlan(r.prog, kernelN, kernelBaseM, r.res); err != nil {
			fail("%s: %v", name, err)
		}
		// Every re-priced size against an evaluator that was fitted here
		// and never frozen, and the near sizes against one that was
		// never fitted and therefore counts numerically.
		fitted, _, _, err := sweep.PlanFor(kernelCompiler(r.prog, kernelBaseM), kernelBaseM, sweep.Options{})
		if err != nil {
			return out, err
		}
		numeric, err := core.NewPlanEvaluator(kernelCompiler(r.prog, kernelBaseM))
		if err != nil {
			return out, err
		}
		nearChecked := 0
		for _, key := range sortedEvalKeys(w.evals, k) {
			m, got := key[1], w.evals[key]
			out.verifyChecked++
			if err := checkEval(fitted, m, got); err != nil {
				fail("%s m=%d vs unfrozen fit: %v", name, m, err)
			}
			if m < kernelNearM && nearChecked < 3 {
				nearChecked++
				out.verifyChecked++
				if err := checkEval(numeric, m, got); err != nil {
					fail("%s m=%d vs numeric pricing: %v", name, m, err)
				}
			}
		}
	}
	return out, nil
}

func sortedEvalKeys(evals map[[2]int]float64, kernel int) [][2]int {
	var keys [][2]int
	for key := range evals {
		if key[0] == kernel {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i][1] < keys[j][1] })
	return keys
}

func (w *compileKernels) layers(lc *layerContext) error {
	kernels := float64(len(kernelNames))
	lc.set("parse.parse_us", 1e3*lc.opMedianMS("parse.Parse")/kernels)
	lc.set("core.new_evaluator_ms", lc.opMedianMS("core.NewPlanEvaluator"))
	lc.set("core.fit_ms", lc.opMedianMS("core.Fit"))
	lc.set("core.freeze_us", 1e3*lc.opMedianMS("core.Freeze")/kernels)
	lc.set("core.thaw_us", 1e3*lc.opMedianMS("core.Thaw")/kernels)
	engineLayer(lc, w.engines)

	var progs []*ir.Program
	var compilers []*core.Compiler
	var evaluators []*core.PlanEvaluator
	stmts, bytes := 0, 0
	replay := costReplay{}
	for k := range kernelNames {
		r := w.plans[k]
		if r == nil {
			return fmt.Errorf("kernel %s never ran", kernelNames[k])
		}
		for _, nest := range r.prog.Nests {
			stmts += len(nest.Stmts)
		}
		bytes += len(r.blob)
		c := kernelCompiler(r.prog, kernelBaseM)
		progs, compilers = append(progs, r.prog), append(compilers, c)
		segs := r.res.DP.Segments
		for i, seg := range segs {
			replay.segments = append(replay.segments, costedSegment{c, r.prog.Nests[seg.Start-1 : seg.Start-1+seg.Len], seg.Schemes})
			if i > 0 {
				replay.changes = append(replay.changes, pricedChange{c, segs[i-1].Schemes, seg.Schemes})
			}
		}
		pe, _, _, err := sweep.PlanFor(kernelCompiler(r.prog, kernelBaseM), kernelBaseM, sweep.Options{})
		if err != nil {
			return err
		}
		evaluators = append(evaluators, pe)
	}
	lc.set("parse.stmts", float64(stmts))
	lc.set("core.plan_bytes", float64(bytes)/kernels)

	validate, err := probe(5, func() error {
		for _, p := range progs {
			if err := p.Validate(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lc.set("ir.validate_us", 1e3*validate/kernels)
	pipeline, err := probe(5, func() error {
		for k := range kernelNames {
			pipelining(progs[k], w.plans[k].res.DP.Segments)
		}
		return nil
	})
	if err != nil {
		return err
	}
	lc.set("dep.pipeline_us", 1e3*pipeline/kernels)
	segments := 0
	for k := range kernelNames {
		segments += len(w.plans[k].res.DP.Segments)
	}
	lc.set("core.segments", float64(segments))

	// EvalAt is sub-microsecond, below what a span can time: a loop of
	// fresh sizes instead.
	const evals = 3000
	evalAt, err := probe(3, func() error {
		for i := 0; i < evals; i++ {
			if _, err := evaluators[i%len(evaluators)].EvalAt(kernelMaxM + i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lc.set("core.evalat_ns", 1e6*evalAt/evals)

	// The retry case: Gauss from half the base size, where the first fit
	// is declined, the floor is raised and sizes below it are priced
	// numerically.
	gauss := progs[0]
	retry, _, _, err := sweep.PlanFor(kernelCompiler(gauss, kernelRetryBaseM), kernelRetryBaseM, sweep.Options{})
	if err != nil {
		return err
	}
	floor := retry.Freeze().FitMinM
	lc.set("core.fit_floor_ratio", float64(floor)/kernelRetryBaseM)
	below := kernelRetryBaseM
	numeric, err := probe(3, func() error {
		below++
		_, err := retry.EvalAt(kernelRetryBaseM + (below-kernelRetryBaseM)%max(floor-kernelRetryBaseM, 1))
		return err
	})
	if err != nil {
		return err
	}
	lc.set("core.evalat_numeric_ms", numeric)

	if err := planForLayer(lc, progs); err != nil {
		return err
	}
	if err := alignLayer(lc, compilers); err != nil {
		return err
	}
	if err := redistLayer(lc, replay.changes); err != nil {
		return err
	}
	return countNestLayer(lc, replay.segments)
}

// planForLayer times sweep.PlanFor over a fresh disk store: cold (miss,
// compile, fit, freeze, put) and warm (hit, unmarshal, thaw), the whole
// suite each.
func planForLayer(lc *layerContext, progs []*ir.Program) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var dirs []string
	defer func() {
		for _, d := range dirs {
			os.RemoveAll(d)
		}
	}()
	var store *artifact.Store
	planAll := func(wantCached bool) error {
		for _, p := range progs {
			_, _, cached, err := sweep.PlanFor(kernelCompiler(p, kernelBaseM), kernelBaseM, sweep.Options{Cache: store})
			if err != nil {
				return err
			}
			if cached != wantCached {
				return fmt.Errorf("PlanFor %s: cached=%v, expected %v", p.Name, cached, wantCached)
			}
		}
		return nil
	}
	cold, err := probe(3, func() error {
		dir, err := os.MkdirTemp(outDir, "planfor-")
		if err != nil {
			return err
		}
		dirs = append(dirs, dir)
		if store, err = artifact.Open(dir); err != nil {
			return err
		}
		return planAll(false)
	})
	if err != nil {
		return err
	}
	warm, err := probe(5, func() error { return planAll(true) })
	lc.set("sweep.planfor_cold_ms", cold)
	lc.set("sweep.planfor_warm_ms", warm)
	return err
}
