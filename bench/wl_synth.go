package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"dmcc/internal/align"
	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/dep"
	"dmcc/internal/dist"
	"dmcc/internal/grid"
	"dmcc/internal/ir"
)

// synthMember is one program of the compile-synth suite: Synthetic(s)
// compiled for n processors.
type synthMember struct{ s, n int }

// synthSuite is compiled whole by every op, so op times are homogeneous
// and quantiles never sit on a boundary between a cheap and an
// expensive program. The (s, N) pairs span DP sizes from 21 to 55
// SegmentCost cells at two grid-shape counts (N=16 has a square shape,
// N=8 has not).
var synthSuite = []synthMember{{6, 16}, {8, 8}, {10, 8}}

// synthSizes are the problem sizes an op draws from. Closed-form
// counting makes compile time independent of m; the modelled cost is
// not, so every cycle of len(synthSizes) ops visits each size once and
// the cost summed over a cycle is the same for every seed.
var synthSizes = []int{48, 64, 96}

// synthOp is the generated input of one op: the size all members are
// bound to and the order they are compiled in.
type synthOp struct {
	M     int
	Order []int
}

// genSynthOps derives the op list from the seed.
func genSynthOps(seed int64, n int) []synthOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]synthOp, n)
	var sizes []int
	for i := range ops {
		if i%len(synthSizes) == 0 {
			sizes = append([]int(nil), synthSizes...)
			rng.Shuffle(len(sizes), func(a, b int) { sizes[a], sizes[b] = sizes[b], sizes[a] })
		}
		ops[i] = synthOp{M: sizes[i%len(synthSizes)], Order: rng.Perm(len(synthSuite))}
	}
	return ops
}

// planRecord keeps the first compile result seen for one input, the
// reference later results of the same input are compared with.
type planRecord struct {
	prog *ir.Program
	n, m int
	res  *core.CompileResult
}

// planDigest folds what a compile decided: the minimum cost and every
// chosen segment's range and scheme signature.
func planDigest(r *core.CompileResult) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x", math.Float64bits(r.DP.MinimumCost))
	for _, seg := range r.DP.Segments {
		fmt.Fprintf(h, "|%d,%d,%s", seg.Start, seg.Len, seg.Schemes.Signature())
	}
	return h.Sum64()
}

// firstSeen tracks, per input key, the first result digest and how many
// later results differed from it.
type firstSeen struct {
	digests map[string]uint64
	differ  int
}

// observe reports whether key is new.
func (f *firstSeen) observe(key string, digest uint64) (isNew bool) {
	if f.digests == nil {
		f.digests = map[string]uint64{}
	}
	first, ok := f.digests[key]
	if !ok {
		f.digests[key] = digest
		return true
	}
	if first != digest {
		f.differ++
	}
	return false
}

type compileSynth struct {
	ops     []synthOp
	pending []*planRecord // results of the op just timed, digested in after
	seen    firstSeen
	records map[string]*planRecord

	engines  *core.EngineStats // counting engines of the traced compilers
	replay   costReplay        // what the first traced op's DPs priced
	replayed bool
}

func (w *compileSynth) batch() int            { return 1 }
func (w *compileSynth) opsPerSecond() float64 { return 12 }
func (w *compileSynth) tracedOps() int        { return 9 }

func (w *compileSynth) setup(seed int64) error {
	all := genSynthOps(seed, warmupOps+opListLen)
	*w = compileSynth{ops: all[warmupOps:], records: map[string]*planRecord{}, engines: &core.EngineStats{}}
	for _, o := range all[:warmupOps] {
		if _, err := compileSuite(o, 0); err != nil {
			return err
		}
	}
	return nil
}

func (w *compileSynth) teardown() {}

func synthCompiler(mem synthMember, m int) *core.Compiler {
	return core.NewCompiler(ir.Synthetic(mem.s), cost.Unit(), map[string]int{"m": m}, mem.n)
}

// compileSuite is the op: a fresh compiler and a full Compile for every
// member, at program defaults (jobs = 0).
func compileSuite(o synthOp, jobs int) ([]*planRecord, error) {
	recs := make([]*planRecord, 0, len(o.Order))
	for _, k := range o.Order {
		mem := synthSuite[k]
		c := synthCompiler(mem, o.M)
		c.Jobs = jobs
		res, err := c.Compile()
		if err != nil {
			return nil, fmt.Errorf("compiling %s m=%d n=%d: %w", c.Program.Name, o.M, mem.n, err)
		}
		recs = append(recs, &planRecord{prog: c.Program, n: mem.n, m: o.M, res: res})
	}
	return recs, nil
}

func (w *compileSynth) op(i int) error {
	recs, err := compileSuite(w.ops[i%len(w.ops)], 0)
	w.pending = recs
	return err
}

func (w *compileSynth) after(int) {
	for _, r := range w.pending {
		key := fmt.Sprintf("%s/n%d/m%d", r.prog.Name, r.n, r.m)
		if w.seen.observe(key, planDigest(r.res)) {
			w.records[key] = r
		}
	}
	w.pending = nil
}

func (w *compileSynth) finish(int) (outcome, error) {
	out := outcome{nondeterministic: w.seen.differ}
	if want := len(synthSuite) * len(synthSizes); len(w.records) != want {
		return out, fmt.Errorf("compile-synth saw %d of %d suite inputs", len(w.records), want)
	}
	for _, key := range sortedKeys(w.records) {
		r := w.records[key]
		out.modelledCost += r.res.DP.MinimumCost
		out.verifyChecked++
		if err := checkPlan(r.prog, r.n, r.m, r.res); err != nil {
			out.verifyFailed++
			out.notes = append(out.notes, key+": "+err.Error())
		}
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// costReplay keeps the inputs of the cost queries a traced compile
// made, so the cost and dist layers can be timed on exactly those.
type costReplay struct {
	segments []costedSegment
	changes  []pricedChange
}

// costedSegment is one SegmentCost answer: the nests and the scheme set
// that won them.
type costedSegment struct {
	c     *core.Compiler
	nests []*ir.Nest
	ss    *core.SchemeSet
}

// pricedChange is one distinct scheme change ChangeCost priced.
type pricedChange struct {
	c        *core.Compiler
	from, to *core.SchemeSet
}

// timingCoster is the SegmentCoster handed to core.RunDP in the traced
// run: every cost query the DP makes becomes a span around the
// compiler's public method. Distinct scheme changes are counted on the
// enclosing span; keep, when non-nil, collects the queries' inputs.
type timingCoster struct {
	c     *core.Compiler
	tr    *tracer
	pairs map[[2]*core.SchemeSet]bool // scheme-set pairs already looked at
	seen  map[string]bool             // their distinct signature pairs
	keep  *costReplay
}

func (t *timingCoster) SegmentCost(i, j int) (float64, *core.SchemeSet, error) {
	t.tr.push("core.SegmentCost")
	v, ss, err := t.c.SegmentCost(i, j)
	t.tr.pop()
	if err == nil && t.keep != nil {
		t.keep.segments = append(t.keep.segments, costedSegment{t.c, t.c.Program.Nests[i-1 : i-1+j], ss})
	}
	return v, ss, err
}

func (t *timingCoster) ChangeCost(from, to *core.SchemeSet) (float64, error) {
	t.tr.push("core.ChangeCost")
	v, err := t.c.ChangeCost(from, to)
	t.tr.pop()
	// Signatures are what the compiler memoizes by and cost as much as a
	// memo hit to build, so they are built once per pair of scheme sets
	// and not once per call.
	if pair := [2]*core.SchemeSet{from, to}; !t.pairs[pair] {
		t.pairs[pair] = true
		if key := from.Signature() + "=>" + to.Signature(); !t.seen[key] {
			t.seen[key] = true
			if t.keep != nil {
				t.keep.changes = append(t.keep.changes, pricedChange{t.c, from, to})
			}
		}
	}
	return v, err
}

func (t *timingCoster) LoopCarriedCost(final *core.SchemeSet) (float64, error) {
	t.tr.push("core.LoopCarriedCost")
	v, err := t.c.LoopCarriedCost(final)
	t.tr.pop()
	return v, err
}

// distributedDim is the first array dimension mapped to a grid
// dimension with more than one processor, or -1: the input
// dep.DeriveMapping wants, derived as Compile derives it.
func distributedDim(ss *core.SchemeSet, array string) int {
	for k, d := range ss.Schemes[array].Dims {
		if !d.Replicated && ss.Grid.Extent(d.GridDim) > 1 {
			return k
		}
	}
	return -1
}

// pipelining runs the Sections 5-6 dependence analysis over the chosen
// segments, the last stage of Compile.
func pipelining(p *ir.Program, segs []core.Segment) []dep.PipelineDecision {
	var out []dep.PipelineDecision
	for _, seg := range segs {
		distDim := map[string]int{}
		for name := range p.Arrays {
			distDim[name] = distributedDim(seg.Schemes, name)
		}
		for _, nest := range p.Nests[seg.Start-1 : seg.Start-1+seg.Len] {
			mu, err := dep.DeriveMapping(p, nest, distDim)
			if err != nil {
				continue // a nest with no distributed LHS has nothing to pipeline
			}
			out = append(out, dep.DecidePipelining(p, nest, mu))
		}
	}
	return out
}

// tracedCompile is Compile taken apart into its public calls: validate,
// Algorithm 1 driven through the timing coster, the whole-program
// baseline and the pipelining analysis. It differs from Compile in one
// respect: Compile first warms the cost caches on all cores, a step
// that cannot be called from outside, so here the DP pays each query
// when it first asks (core.parallel_speedup says what the warm-up buys).
func tracedCompile(tr *tracer, c *core.Compiler, keep *costReplay) (*core.CompileResult, error) {
	p := c.Program
	if err := tr.call("ir.Validate", p.Validate); err != nil {
		return nil, err
	}
	tr.push("core.RunDP")
	tc := &timingCoster{c, tr, map[[2]*core.SchemeSet]bool{}, map[string]bool{}, keep}
	dp, err := core.RunDP(len(p.Nests), tc, p.Iterative)
	if err == nil {
		tr.count("segments", int64(len(dp.Segments)))
		tr.count("change_distinct", int64(len(tc.seen)))
	}
	tr.pop()
	if err != nil {
		return nil, err
	}
	tr.push("core.SegmentCost")
	whole, wholeSS, err := c.SegmentCost(1, len(p.Nests))
	tr.pop()
	if err != nil {
		return nil, err
	}
	if p.Iterative {
		tr.push("core.LoopCarriedCost")
		lc, err := c.LoopCarriedCost(wholeSS)
		tr.pop()
		if err != nil {
			return nil, err
		}
		whole += lc
	}
	res := &core.CompileResult{DP: dp, WholeProgramCost: whole}
	tr.push("dep.Pipelining")
	res.Pipelining = pipelining(p, dp.Segments)
	tr.pop()
	return res, nil
}

func (w *compileSynth) tracedOp(i int, tr *tracer) error {
	o := w.ops[i%len(w.ops)]
	var keep *costReplay
	if !w.replayed {
		keep, w.replayed = &w.replay, true
	}
	for _, k := range o.Order {
		mem := synthSuite[k]
		c := synthCompiler(mem, o.M)
		c.Engines = w.engines
		res, err := tracedCompile(tr, c, keep)
		if err != nil {
			return fmt.Errorf("compiling %s m=%d n=%d: %w", c.Program.Name, o.M, mem.n, err)
		}
		w.pending = append(w.pending, &planRecord{prog: c.Program, n: mem.n, m: o.M, res: res})
	}
	return nil
}

func (w *compileSynth) layers(lc *layerContext) error {
	members := float64(len(synthSuite))
	lc.set("ir.validate_us", 1e3*lc.opMedianMS("ir.Validate")/members)
	lc.set("dep.pipeline_us", 1e3*lc.opMedianMS("dep.Pipelining")/members)
	lc.set("core.segment_cost_ms", lc.opMedianMS("core.SegmentCost"))
	lc.set("core.segment_cost_calls", lc.callsPerOp("core.SegmentCost"))
	// The DP keeps its own M table, so every call it makes is a distinct
	// cell; the one extra call per member is the whole-program baseline,
	// answered from the compiler's memo.
	lc.set("core.segment_cost_distinct", lc.callsPerOp("core.SegmentCost")-members)
	lc.set("core.change_cost_ms", lc.opMedianMS("core.ChangeCost"))
	lc.set("core.change_cost_calls", lc.callsPerOp("core.ChangeCost"))
	lc.set("core.change_cost_distinct", lc.countPerOp("core.RunDP", "change_distinct"))
	lc.set("core.loop_carried_ms", lc.opMedianMS("core.LoopCarriedCost"))
	lc.set("core.dp_self_ms", lc.selfMedianMS("core.RunDP"))
	lc.set("core.segments", lc.countPerOp("core.RunDP", "segments"))
	engineLayer(lc, w.engines)

	// The suite at the program's defaults on every core, against one
	// worker on one core.
	op := w.ops[0]
	runtime.GOMAXPROCS(runtime.NumCPU())
	parallel, err := probe(5, func() error { _, err := compileSuite(op, 0); return err })
	runtime.GOMAXPROCS(benchProcs)
	if err != nil {
		return err
	}
	serial, err := probe(5, func() error { _, err := compileSuite(op, 1); return err })
	if err != nil {
		return err
	}
	lc.set("core.compile_ms", parallel)
	lc.set("core.compile_serial_ms", serial)
	lc.set("core.parallel_speedup", serial/parallel)
	// The growth of compile time with the number of nests, processor
	// count and size held fixed.
	for _, s := range []int{4, 8, 16} {
		ms, err := probe(3, func() error {
			_, err := synthCompiler(synthMember{s, 16}, 64).Compile()
			return err
		})
		if err != nil {
			return err
		}
		lc.set(fmt.Sprintf("core.compile_ms.s%d", s), ms)
	}
	var cs []*core.Compiler
	for _, mem := range synthSuite {
		cs = append(cs, synthCompiler(mem, op.M))
	}
	if err := alignLayer(lc, cs); err != nil {
		return err
	}
	if err := redistLayer(lc, w.replay.changes); err != nil {
		return err
	}
	return countNestLayer(lc, w.replay.segments)
}

// engineLayer reports which counting engine answered the traced
// compilers' nest-pricing calls, per op.
func engineLayer(lc *layerContext, es *core.EngineStats) {
	snap := es.Snapshot()
	a, f, e := float64(snap["analytic_hits"]), float64(snap["fastwalk_fallbacks"]), float64(snap["exact_fallbacks"])
	ops := float64(lc.ops)
	lc.set("cost.engine_analytic_hits", a/ops)
	lc.set("cost.engine_fastwalk_fallbacks", f/ops)
	lc.set("cost.engine_exact_fallbacks", e/ops)
	if a+f+e > 0 {
		lc.set("cost.analytic_hit_ratio", a/(a+f+e))
	}
}

// alignLayer times the two component-alignment steps on each program's
// whole nest set, the largest alignment problem its compile solves
// (every SegmentCost solves one for its own sub-sequence); per program.
func alignLayer(lc *layerContext, cs []*core.Compiler) error {
	graphs := make([]*align.Graph, len(cs))
	graph, err := probe(5, func() error {
		for k, c := range cs {
			g, err := align.BuildGraph(c.Program, c.Program.Nests, c.Weights)
			if err != nil {
				return err
			}
			graphs[k] = g
		}
		return nil
	})
	if err != nil {
		return err
	}
	exact, err := probe(5, func() error {
		for _, g := range graphs {
			if _, err := align.ExactAlign(g, 2); err != nil {
				return err
			}
		}
		return nil
	})
	lc.set("align.graph_us", 1e3*graph/float64(len(cs)))
	lc.set("align.exact_us", 1e3*exact/float64(len(cs)))
	return err
}

// redistLayer replays the redistribution-load calculators over the
// distinct scheme changes one op's compiles priced: every array of
// every change, as ChangeCost walks them. Times are per call.
func redistLayer(lc *layerContext, changes []pricedChange) error {
	type call struct {
		from, to *core.SchemeSet
		name     string
		shape    []int
	}
	var calls []call
	for _, ch := range changes {
		for _, name := range sortedKeys(ch.c.Program.Arrays) {
			arr := ch.c.Program.Arrays[name]
			shape := make([]int, arr.Rank())
			for k, e := range arr.Extents {
				shape[k] = e.Eval(ch.c.Bind)
			}
			calls = append(calls, call{ch.from, ch.to, name, shape})
		}
	}
	lc.set("dist.redist_loads_calls", float64(len(calls)))
	if len(calls) == 0 {
		return nil
	}
	each := func(f func(c call) error) func() error {
		return func() error {
			for _, c := range calls {
				if err := f(c); err != nil {
					return err
				}
			}
			return nil
		}
	}
	loads, err := probe(3, each(func(c call) error {
		_, err := dist.RedistLoads(c.from.Grid, c.to.Grid, c.shape, c.from.Schemes[c.name], c.to.Schemes[c.name])
		return err
	}))
	if err != nil {
		return err
	}
	scaled, err := probe(3, each(func(c call) error {
		_, err := dist.RedistLoadsScaled(c.from.Grid, c.to.Grid, c.shape, c.from.Schemes[c.name], c.to.Schemes[c.name])
		return err
	}))
	lc.set("dist.redist_loads_us", 1e3*loads/float64(len(calls)))
	lc.set("dist.redist_scaled_us", 1e3*scaled/float64(len(calls)))
	return err
}

// countNestLayer replays the nest counters over the segments one op's
// compiles priced, each under the scheme set that won it: the
// closed-form dispatcher and, on the same inputs, the enumeration
// oracle. Their ratio is what the fast path buys. Times are per call.
func countNestLayer(lc *layerContext, segs []costedSegment) error {
	calls := 0
	for _, s := range segs {
		calls += len(s.nests)
	}
	if calls == 0 {
		return nil
	}
	type counter func(*ir.Program, *ir.Nest, map[string]dist.Scheme, *grid.Grid, map[string]int, cost.CountOptions) (cost.Counts, error)
	replay := func(count counter) func() error {
		return func() error {
			for _, s := range segs {
				for _, nest := range s.nests {
					if _, err := count(s.c.Program, nest, s.ss.Schemes, s.ss.Grid, s.c.Bind, cost.CountOptions{}); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	fast, err := probe(3, replay(cost.CountNestOpts))
	if err != nil {
		return err
	}
	exact, err := probe(1, replay(cost.CountNestOptsExact))
	lc.set("cost.count_nest_us", 1e3*fast/float64(calls))
	lc.set("cost.count_nest_exact_us", 1e3*exact/float64(calls))
	return err
}
