// The compile driver: wires component alignment, exact cost counting, the
// dynamic programming algorithm, and the dependence-driven pipelining
// decision into the pipeline of the paper.
//
// The cost engine behind Algorithm 1 is built for speed:
//
//   - ChangeCost is computed analytically in integers
//     (dist.RedistLoadsScaled) from per-dimension owned-set intersections
//     instead of enumerating array elements; the element-wise oracle
//     remains available behind ExactChangeCost for ablation and property
//     testing.
//   - Nest execution counts go through cost.CountNestOpts, which answers
//     in closed form (intersections of the same owned sets,
//     dist.IndexSet, per dimension, factorized across dimensions) for
//     affine nests and falls straight to the reference enumeration
//     otherwise; ExactNestCount routes everything through that
//     enumeration for ablation and equivalence testing.
//   - Costs are memoized at four levels, each keyed by exactly what its
//     value depends on within one compiler. Segment costs by (i, j).
//     Under them, scheme sets by (partition assignment, grid shape,
//     cyclic flag): the segments of a DP share a handful of layouts
//     (245 derivations → 7 sets on the compile-synth suite), each derived,
//     validated and keyed once and shared by pointer. Under those, nest
//     counts by (nest, pass, grid, schemes of the arrays the nest
//     references): M[i][j] is a sum over the segment's nests, and a
//     nest's counts cannot see any other array, so the s(s+1)(s+2)/6 ×
//     shapes nest pricings of the DP collapse to one engine invocation
//     per distinct restricted scheme set (2448 → 48 on Synthetic(16),
//     N = 16). Redistribution and loop-carried costs by SchemeSet
//     signature (pairs). All keys are concatenations of per-array strings
//     a SchemeSet formats once, and a memoized set keeps each nest's key.
//   - What depends on the program and its binding alone is one Analysis,
//     built once and shared with every other consumer (exec, the
//     evaluator, the interpreter): the checked lowering, each nest's
//     referenced arrays and loop-carried reads, and each nest's
//     affinity-edge increments, which alignment sums per segment in a
//     pooled search (align.Affinity.AlignSegment). A PlanEvaluator's
//     per-size pricers share its tables under lowerings of their own.
//   - The DP's M[i][j] table, the scheme changes between the sets it
//     produced and their loop-carried costs are warmed on a worker pool
//     of GOMAXPROCS workers (precompute); one cell prices its grid shapes
//     in order. The warm-up only fills the memoization caches; the DP
//     itself then runs serially over cached values, so results are
//     bit-identical to Jobs=1.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dmcc/internal/align"
	"dmcc/internal/cost"
	"dmcc/internal/dep"
	"dmcc/internal/dist"
	"dmcc/internal/ir"
)

// Compiler compiles one program for a machine with NProcs processors.
type Compiler struct {
	Program *ir.Program
	Model   cost.Model
	// Bind gives values to the program's size parameters, e.g. {"m": 64}.
	Bind map[string]int
	// NProcs is the total processor count.
	NProcs int
	// Weights parameterizes affinity-graph edge weights. Their loop trip
	// counts are read from the program lowered under Bind; Weights.Bind,
	// which NewCompiler sets to Bind, is recorded in CacheKey only.
	Weights align.WeightParams
	// Jobs bounds the cost-table warm-up's workers; 0 means
	// runtime.GOMAXPROCS(0), 1 forces the serial path.
	Jobs int
	// ExactChangeCost prices redistribution with the element-enumeration
	// oracle instead of the analytic calculator (ablation/reference).
	ExactChangeCost bool
	// ExactNestCount prices every nest with the reference
	// iteration-space walker (cost.CountNestOptsExact) instead of the
	// closed forms — the oracle tier, kept for byte-identical-result
	// testing.
	ExactNestCount bool
	// Engines counts which counting engine answered each nest-pricing
	// call, so fast-path regressions (an eligible nest silently falling
	// back to enumeration) are observable. Safe for concurrent use; the
	// pointer is shared when an evaluator clones the compiler.
	Engines *EngineStats

	noCache   bool // no cost memoization: NewOracleCompiler, the evaluator's pricers
	mu        sync.Mutex
	segCache  map[[2]int]*memo[segValue]
	setCache  map[setKey]*memo[*SchemeSet]
	nestCache map[nestKey]*memo[nestValue]
	chgCache  map[[2]string]*memo[float64]
	lcCache   map[string]*memo[float64]

	anOnce sync.Once
	an     *Analysis
	anErr  error
}

// EngineStats are cumulative telemetry counters of the counting engines
// and the aligner. All fields are updated atomically.
type EngineStats struct {
	// AnalyticHits counts nest-pricing queries answered in closed form —
	// by the engine or by a memo entry the engine filled.
	AnalyticHits atomic.Int64
	// ExactFallbacks counts queries answered by the reference
	// enumerator: every nest under ExactNestCount, otherwise the ones the
	// closed forms declined.
	ExactFallbacks atomic.Int64
	// NestPricings counts engine invocations: the distinct nest-memo keys
	// of a compile, every query without memoization or under
	// ExactNestCount.
	NestPricings atomic.Int64
	// GreedyAlignments counts segment alignments answered by the greedy
	// heuristic because the affinity graph was past align.ExactMaxNodes.
	GreedyAlignments atomic.Int64
}

// Snapshot returns the current counter values as a map keyed the way the
// dmcc report and the daemon /metrics endpoint expose them.
func (s *EngineStats) Snapshot() map[string]int64 {
	if s == nil {
		s = &EngineStats{}
	}
	return map[string]int64{
		"analytic_hits":     s.AnalyticHits.Load(),
		"exact_fallbacks":   s.ExactFallbacks.Load(),
		"nest_pricings":     s.NestPricings.Load(),
		"greedy_alignments": s.GreedyAlignments.Load(),
	}
}

// nestKey identifies everything one nest's counts depend on within a
// compiler (whose program, binding and reduction pricing are fixed): the
// nest, the pass — which fixes the read filter and the skip options —
// and the grid and placement of the arrays the nest references.
type nestKey struct {
	nest    int
	carried bool
	schemes string // SchemeSet.restrictedKey over the nest's arrays
}

// setKey identifies a derived scheme set within a compiler: the
// partition's subset per (array, dimension) in ir.Program.AllDims order,
// one byte each, the grid shape and the cyclic flag. The partition's
// Method is the same for every segment of a program
// (align.Affinity.AlignSegment picks it by the node count, which is the
// program's), so it needs no place here.
type setKey struct {
	assign string
	shape  [2]int
	cyclic bool
}

type segValue struct {
	cost float64
	ss   *SchemeSet
}

type nestValue struct {
	ct  cost.Counts
	eng cost.Engine
}

// memo is one cache entry, filled under its sync.Once so concurrent
// queries of a key compute once and every reader sees the same value.
type memo[V any] struct {
	once sync.Once
	v    V
	err  error
}

// cached answers fn() from (*cache)[key], computing it on the key's
// first query; noCache computes afresh every time. A panic in fn becomes
// the entry's error (Guard), never a zero-valued success. An entry is
// allocated only on a miss.
func cached[K comparable, V any](c *Compiler, cache *map[K]*memo[V], key K, fn func() (V, error)) (V, error) {
	if c.noCache {
		return (&memo[V]{}).get(fn)
	}
	c.mu.Lock()
	e, ok := (*cache)[key]
	if !ok {
		if *cache == nil {
			*cache = map[K]*memo[V]{}
		}
		e = &memo[V]{}
		(*cache)[key] = e
	}
	c.mu.Unlock()
	return e.get(fn)
}

// get is the entry's value, computed by fn on its first query.
func (e *memo[V]) get(fn func() (V, error)) (V, error) {
	e.once.Do(func() {
		e.err = Guard(func() (err error) {
			e.v, err = fn()
			return err
		})
	})
	return e.v, e.err
}

// ErrPanic marks an error recovered from a panic by Guard.
var ErrPanic = errors.New("core: panic")

// Guard runs fn, turning a panic into an error that wraps ErrPanic: a
// pricing bug fails its compile instead of the process (worker
// goroutines are beyond any caller's recover), and a cache entry never
// records a panicked fill as a zero-cost success.
func Guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	return fn()
}

// NewCompiler returns a compiler with the standard configuration.
func NewCompiler(p *ir.Program, model cost.Model, bind map[string]int, nprocs int) *Compiler {
	wp := align.WeightParams{Bind: bind, N: nprocs, Tc: model.Tc}
	return &Compiler{Program: p, Model: model, Bind: bind, NProcs: nprocs, Weights: wp}
}

// NewOracleCompiler returns a compiler that prices by the oracles: every
// nest by the reference walker, every scheme change by element
// enumeration, and nothing memoized.
func NewOracleCompiler(p *ir.Program, model cost.Model, bind map[string]int, nprocs int) *Compiler {
	c := NewCompiler(p, model, bind, nprocs)
	c.ExactNestCount, c.ExactChangeCost, c.noCache = true, true, true
	return c
}

// jobs is the effective worker budget.
func (c *Compiler) jobs() int {
	if c.Jobs > 0 {
		return c.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// Analysis is what dmcc establishes about one program under one binding
// before anything is priced, run or interpreted, once for every consumer:
// the program's checked lowering (ir.Program.LowerChecked), each nest's
// referenced arrays and loop-carried reads, and the affinity increments
// alignment sums per segment, built once per weights' (N, Tc). It is safe
// for concurrent use.
type Analysis struct {
	low *ir.Lowered
	// The per-nest tables, built on first use (tables), since Thaw on a
	// fitted plan never reads them. refs[t] names the arrays nest t's
	// statements reference, sorted — the arrays whose schemes its counts
	// can depend on; lastWrite[a] is the (0-based) index of the last nest
	// writing a, empty unless the program is iterative.
	tablesOnce sync.Once
	refs       [][]string
	lastWrite  map[string]int

	mu  sync.Mutex
	aff map[[2]float64]*align.Affinity // by the weights' (N, Tc)
}

// Analyse validates p, lowers it under bind and checks its ranges at the
// bound size; its per-nest tables wait for their first reader.
func Analyse(p *ir.Program, bind map[string]int) (*Analysis, error) {
	lw, err := p.LowerChecked(bind)
	if err != nil {
		return nil, err
	}
	return &Analysis{low: lw}, nil
}

// tables returns an with its per-nest tables built, unless they were
// handed in (a size pricer shares its base's).
func (an *Analysis) tables() *Analysis {
	an.tablesOnce.Do(func() {
		if an.refs != nil {
			return
		}
		p := an.low.Program
		an.refs, an.lastWrite = make([][]string, len(p.Nests)), map[string]int{}
		var names []string // every nest's references, nest after nest
		for t, nest := range p.Nests {
			start := len(names)
			for _, st := range nest.Stmts {
				if p.Iterative {
					an.lastWrite[st.LHS.Array] = t
				}
				names = append(names, st.LHS.Array)
				for _, r := range st.Reads {
					names = append(names, r.Array)
				}
			}
			slices.Sort(names[start:])
			an.refs[t] = slices.Compact(names[start:])
		}
	})
	return an
}

// Lowered is the program lowered under the analysis's binding, shared by
// every reader: it must not be re-bound (a size pricer re-binds a
// lowering of its own).
func (an *Analysis) Lowered() *ir.Lowered { return an.low }

// Compiler is NewCompiler's compiler of the analysed program, which reads
// an instead of analysing the program again.
func (an *Analysis) Compiler(model cost.Model, nprocs int) *Compiler {
	c := NewCompiler(an.low.Program, model, an.low.Bind, nprocs)
	c.an = an
	return c
}

// affinity is the program's affinity increments under wp's N and Tc,
// built on first use (align.NewAffinity reads no other weight).
func (an *Analysis) affinity(wp align.WeightParams) *align.Affinity {
	key := [2]float64{float64(wp.N), wp.Tc}
	an.mu.Lock()
	defer an.mu.Unlock()
	if an.aff[key] == nil {
		if an.aff == nil {
			an.aff = map[[2]float64]*align.Affinity{}
		}
		an.aff[key] = align.NewAffinity(an.low, wp)
	}
	return an.aff[key]
}

// analysis is the compiler's Analysis — handed in (Analysis.Compiler, a
// PlanEvaluator's pricers) or built from Program and Bind on first use —
// once the processor count is checked.
func (c *Compiler) analysis() (*Analysis, error) {
	c.anOnce.Do(func() {
		if c.NProcs < 1 {
			c.anErr = fmt.Errorf("core: %d processors, below 1", c.NProcs)
		} else if c.an == nil {
			c.an, c.anErr = Analyse(c.Program, c.Bind)
		}
	})
	return c.an, c.anErr
}

// AffinityGraph is the whole program's component affinity graph under the
// compiler's weights, replayed from its analysis: align.BuildGraph's
// graph without a second lowering.
func (c *Compiler) AffinityGraph() (*align.Graph, error) {
	an, err := c.analysis()
	if err != nil {
		return nil, err
	}
	return an.affinity(c.Weights).Graph(0, len(c.Program.Nests)), nil
}

// schemeSet is the scheme set DeriveSchemes makes of an alignment on one
// grid shape, derived and validated once per compiler per setKey and
// shared by pointer between every segment and worker that asks for it
// (noCache derives afresh). assign is the alignment's subset per array
// dimension in ir.Program.AllDims order, one byte each — the search's own
// answer (align.Affinity.AlignSegment) and the key's assign — and method
// the algorithm that found it; the Partition map is built only when the
// set is derived. A shared set must not depend on the segment that
// happened to build it, so it keeps the assignment and method but not
// the segment-specific cut weight. It also carries, for this compiler's
// program, each nest's key in the nest memo.
func (c *Compiler) schemeSet(assign []byte, method string, shape [2]int, cyclic bool) (*SchemeSet, error) {
	an, err := c.analysis()
	if err != nil {
		return nil, err
	}
	derive := func() (*SchemeSet, error) {
		ss, err := deriveSchemes(an.low, partitionOf(an.low, assign, method), shape, cyclic)
		if err != nil || c.noCache {
			return ss, err
		}
		nestRefs := an.tables().refs
		ss.nestKeys = make([]string, len(nestRefs))
		for t, refs := range nestRefs {
			ss.nestKeys[t] = ss.restrictedKey(refs)
		}
		ss.keysOf = an
		return ss, nil
	}
	if !c.noCache {
		// A hit converts assign in the index expression, which allocates
		// nothing; cached's key is kept, so it is made only on a miss.
		c.mu.Lock()
		e := c.setCache[setKey{string(assign), shape, cyclic}]
		c.mu.Unlock()
		if e != nil {
			return e.get(derive)
		}
	}
	return cached(c, &c.setCache, setKey{string(assign), shape, cyclic}, derive)
}

// partitionOf is the Partition of subsets assign, one byte per array
// dimension of lw in ir.Program.AllDims order.
func partitionOf(lw *ir.Lowered, assign []byte, method string) align.Partition {
	pt := align.Partition{Assign: make(map[ir.DimID]int, len(assign)), Method: method}
	i := 0
	for a, name := range lw.Names {
		for k := range lw.Shapes[a] {
			pt.Assign[ir.DimID{Array: name, Dim: k}] = int(assign[i])
			i++
		}
	}
	return pt
}

// checkSchemes validates a scheme set a caller handed in the way
// deriveSchemes validates the sets it makes — every array a nest references
// has a scheme dist.Scheme.Validate accepts for the array's shape on the
// set's grid — so the nest counts behind it may skip the check.
func (c *Compiler) checkSchemes(ss *SchemeSet) error {
	an, err := c.analysis()
	if err != nil {
		return err
	}
	lw := an.low
	for _, refs := range an.tables().refs {
		for _, name := range refs {
			s, ok := ss.Schemes[name]
			if !ok {
				return fmt.Errorf("core: no scheme for array %s", name)
			}
			if err := s.Validate(ss.Grid, lw.Shapes[lw.Array(name)]); err != nil {
				return fmt.Errorf("core: scheme for %s: %v", name, err)
			}
		}
	}
	return nil
}

// loopCarried reports whether a read of array a in nest t (0-based) takes
// its value from a later write of the same iteration-body pass — a write
// by nest t or after — i.e. crosses the iterative loop's back edge.
func (an *Analysis) loopCarried(t int, a string) bool {
	last, written := an.tables().lastWrite[a]
	return written && last >= t
}

// fanOut runs fn(k) for k in [0, n) on at most jobs() workers, each
// taking the next index until none is left. fn must be safe to run
// concurrently with other indices. A panicking call is recovered into
// its error (Guard); the lowest-index error is returned.
func (c *Compiler) fanOut(n int, fn func(k int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for {
			k := int(next.Add(1)) - 1
			if k >= n {
				return
			}
			errs[k] = Guard(func() error { return fn(k) })
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(c.jobs(), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// countNest prices nest t (0-based) under ss for one of the two passes:
// the segment pass (carried = false: every read that is not loop-carried,
// flops and reductions) or the loop-carried pass (carried = true: only
// the loop-carried reads' words). Answers are memoized per nestKey, so
// the DP's s³/6 queries cost one engine invocation per distinct (nest,
// pass, grid, referenced schemes); noCache and ExactNestCount — and with
// them a PlanEvaluator's per-size compilers, which price every nest once
// — go to the engine directly.
func (c *Compiler) countNest(t int, carried bool, ss *SchemeSet) (cost.Counts, error) {
	an, err := c.analysis()
	if err != nil {
		return cost.Counts{}, err
	}
	price := func() (nestValue, error) { return c.priceNest(an, t, carried, ss) }
	var v nestValue
	if c.noCache || c.ExactNestCount {
		v, err = price()
	} else {
		v, err = cached(c, &c.nestCache, nestKey{t, carried, ss.nestKey(an, t)}, price)
	}
	if c.Engines != nil && err == nil {
		if v.eng == cost.EngineAnalytic {
			c.Engines.AnalyticHits.Add(1)
		} else {
			c.Engines.ExactFallbacks.Add(1)
		}
	}
	return v.ct, err
}

// priceNest is one invocation of the counting engine the configuration
// selects: closed forms with the reference walker behind them by
// default, the reference walker alone under ExactNestCount.
func (c *Compiler) priceNest(an *Analysis, t int, carried bool, ss *SchemeSet) (v nestValue, err error) {
	if c.Engines != nil {
		c.Engines.NestPricings.Add(1)
	}
	opts := cost.CountOptions{
		IncludeRead: func(a string) bool { return an.loopCarried(t, a) == carried },
		Carried:     carried,
	}
	// ss was validated when it was derived (schemeSet) or handed in
	// (checkSchemes), against the same shapes on the same grid.
	if c.ExactNestCount {
		v.eng = cost.EngineExact
		v.ct, err = cost.CountValidatedNestExact(an.low, t, ss.Schemes, ss.Grid, opts)
		return v, err
	}
	v.ct, v.eng, err = cost.CountValidatedNest(an.low, t, ss.Schemes, ss.Grid, opts)
	return v, err
}

// alignNests partitions the affinity graph of nests lo..hi-1 (0-based)
// in s: the segment's edges summed from the per-nest increments computed
// once per compiler from its lowering (align.Affinity.AlignSegment). It
// returns s's subset bytes, one per array dimension in AllDims order, and
// the algorithm the graph's size picked; a heuristic answer is counted.
func (c *Compiler) alignNests(lo, hi int, s *align.Search) ([]byte, string, error) {
	an, err := c.analysis()
	if err != nil {
		return nil, "", err
	}
	assign, _, method, err := an.affinity(c.Weights).AlignSegment(lo, hi, 2, s)
	if err == nil && method != "exact" && c.Engines != nil {
		c.Engines.GreedyAlignments.Add(1)
	}
	return assign, method, err
}

// searches holds the alignment searches' storage, one per concurrent
// Candidates call.
var searches = sync.Pool{New: func() any { return new(align.Search) }}

// SegmentCost implements SegmentCoster: M[i][j] is the cheapest execution
// cost of nests L_i..L_{i+j-1} under a single scheme set derived from the
// subsequence's own component alignment, minimized over the candidate
// grid shapes of Section 3. Loop-carried reads are excluded here and
// priced by LoopCarriedCost. Results are memoized by (i,j).
func (c *Compiler) SegmentCost(i, j int) (float64, *SchemeSet, error) {
	v, err := cached(c, &c.segCache, [2]int{i, j}, func() (segValue, error) { return c.segmentCost(i, j) })
	if errors.Is(err, ErrPanic) {
		err = fmt.Errorf("core: segment (%d,%d): %w", i, j, err)
	}
	return v.cost, v.ss, err
}

func (c *Compiler) segmentCost(i, j int) (segValue, error) {
	sets, costs, err := c.Candidates(i, j, GridShapes(c.NProcs))
	if err != nil {
		return segValue{}, err
	}
	// Serial reduce in shape order with a strict < keeps the winning
	// shape identical to the historical serial loop on ties.
	var best *SchemeSet
	bestCost := 0.0
	for k := range sets {
		if best == nil || costs[k] < bestCost {
			best, bestCost = sets[k], costs[k]
		}
	}
	return segValue{bestCost, best}, nil
}

// Candidates prices the segment (i, j) — nests L_i..L_{i+j-1} — on each
// of the given grid shapes, in order, under the segment's own alignment:
// the scheme set for each shape and its Σ nest times, loop-carried reads
// excluded. SegmentCost minimizes over GridShapes(NProcs); a caller may
// pass any shapes of NProcs processors.
func (c *Compiler) Candidates(i, j int, shapes [][2]int) ([]*SchemeSet, []float64, error) {
	if i < 1 || j < 1 || i+j-1 > len(c.Program.Nests) {
		return nil, nil, fmt.Errorf("core: segment (%d,%d) out of range", i, j)
	}
	search := searches.Get().(*align.Search)
	defer searches.Put(search)
	assign, method, err := c.alignNests(i-1, i-1+j, search)
	if err != nil {
		return nil, nil, err
	}
	cyclic := false
	for _, n := range c.Program.Nests[i-1 : i-1+j] {
		if Triangular(n) {
			cyclic = true
		}
	}
	sets := make([]*SchemeSet, len(shapes))
	costs := make([]float64, len(shapes))
	for k, shape := range shapes {
		if shape[0] < 1 || shape[1] < 1 || shape[0]*shape[1] != c.NProcs {
			return nil, nil, fmt.Errorf("core: grid shape %dx%d is not %d processors", shape[0], shape[1], c.NProcs)
		}
		ss, err := c.schemeSet(assign, method, shape, cyclic)
		if err != nil {
			return nil, nil, err
		}
		for t := i - 1; t < i-1+j; t++ {
			ct, err := c.countNest(t, false, ss)
			if err != nil {
				return nil, nil, err
			}
			costs[k] += ct.Time(c.Model).Total()
		}
		sets[k] = ss
	}
	return sets, costs, nil
}

// ChangeCost prices redistributing every array from one scheme set to
// the next: for each element a destination owner lacks, one word is
// received, and the matching send is split evenly across the element's
// current owners (a replicated array's copies share the send load
// instead of overloading one canonical replica — the cheapest static
// split, and the one the analytic calculator models; see
// dist.RedistLoadsScaled). The time estimate is the most-loaded
// processor's traffic, like Counts.Time: the exact bottleneck
// MaxNum/Den rounded once, times Tc — the figure a fitted plan
// evaluates too. Results are memoized by signature pair.
func (c *Compiler) ChangeCost(from, to *SchemeSet) (float64, error) {
	if from == nil || to == nil {
		return 0, fmt.Errorf("core: ChangeCost on nil scheme set")
	}
	return cached(c, &c.chgCache, [2]string{from.Signature(), to.Signature()}, func() (float64, error) {
		if c.ExactChangeCost {
			loads := dist.NewLoads()
			err := c.eachArrayChange(from, to, func(shape []int, sFrom, sTo dist.Scheme) error {
				loads.Add(dist.RedistLoadsExact(from.Grid, to.Grid, shape, sFrom, sTo))
				return nil
			})
			return loads.MaxLoad() * c.Model.Tc, err
		}
		var sl dist.ScaledLoads
		if err := c.changeLoads(from, to, &sl); err != nil {
			return 0, err
		}
		return sl.MaxLoad() * c.Model.Tc, nil
	})
}

// changeLoads sets acc to a scheme change's bill in exact integer
// arithmetic: every array's dist.RedistLoadsScaled loads merged over a
// common replica denominator, accumulated in place
// (ScaledLoads.AddRedist) in acc's maps, emptied first.
func (c *Compiler) changeLoads(from, to *SchemeSet, acc *dist.ScaledLoads) error {
	clear(acc.In)
	clear(acc.Out)
	acc.Den, acc.Words = 1, 0
	return c.eachArrayChange(from, to, func(shape []int, sFrom, sTo dist.Scheme) error {
		return acc.AddRedist(from.Grid, to.Grid, shape, sFrom, sTo)
	})
}

// eachArrayChange visits every array of the program, in name order, with
// its shape under the compiler's binding and its scheme on either side of
// the change.
func (c *Compiler) eachArrayChange(from, to *SchemeSet, visit func(shape []int, sFrom, sTo dist.Scheme) error) error {
	an, err := c.analysis()
	if err != nil {
		return err
	}
	lw := an.low
	for a, name := range lw.Names {
		sFrom, ok1 := from.Schemes[name]
		sTo, ok2 := to.Schemes[name]
		if !ok1 || !ok2 {
			return fmt.Errorf("core: array %s missing from a scheme set", name)
		}
		if err := visit(lw.Shapes[a], sFrom, sTo); err != nil {
			return err
		}
	}
	return nil
}

// LoopCarriedCost prices the loop-carried reads (the CTime2 term of
// Fig 3) under the final segment's schemes: the words needed to bring
// each updated array from its owners to the processors that read it at
// the top of the next iteration. Results are memoized by signature.
func (c *Compiler) LoopCarriedCost(final *SchemeSet) (float64, error) {
	if !c.Program.Iterative {
		return 0, nil
	}
	return cached(c, &c.lcCache, final.Signature(),
		func() (float64, error) { return c.loopCarriedCost(final) })
}

func (c *Compiler) loopCarriedCost(final *SchemeSet) (float64, error) {
	if err := c.checkSchemes(final); err != nil {
		return 0, err
	}
	total := 0.0
	for t := range c.Program.Nests {
		ct, err := c.countNest(t, true, final)
		if err != nil {
			return 0, err
		}
		total += ct.Time(c.Model).Comm
	}
	return total, nil
}

// precompute fills the cost caches on jobs() workers: every segment
// cost M[i][j], then every redistribution cost between the distinct
// scheme sets those segments produced (plus the loop-carried cost of
// each candidate final scheme). The subsequent serial DP is then pure
// cache lookups, which is what keeps parallel output bit-identical to
// the serial path.
func (c *Compiler) precompute(s int) {
	if c.noCache || c.jobs() == 1 {
		return
	}
	type ij struct{ i, j int }
	var keys []ij
	for j := 1; j <= s; j++ {
		for i := 1; i+j-1 <= s; i++ {
			keys = append(keys, ij{i, j})
		}
	}
	// Warm-up only: a failed query's error is cached and resurfaces when
	// RunDP asks again, so the fan-outs' own errors are dropped.
	_ = c.fanOut(len(keys), func(k int) error {
		_, _, err := c.SegmentCost(keys[k].i, keys[k].j)
		return err
	})
	// Distinct scheme sets, in a deterministic order.
	bySig := map[string]*SchemeSet{}
	var sigs []string
	for _, key := range keys {
		_, ss, err := c.SegmentCost(key.i, key.j)
		if err != nil || ss == nil {
			continue
		}
		sig := ss.Signature()
		if _, ok := bySig[sig]; !ok {
			bySig[sig] = ss
			sigs = append(sigs, sig)
		}
	}
	sort.Strings(sigs)
	type pair struct{ from, to *SchemeSet }
	var pairs []pair
	for _, a := range sigs {
		for _, b := range sigs {
			if a != b {
				pairs = append(pairs, pair{bySig[a], bySig[b]})
			}
		}
	}
	_ = c.fanOut(len(pairs), func(k int) error {
		_, err := c.ChangeCost(pairs[k].from, pairs[k].to)
		return err
	})
	if c.Program.Iterative {
		_ = c.fanOut(len(sigs), func(k int) error {
			_, err := c.LoopCarriedCost(bySig[sigs[k]])
			return err
		})
	}
}

// CompileResult is the full outcome of the pipeline for one program.
type CompileResult struct {
	DP *DPResult
	// WholeProgram is the single-scheme baseline M[1][s] (+ loop-carried),
	// i.e. the Section 3 method, for comparison with the DP plan.
	WholeProgramCost float64
	// Pipelining holds the per-nest dependence analysis and decision
	// under the final scheme's distribution (Sections 5-6).
	Pipelining []dep.PipelineDecision
}

// Compile runs the full pipeline: per-segment alignment + Algorithm 1 +
// pipelining analysis. With Jobs != 1 the cost tables are precomputed in
// parallel first; the DP itself always runs serially over the caches, so
// the result does not depend on Jobs.
func (c *Compiler) Compile() (*CompileResult, error) {
	if _, err := c.analysis(); err != nil {
		return nil, err
	}
	s := len(c.Program.Nests)
	c.precompute(s)
	res, err := RunDP(s, c, c.Program.Iterative)
	if err != nil {
		return nil, err
	}
	whole, wholeSS, err := c.SegmentCost(1, s)
	if err != nil {
		return nil, err
	}
	if c.Program.Iterative {
		lc, err := c.LoopCarriedCost(wholeSS)
		if err != nil {
			return nil, err
		}
		whole += lc
	}
	out := &CompileResult{DP: res, WholeProgramCost: whole}

	// Pipelining analysis per nest under its chosen segment's schemes.
	for _, seg := range res.Segments {
		for t := seg.Start - 1; t < seg.Start-1+seg.Len; t++ {
			nest := c.Program.Nests[t]
			distDim := map[string]int{}
			for name := range c.Program.Arrays {
				distDim[name] = distributedDim(seg.Schemes, name)
			}
			mu, err := dep.DeriveMapping(c.Program, nest, distDim)
			if err != nil {
				// Nests with no distributed LHS (fully replicated) have
				// nothing to pipeline.
				continue
			}
			out.Pipelining = append(out.Pipelining, dep.DecidePipelining(c.Program, nest, mu))
		}
	}
	return out, nil
}

// distributedDim returns the first array dimension mapped to a grid
// dimension with more than one processor, or -1 if the array is
// effectively replicated or serial.
func distributedDim(ss *SchemeSet, array string) int {
	s, ok := ss.Schemes[array]
	if !ok {
		return -1
	}
	for k, d := range s.Dims {
		if d.Replicated {
			continue
		}
		if ss.Grid.Extent(d.GridDim) > 1 {
			return k
		}
	}
	return -1
}
