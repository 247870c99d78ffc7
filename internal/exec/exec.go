// Package exec is the straightforward compiler backend: it executes any
// IR program directly on the simulated machine under a plan — segments
// of its nests, each under a set of distribution schemes, joined by
// scheme changes (change.go) — using the owner-computes rule, Transfers
// for remote operands, and Reductions for travelling accumulators.
//
// Two engines run the same owner-computes program. RunExact is the
// "naive" compilation the paper warns about — "A naive compiler may
// generate a lot of OneToManyMulticast operations ... It will certainly
// incur excessive communication overhead" (Section 6) — made executable:
// every processor walks the full iteration space in lockstep and ships
// every remote operand as its own one-word message. It is the oracle,
// and its Stats are the Section 6 naive figure. It walks, names elements
// and evaluates as Run does, on ir.Lower's forms (ir.LNest.Walk, elemAt,
// ir.LStmt.Eval), so the two differ only in what moves the values.
//
// Run is the engine the tools use, and its Stats are the run it
// executed. An inspector pass (schedule.go) walks each nest once per
// (nest, env-binding) and precomputes per processor pair the ordered
// element list crossing the wire; the executor (executor.go) moves each
// pair's epoch traffic as one vectored Send — every exchange sends before
// it receives and puts at most one message on each ordered pair per
// round, so the schedule cannot deadlock. Its Values and flops equal
// RunExact's; its messages and words never exceed them.
//
// Reductions are handled the way a dataflow-correct naive backend must:
// partial sums accumulate at the owners of the anchoring operand and are
// combined at the accumulator's owner the moment any later statement
// reads it (or at nest end), which preserves even SOR's interleaved
// update semantics.
package exec

import (
	"fmt"
	"sync"
	"time"

	"dmcc/internal/core"
	"dmcc/internal/dist"
	"dmcc/internal/grid"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
)

// Result is the outcome of an execution.
type Result struct {
	// Values is the final global state of every array.
	Values ir.Storage
	// Stats is the simulated machine's own account of the run: clocks,
	// flop/message/word counts and per-pair traffic, traced through
	// cfg.Tracer. For Run that is the vectored transport (far fewer
	// messages than RunExact, never more words — the pruned reduction
	// fan-out can drop words a non-reader owner would have received —
	// MaxMsgWords up to a full epoch block); for RunExact it is the
	// per-element engine.
	Stats machine.Stats
	// Transport equals Stats. It stays only while the benchmark module
	// reads both; it goes with the ROADMAP benchmark-PR follow-up.
	Transport machine.Stats
	// SimWall is the wall-clock time of the machine phase — constructing
	// the machine and running the schedules on it — excluding schedule
	// building and result assembly. The scale sweep reports it next to
	// the end-to-end wall time.
	SimWall time.Duration
	// InspectWall and AssembleWall time Run's other stages: everything
	// before the machine phase (the per-run checks, the inspector walk,
	// cutting the executors' state, installing the input in it), and the
	// assembly of Values. The program's checked lowering precedes them:
	// exec.Run's own, and a Case's in its analysis.
	InspectWall, AssembleWall time.Duration
	// StoreWords and MaxProcStoreWords say how much array data Run's
	// simulated processors held: the sum and the maximum over ranks of the
	// local-store lengths, which is the sum over arrays of size times
	// replicas — deterministic, a property of the schemes. A plan of
	// several segments holds one set of stores per segment, and these are
	// the most any one segment's reach. Zero for RunExact.
	StoreWords, MaxProcStoreWords int
	// Segments is the plan the run executed, in order.
	Segments []Segment
}

// Segment is one segment of the plan a run executed: its loops, its grid,
// and what the scheme change into it moved.
type Segment struct {
	// Start and Len are the segment's loops, 1-based, as in core.Segment.
	Start, Len int
	Grid       *grid.Grid
	// ChangeWords is the words the change into the segment moves each
	// time the run crosses it: from the previous segment or, for the
	// first, from the last at an iterative program's iteration boundary,
	// crossed before every iteration but the first. Zero where the plan
	// has no such change.
	ChangeWords int
	// Nests is what one execution of each of the segment's nests does, in
	// order.
	Nests []NestCount
}

// NestCount is what one execution of a nest does under its segment's
// schemes, as the inspector scheduled it. The first four fields are
// cost.Counts' quantities, under its names; the counter prices none of
// the rest. A run's Stats.Flops is the sum over executed nests of
// TotalFlops + CombineFlops, its Stats.Words the sum of Words and of the
// ChangeWords of every change crossed.
type NestCount struct {
	// The statements' flops, in all and on the busiest rank.
	TotalFlops, MaxProcFlops int64
	// The distinct (element, executor) pairs an operand is shipped on, and
	// (element, contributor) pairs whose partial sum a root other than the
	// contributor combines. A ship after a write, or a second finalize,
	// moves words these do not count.
	RemoteWords, ReduceWords int64
	// The roots' folds, one flop per contributor per reduced element, and
	// the reduced totals delivered to live readers.
	CombineFlops, FanoutWords int64
	// Words is what the nest puts on the wire under the lowering the
	// schedule chose: its ships after the dedup window, its direct sends,
	// and its reductions' partials and fan-out, or a ring's hops.
	Words int64
}

// validate performs the per-run checks of both engines on a checked
// lowering (ir.Program.LowerChecked): the input is placeable
// (ir.Lowered.CheckInput), every statement that computes has a
// right-hand side, and every segment of the plan — its nests in order, on
// one number of processors — has a scheme for every array.
func validate(lw *ir.Lowered, segs []core.Segment, input ir.Storage) error {
	if err := lw.CheckInput(input); err != nil {
		return err
	}
	for _, nest := range lw.Program.Nests {
		for _, st := range nest.Stmts {
			if st.RHS == nil && st.Flops > 0 {
				return fmt.Errorf("exec: statement at line %d has no executable RHS", st.Line)
			}
		}
	}
	for _, seg := range segs {
		for _, name := range lw.Names {
			if _, ok := seg.Schemes.Schemes[name]; !ok {
				return fmt.Errorf("exec: no scheme for array %s", name)
			}
		}
	}
	return nil
}

// Run executes the program under the scheme set for the given number of
// outer iterations (ignored for non-iterative programs): the one-segment
// plan, through the same schedule a compiled plan runs (Case.Run), on
// the program's checked lowering under bind. input provides the initial
// array contents; scalars binds free scalar names.
//
// Communication is batched per (processor pair, epoch) via the
// inspector/executor schedule of schedule.go and moved by the simulated
// machine. The reported Stats, and the events cfg.Tracer receives
// (vectored sends, waits, and the machine.EvGather / EvFanout / EvRing
// reduction-phase markers), are that machine's.
func Run(p *ir.Program, ss *core.SchemeSet, bind map[string]int, scalars map[string]float64,
	iters int, cfg machine.Config, input ir.Storage) (Result, error) {
	lw, err := p.LowerChecked(bind)
	if err != nil {
		return Result{}, err
	}
	return run(lw, []core.Segment{{Start: 1, Len: len(p.Nests), Schemes: ss}}, scalars, iters, cfg, input)
}

// run executes a plan's segments in order on a checked lowering, each
// under its own schedule, crossing the scheme change between consecutive
// segments and, before every iteration but the first of an iterative
// program, the change from the last segment back to the first. It runs
// in a workspace from the pool and puts it back once the result is
// assembled.
func run(lw *ir.Lowered, segs []core.Segment, scalars map[string]float64,
	iters int, cfg machine.Config, input ir.Storage) (Result, error) {
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	return ws.execute(lw, segs, scalars, iters, cfg, input)
}

// execute is run in ws: it checks the run, builds its schedule in ws and
// runs it.
func (ws *workspace) execute(lw *ir.Lowered, segs []core.Segment, scalars map[string]float64,
	iters int, cfg machine.Config, input ir.Storage) (Result, error) {

	start := time.Now()
	if err := validate(lw, segs, input); err != nil {
		return Result{}, err
	}
	if _, err := buildPlan(lw, segs, scalars, ws); err != nil {
		return Result{}, err
	}
	return ws.run(lw.Program, iters, cfg, input, start)
}

// workspace is everything a run builds and then drops: the inspector's
// scratch (lowering, builder), the plan schedule with its segments'
// arenas, layouts and nests, the executors' state, the decoded input and
// the result assembly's buffers. A run takes one from workspaces and
// resets each piece in place as it builds it, so a warm run allocates
// only what outgrows an earlier run's high-water mark and what it
// returns; a cold run is the same code on an empty workspace. No field
// of a Result aliases it.
type workspace struct {
	lowering
	builder nestBuilder
	plan    planSchedule
	changes []*changeEpoch
	// ships, keep and last are redistEpoch's scratch; order and live
	// computeFanouts', at, idx and list buildRoles'.
	ships       []epochShip
	keep        []int
	last, order []int32
	live, at    []int32
	idx         []int32
	list        []peerWords
	execs       [][]valExec
	loads       []arrayLoad
	pos         []position
	keys        []byte
	ends        []int
	vals        []float64
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// position is where a rank's step goes on from: its iteration, segment
// and nest, and cur, the segment whose executor holds its current stores.
type position struct{ it, seg, nest, cur int32 }

// resize returns s with length n, reusing its storage when it has room;
// the elements keep what they held.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// zeroed is resize with every element zero.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reuse returns s with length n, each element an object it held before
// or a new one.
func reuse[T any](s []*T, n int) []*T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]*T, n-cap(s))...)
	}
	s = s[:n]
	for i := range s {
		if s[i] == nil {
			s[i] = new(T)
		}
	}
	return s
}

// run executes the plan built in the workspace on the machine and
// assembles the result; start is when Run began, for InspectWall.
func (ws *workspace) run(p *ir.Program, iters int, cfg machine.Config, input ir.Storage, start time.Time) (Result, error) {
	pl := &ws.plan
	if !p.Iterative {
		iters = 1
	}
	first := pl.segs[0]
	nprocs, nsegs := first.nprocs, len(pl.segs)

	// The state ends in the last segment's stores, or in the first's when
	// no iteration runs.
	last := nsegs - 1
	if iters < 1 {
		last = 0
	}
	fin := pl.segs[last]
	ws.execs = resize(ws.execs, nsegs)
	execs := ws.execs
	for k, s := range pl.segs {
		execs[k] = s.executors(execs[k])
	}
	ws.loads = buildLoads(first, input, ws.loads)
	for r := range execs[0] {
		execs[0][r].installInput(ws.loads)
	}
	ws.pos = zeroed(ws.pos, nprocs)
	pos := ws.pos
	simStart := time.Now()
	mach, err := machine.New(first.g, cfg)
	if err != nil {
		return Result{}, err
	}
	stats, err := mach.RunSteps(func(proc *machine.Proc) bool {
		me := proc.Rank()
		at := &pos[me]
		for ; int(at.it) < iters; at.it++ {
			for ; int(at.seg) < nsegs; at.seg++ {
				x := &execs[at.seg][me]
				if x.proc = proc; at.seg != at.cur {
					if !x.runChange(pl.changes[at.seg], &execs[at.cur][me]) {
						return false
					}
					at.cur = at.seg
				}
				for ; int(at.nest) < len(x.s.nests); at.nest++ {
					if !x.runNest(x.s.nests[at.nest]) {
						return false
					}
				}
				at.nest = 0
			}
			at.seg = 0
		}
		return true
	})
	if err != nil {
		return Result{}, err
	}
	assembleStart := time.Now()

	// Assemble the global state: each element from its first owner, in
	// ascending rank order, whose mark is set — an owner pruned from a
	// reduction fan-out holds a stale or unmarked copy, so the first owner
	// alone is not enough. Elements no owner wrote or loaded stay absent.
	// An array's keys are formatted into one buffer and sliced from one
	// string, and its map is made to its element count.
	out := ir.NewStorage(p)
	keys, ends, vals := ws.keys, ws.ends, ws.vals
	for a := range fin.arrays {
		am := &fin.arrays[a]
		if am.size == 0 {
			continue
		}
		keys, ends, vals = keys[:0], ends[:0], vals[:0]
		off := 0
		dist.ForEachIndex(am.ext, func(idx []int) { // row-major: idx is element off
			for _, o := range am.lay.owners(off) {
				if i, _ := fin.slabOff(o, mkElem(a, off)); execs[last][o].marked()[i] {
					keys = ir.AppendKey(keys, idx)
					ends, vals = append(ends, len(keys)), append(vals, execs[last][o].stores()[i])
					break
				}
			}
			off++
		})
		text, start := string(keys), 0
		elems := make(map[string]float64, len(vals))
		for k, end := range ends {
			elems[text[start:end]], start = vals[k], end
		}
		out[am.name] = elems
	}
	ws.keys, ws.ends, ws.vals = keys, ends, vals
	res := Result{Values: out, Stats: stats, Transport: stats,
		InspectWall: simStart.Sub(start), SimWall: assembleStart.Sub(simStart),
		AssembleWall: time.Since(assembleStart)}
	for k, s := range pl.segs {
		words := 0
		for r := 0; r < nprocs; r++ {
			w := s.storeWords(r)
			words += w
			res.MaxProcStoreWords = max(res.MaxProcStoreWords, w)
		}
		res.StoreWords = max(res.StoreWords, words)
		seg := Segment{Start: pl.plan[k].Start, Len: pl.plan[k].Len, Grid: s.g, Nests: make([]NestCount, len(s.nests))}
		for t, ns := range s.nests {
			seg.Nests[t] = ns.count
		}
		if c := pl.changes[k]; c != nil {
			seg.ChangeWords = c.words
		}
		res.Segments = append(res.Segments, seg)
	}
	return res, nil
}
