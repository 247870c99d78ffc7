// Package exec is the straightforward compiler backend: it executes any
// IR program directly on the simulated machine under a set of
// distribution schemes, using the owner-computes rule, per-element
// Transfers for remote operands, and per-element Reductions for
// travelling accumulators.
//
// This is precisely the "naive" compilation the paper warns about — "A
// naive compiler may generate a lot of OneToManyMulticast operations ...
// It will certainly incur excessive communication overhead" (Section 6)
// — made executable. The naive COST MODEL is preserved exactly: Run
// reports the simulated clocks, message counts and trace of an engine
// that walks the full iteration space in lockstep on every processor
// and ships every remote operand as its own one-word message
// (RunExact, kept as the oracle). The TRANSPORT, however, is batched:
// an inspector pass (schedule.go) walks each nest once per (nest,
// env-binding), precomputes per processor pair the ordered element list
// crossing the wire, and the executor (executor.go) moves each pair's
// epoch traffic as one vectored Send — every exchange sends before it
// receives and puts at most one message on each ordered pair per round,
// so the schedule cannot deadlock — while Result.Values and
// Result.Stats stay byte-identical to RunExact.
//
// Reductions are handled the way a dataflow-correct naive backend must:
// partial sums accumulate at the owners of the anchoring operand and are
// combined at the accumulator's owner the moment any later statement
// reads it (or at nest end), which preserves even SOR's interleaved
// update semantics.
package exec

import (
	"fmt"
	"time"

	"dmcc/internal/core"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
)

// Result is the outcome of an execution.
type Result struct {
	// Values is the final global state of every array.
	Values ir.Storage
	// Stats is the naive cost model's outcome: the simulated clocks,
	// flop/message/word counts (and trace events) of the per-element
	// lockstep engine, identical between Run and RunExact.
	Stats machine.Stats
	// Transport is what actually crossed the simulated wire: for Run,
	// the batched engine's vectored exchanges (far fewer messages,
	// never more words — the pruned reduction fan-out can drop words a
	// non-reader owner would have received — MaxMsgWords up to a full
	// epoch block); for RunExact it equals Stats.
	Transport machine.Stats
	// SimWall is the wall-clock time of the machine phase — constructing
	// the transport machine and running the schedules on it — excluding
	// schedule building, stats replay and result assembly. The scale
	// sweep reports it next to the end-to-end wall time.
	SimWall time.Duration
	// InspectWall, ReplayWall and AssembleWall time Run's other stages:
	// everything before the machine phase (validation, lowering, the
	// inspector walk, input bucketing), the naive-model stats replay, and
	// the assembly of Values.
	InspectWall, ReplayWall, AssembleWall time.Duration
	// StoreWords and MaxProcStoreWords say how much array data Run's
	// simulated processors held: the sum and the maximum over ranks of the
	// local-store lengths, which is the sum over arrays of size times
	// replicas — deterministic, a property of the schemes. Zero for
	// RunExact.
	StoreWords, MaxProcStoreWords int
}

// Options tune the batched engine's transport. The zero value is the
// default configuration: no transport tracer.
type Options struct {
	// TransportTracer, when non-nil, receives the batched transport's
	// own trace events — vectored sends, waits, and the
	// gather/fan-out/ring phase markers (machine.EvGather, EvFanout,
	// EvRing). This is distinct from cfg.Tracer, which traces the naive
	// per-element model that Stats describes.
	TransportTracer machine.Tracer
}

// validate performs the shared pre-flight checks of both engines.
func validate(p *ir.Program, ss *core.SchemeSet, bind map[string]int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if err := p.CheckRanges(bind); err != nil {
		return err
	}
	for _, nest := range p.Nests {
		for _, st := range nest.Stmts {
			if st.RHS == nil && st.Flops > 0 {
				return fmt.Errorf("exec: statement at line %d has no executable RHS", st.Line)
			}
			// Only Reads are shipped to the executors; an operand missing
			// from them would be loaded, unshipped, from the local store.
			for _, r := range ir.ExprReads(st.RHS) {
				if !refIn(st.Reads, r) {
					return fmt.Errorf("exec: statement at line %d reads %s, which is not in its Reads %v", st.Line, r, st.Reads)
				}
			}
		}
	}
	for name := range p.Arrays {
		if _, ok := ss.Schemes[name]; !ok {
			return fmt.Errorf("exec: no scheme for array %s", name)
		}
	}
	return nil
}

// refIn reports whether reads holds a reference identical to r; String
// is canonical (variables sorted, zero terms dropped).
func refIn(reads []ir.Ref, r ir.Ref) bool {
	for _, rd := range reads {
		if rd.String() == r.String() {
			return true
		}
	}
	return false
}

// Run executes the program under the scheme set for the given number of
// outer iterations (ignored for non-iterative programs). input provides
// the initial array contents; scalars binds free scalar names.
//
// Communication is batched per (processor pair, epoch) via the
// inspector/executor schedule of schedule.go and moved by the simulated
// machine. The reported Stats (and trace events, if cfg.Tracer is set)
// are the naive per-element model's, bit-identical to RunExact; the
// batched transport's own statistics are returned as Result.Transport.
func Run(p *ir.Program, ss *core.SchemeSet, bind map[string]int, scalars map[string]float64,
	iters int, cfg machine.Config, input ir.Storage) (Result, error) {
	return RunOpts(p, ss, bind, scalars, iters, cfg, input, Options{})
}

// RunOpts is Run with transport options.
func RunOpts(p *ir.Program, ss *core.SchemeSet, bind map[string]int, scalars map[string]float64,
	iters int, cfg machine.Config, input ir.Storage, opt Options) (Result, error) {

	start := time.Now()
	if err := validate(p, ss, bind); err != nil {
		return Result{}, err
	}
	if !p.Iterative {
		iters = 1
	}

	sched, err := buildSchedule(p, ss, bind, scalars)
	if err != nil {
		return Result{}, err
	}
	nprocs := sched.nprocs

	// Value pass: the batched transport computes every array element.
	// cfg.Tracer is replaced by the (usually nil) transport tracer —
	// the naive-model replay below feeds cfg.Tracer, so its events
	// describe the per-element schedule the Stats describe.
	vcfg := cfg
	vcfg.Tracer = opt.TransportTracer
	stores := make([][][]float64, nprocs)
	marks := make([][][]bool, nprocs)
	loads, err := buildLoads(sched, input)
	if err != nil {
		return Result{}, err
	}
	simStart := time.Now()
	mach, err := machine.New(ss.Grid, vcfg)
	if err != nil {
		return Result{}, err
	}
	transport, err := mach.Run(func(proc *machine.Proc) {
		x := newValExec(sched, proc)
		x.installInput(loads)
		for it := 0; it < iters; it++ {
			for _, ns := range sched.nests {
				x.runNest(ns)
			}
		}
		stores[x.me] = x.store
		marks[x.me] = x.has
	})
	if err != nil {
		return Result{}, err
	}
	replayStart := time.Now()

	// Timing pass: replay the per-element engine's event timeline
	// single-threadedly. The naive cost model is value-independent, so
	// this reproduces RunExact's Stats exactly.
	stats := sched.replayStats(iters, cfg)
	assembleStart := time.Now()

	// Assemble the global state: each element from its first owner, in
	// ascending rank order, whose mark is set — an owner pruned from a
	// reduction fan-out holds a stale or unmarked copy, so the first owner
	// alone is not enough. Elements no owner wrote or loaded stay absent.
	out := ir.NewStorage(p)
	for a := range sched.arrays {
		am := &sched.arrays[a]
		elems := out[am.name]
		for off, i := range am.loc {
			for _, o := range am.cellOwners[am.cell[off]] {
				if marks[o][a][i] {
					_, idx := sched.decode(mkElem(a, off))
					elems[subKey(idx)] = stores[o][a][i]
					break
				}
			}
		}
	}
	res := Result{Values: out, Stats: stats, Transport: transport,
		InspectWall: simStart.Sub(start), SimWall: replayStart.Sub(simStart),
		ReplayWall: assembleStart.Sub(replayStart), AssembleWall: time.Since(assembleStart)}
	for r := 0; r < nprocs; r++ {
		w := sched.storeWords(r)
		res.StoreWords += w
		res.MaxProcStoreWords = max(res.MaxProcStoreWords, w)
	}
	return res, nil
}
