package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/exec"
	"dmcc/internal/grid"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

// execMember is one program run of an exec op.
type execMember struct {
	name    string
	mk      func() *ir.Program
	m, n    int
	iters   int
	scalars map[string]float64
	x0      bool // the program reads an initial X
}

// execGaussSuite is the inspector-bound profile: on Gauss the schedule
// builder and the single-threaded stats replay take most of the run and
// the machine the rest.
var execGaussSuite = []execMember{
	{name: "gauss", mk: ir.Gauss, m: 32, n: 16, iters: 1},
}

// execScaleSuite is the machine-bound profile: a thousand simulated
// processors, one matrix element each, exchanging small messages; the
// event machine is about four fifths of the run.
var execScaleSuite = []execMember{
	{name: "jacobi", mk: ir.Jacobi, m: 32, n: 1024, iters: 2, x0: true},
}

// execCase is a member made ready to run: program, schemes and input.
type execCase struct {
	execMember
	prog  *ir.Program
	bind  map[string]int
	ss    *core.SchemeSet
	input ir.Storage
	first *exec.Result // reference result, kept for the oracle check
}

func (c *execCase) key() string { return fmt.Sprintf("%s/m%d/n%d", c.name, c.m, c.n) }

// genExecInput fills A and B (and a zero X) with a seeded strictly
// diagonally dominant system, so Gauss needs no pivoting and Jacobi
// and SOR converge.
func genExecInput(p *ir.Program, m int, x0 bool, seed int64) ir.Storage {
	a, b, _ := matrix.DiagonallyDominant(m, seed)
	in := ir.NewStorage(p)
	for i := 1; i <= m; i++ {
		for j := 1; j <= m; j++ {
			in.Store("A", []int{i, j}, a.At(i-1, j-1))
		}
		in.Store("B", []int{i}, b[i-1])
		if x0 {
			in.Store("X", []int{i}, 0)
		}
	}
	return in
}

// prepareExec derives the member's whole-program schemes the way dmrun
// and the exec sweep do, and generates its input.
func prepareExec(mem execMember, seed int64) (*execCase, error) {
	p := mem.mk()
	bind := map[string]int{"m": mem.m}
	_, ss, err := core.NewCompiler(p, cost.Unit(), bind, mem.n).SegmentCost(1, len(p.Nests))
	if err != nil {
		return nil, fmt.Errorf("deriving schemes for %s: %w", mem.name, err)
	}
	return &execCase{execMember: mem, prog: p, bind: bind, ss: ss, input: genExecInput(p, mem.m, mem.x0, seed)}, nil
}

func (c *execCase) run() (exec.Result, error) {
	return exec.Run(c.prog, c.ss, c.bind, c.scalars, c.iters, machine.DefaultConfig(), c.input)
}

// execDigest folds a run's values, the naive model's statistics and
// what crossed the simulated wire. Values are combined with a
// commutative sum so map order does not matter.
func execDigest(r *exec.Result) uint64 {
	var values uint64
	for name, arr := range r.Values {
		for key, v := range arr {
			h := fnv.New64a()
			h.Write([]byte(name))
			h.Write([]byte(key))
			values += h.Sum64() * (math.Float64bits(v) | 1)
		}
	}
	h := fnv.New64a()
	put := func(v uint64) { binary.Write(h, binary.LittleEndian, v) } //nolint:errcheck — a hash never fails to write
	put(values)
	for _, s := range []machine.Stats{r.Stats, r.Transport} {
		put(math.Float64bits(s.ParallelTime))
		for _, v := range []int64{s.Flops, s.Messages, s.Words, s.MaxMsgWords, s.MaxPairMessages, s.MaxPairWords} {
			put(uint64(v))
		}
	}
	return h.Sum64()
}

// execWorkload runs a suite of cases per op.
type execWorkload struct {
	suite   []execMember
	rate    float64 // ops per nominal second
	cases   []*execCase
	pending []exec.Result
	seen    firstSeen
}

func (w *execWorkload) batch() int            { return 1 }
func (w *execWorkload) opsPerSecond() float64 { return w.rate }
func (w *execWorkload) tracedOps() int        { return 10 }

func (w *execWorkload) setup(seed int64) error {
	w.cases, w.pending, w.seen = nil, nil, firstSeen{}
	for k, mem := range w.suite {
		c, err := prepareExec(mem, seed+int64(k))
		if err != nil {
			return err
		}
		w.cases = append(w.cases, c)
	}
	for i := 0; i < warmupOps; i++ {
		if err := w.op(i); err != nil {
			return err
		}
	}
	w.pending = nil
	return nil
}

func (w *execWorkload) teardown() { w.cases = nil }

func (w *execWorkload) op(int) error {
	w.pending = w.pending[:0]
	for _, c := range w.cases {
		r, err := c.run()
		if err != nil {
			return fmt.Errorf("running %s: %w", c.key(), err)
		}
		w.pending = append(w.pending, r)
	}
	return nil
}

// tracedOp is the op with every exec.Run a span. The engine-dependent
// phase inside it (machine construction and the schedules' run on it)
// is reported by the program itself as Result.SimWall and entered as a
// child span of that length; the rest of the run's self time is the
// inspector, the statistics replay and result assembly.
func (w *execWorkload) tracedOp(_ int, tr *tracer) error {
	w.pending = w.pending[:0]
	for _, c := range w.cases {
		tr.push("exec.Run")
		r, err := c.run()
		if err == nil {
			tr.insert("machine.Run", r.SimWall)
			tr.count("transport_msgs", r.Transport.Messages)
		}
		tr.pop()
		if err != nil {
			return fmt.Errorf("running %s: %w", c.key(), err)
		}
		w.pending = append(w.pending, r)
	}
	return nil
}

func (w *execWorkload) after(int) {
	for k := range w.pending {
		r := &w.pending[k]
		c := w.cases[k]
		if w.seen.observe(c.key(), execDigest(r)) {
			first := *r
			c.first = &first
		}
	}
	w.pending = w.pending[:0]
}

func (w *execWorkload) finish(int) (outcome, error) {
	out := outcome{nondeterministic: w.seen.differ}
	for _, c := range w.cases {
		if c.first == nil {
			return out, fmt.Errorf("%s never ran", c.key())
		}
		out.modelledCost += c.first.Stats.ParallelTime
		out.verifyChecked++
		want, err := sequentialReference(c)
		if err != nil {
			return out, err
		}
		if _, err := checkValues(c.first.Values, want); err != nil {
			out.verifyFailed++
			out.notes = append(out.notes, c.key()+": "+err.Error())
		}
	}
	return out, nil
}

// sequentialReference runs the program through the sequential
// interpreter on a copy of the case's input.
func sequentialReference(c *execCase) (ir.Storage, error) {
	st := ir.NewStorage(c.prog)
	for name, arr := range c.input {
		for key, v := range arr {
			st[name][key] = v
		}
	}
	if err := ir.EvalProgram(c.prog, c.bind, st, c.scalars, c.iters); err != nil {
		return nil, err
	}
	return st, nil
}

func (w *execWorkload) layers(lc *layerContext) error {
	run, sim, outside := lc.opMedianMS("exec.Run"), lc.opMedianMS("machine.Run"), lc.selfMedianMS("exec.Run")
	lc.set("exec.run_ms", run)
	lc.set("exec.sim_ms", sim)
	lc.set("exec.outside_sim_ms", outside)
	lc.set("exec.outside_sim_share", outside/run)

	var naive, transport machine.Stats
	simTime := 0.0
	for _, c := range w.cases {
		if c.first == nil {
			return fmt.Errorf("%s never ran", c.key())
		}
		simTime += c.first.Stats.ParallelTime
		for _, pair := range []struct{ sum, add *machine.Stats }{{&naive, &c.first.Stats}, {&transport, &c.first.Transport}} {
			pair.sum.Messages += pair.add.Messages
			pair.sum.Words += pair.add.Words
			pair.sum.MaxPairWords = max(pair.sum.MaxPairWords, pair.add.MaxPairWords)
		}
	}
	lc.set("exec.naive_msgs", float64(naive.Messages))
	lc.set("exec.naive_words", float64(naive.Words))
	lc.set("exec.transport_msgs", float64(transport.Messages))
	lc.set("exec.transport_words", float64(transport.Words))
	lc.set("exec.max_pair_words", float64(transport.MaxPairWords))
	lc.set("exec.word_ratio", float64(transport.Words)/float64(naive.Words))
	lc.set("machine.sim_time", simTime)
	lc.set("machine.host_us_per_msg", 1e3*sim/float64(transport.Messages))

	before := readHost()
	if err := w.op(0); err != nil {
		return err
	}
	w.pending = w.pending[:0]
	lc.set("exec.alloc_mb_per_run", (readHost().allocKB-before.allocKB)/1024/float64(len(w.cases)))

	eval, err := probe(1, func() error {
		for _, c := range w.cases {
			if _, err := sequentialReference(c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lc.set("ir.eval_ms", eval)
	return ringLayer(lc)
}

// The ring probe: every processor of a 16x16 grid passes one word to
// its successor by rank and takes one from its predecessor, ringHops
// times. It is the machine runtimes' cost per message with nothing of
// exec around it, on the event runtime exec uses by default and on the
// goroutine runtime kept beside it.
const (
	ringSide = 16
	ringHops = 8
)

func ringBody(p machine.Port) {
	n := p.NumProcs()
	next, prev := (p.Rank()+1)%n, (p.Rank()+n-1)%n
	v := machine.Word(p.Rank())
	for h := 0; h < ringHops; h++ {
		p.SendValue(next, v)
		v = p.RecvValue(prev)
	}
}

func ringLayer(lc *layerContext) error {
	g := grid.New(ringSide, ringSide)
	hops := float64(ringSide * ringSide * ringHops)
	check := func(st machine.Stats, err error) error {
		if err == nil && st.Messages != int64(hops) {
			err = fmt.Errorf("ring probe sent %d messages, expected %d", st.Messages, int64(hops))
		}
		return err
	}
	events, err := probe(5, func() error {
		m, err := machine.NewEvent(g, machine.DefaultConfig())
		if err != nil {
			return err
		}
		return check(m.Run(func(p *machine.EventProc) { ringBody(p) }))
	})
	if err != nil {
		return err
	}
	goroutines, err := probe(5, func() error {
		m, err := machine.New(g, machine.DefaultConfig())
		if err != nil {
			return err
		}
		return check(m.Run(func(p *machine.Proc) { ringBody(p) }))
	})
	lc.set("machine.event_ring_us_per_hop", 1e3*events/hops)
	lc.set("machine.goroutine_ring_us_per_hop", 1e3*goroutines/hops)
	return err
}
