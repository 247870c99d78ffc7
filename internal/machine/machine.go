// Package machine provides the simulated tightly-coupled distributed
// memory machine the compiled programs of the paper run on.
//
// The abstract target (Section 2 of Lee & Tsai) is a q-D grid of
// N1 x ... x Nq processors executing an SPMD program and exchanging
// messages. There is one runtime, the discrete-event scheduler in
// events.go: every processor's body is a coroutine of it (Run) or a
// resumable step it calls (RunSteps), and every ordered processor
// pair that exchanges traffic has an unbounded FIFO queue, which gives
// the blocking-receive point-to-point semantics of the send/receive
// primitives in the paper's generated code (Figs 6 and 8). A Send never
// blocks, so no schedule can deadlock on buffer capacity; a schedule in
// which every processor waits for a message nobody will send is reported
// as a deadlock error instead of hanging.
//
// On top of point-to-point Send/Recv, the package implements the eight
// collective communication primitives of Section 2.2 (Transfer, Shift,
// OneToManyMulticast, Reduction, AffineTransform, Scatter, Gather,
// ManyToManyMulticast) with the hypercube algorithms whose costs appear
// in Table 1 (binomial trees for multicast/reduction, direct sends for
// scatter/gather, a ring pass for many-to-many). Each is written once
// (collectives.go), over Send/Recv and their uncounted, unpriced twins
// rawSend/rawRecv.
//
// Every processor carries a simulated clock. Computation advances the
// local clock by flops*Tf; a message sent at local time t arrives at
// t + Alpha + words*Tc and the receiver's clock advances to at least the
// arrival time. This reproduces the paper's execution-time model and, when
// Overlap is true, models hardware that overlaps communication with
// computation (the sender only pays the startup cost and keeps computing
// while the message is in flight, cf. the end of Section 5).
//
// A processor's values, clock and counters depend only on its own
// program order and on per-pair FIFO message order, so how a queued
// message waits for its receiver is the one thing a runtime decides.
// That is the links interface; the package's tests plug a
// goroutine-per-processor channel matrix into it as an independent
// reference and require identical Stats and traces from both.
package machine

import (
	"fmt"

	"dmcc/internal/grid"
)

// Word is the unit of data transferred between processors. The paper
// counts message sizes in words; we use float64 since all kernels are
// numerical.
type Word = float64

// Config parameterizes a simulated machine.
type Config struct {
	// Tf is the simulated time of one floating point operation.
	Tf float64
	// Tc is the simulated time to transfer one word.
	Tc float64
	// Alpha is the per-message startup time (the paper's model omits it;
	// it defaults to 0 and exists so sensitivity studies can include it).
	Alpha float64
	// Overlap, when true, lets a sender continue computing while its
	// message is in flight (it pays only Alpha locally). When false the
	// sender is busy for the whole transfer, as in a blocking send.
	Overlap bool
	// Tracer, when non-nil, receives an Event for every computation,
	// message, wait and collective with simulated start/end times.
	// Events arrive one at a time (under Run from each processor's
	// coroutine); package trace provides a collector.
	Tracer Tracer
}

// DefaultConfig returns the configuration used throughout the experiments:
// unit flop time, unit word-transfer time, no startup, no overlap.
// Collectives are always synchronous, the paper's Table 1 model.
func DefaultConfig() Config {
	return Config{Tf: 1, Tc: 1, Alpha: 0, Overlap: false}
}

// EventKind classifies trace events.
type EventKind int

const (
	// EvCompute is local floating point work.
	EvCompute EventKind = iota
	// EvSend is a message's transfer window: Start is the moment the
	// sender initiated it, End is the arrival time at the receiver. When
	// Overlap is false the window equals the sender's busy time; when
	// Overlap is true the sender is only busy for Alpha of it and the
	// rest is in-flight time overlapped with the sender's computation.
	EvSend
	// EvWait is idle time spent blocked for a message, collective
	// partner, or barrier.
	EvWait
	// EvCollective is time inside a synchronous collective.
	EvCollective
	// EvGather marks the partial-gathering phase of a vectored
	// reduction exchange (exec backend): one vectored partials message
	// per contributing pair converging on each root.
	EvGather
	// EvFanout marks the total-distribution phase of a vectored
	// reduction exchange: one vectored totals message per live reader
	// pair.
	EvFanout
	// EvRing marks a Section 5 ring-pipelined reduction step: the
	// running totals travelling neighbor-to-neighbor instead of
	// converging on an owner.
	EvRing
)

func (k EventKind) String() string {
	switch k {
	case EvCompute:
		return "compute"
	case EvSend:
		return "send"
	case EvWait:
		return "wait"
	case EvCollective:
		return "collective"
	case EvGather:
		return "gather"
	case EvFanout:
		return "fanout"
	case EvRing:
		return "ring"
	}
	return "event"
}

// Event is one traced activity of one processor.
type Event struct {
	Proc       int
	Kind       EventKind
	Start, End float64
	// Peer is the other processor for sends (-1 otherwise).
	Peer int
	// Words is the message size for sends.
	Words int
}

// Tracer receives events as they happen.
type Tracer interface {
	Record(Event)
}

type message struct {
	data    []Word
	arrival float64 // simulated arrival time at the receiver
}

// links is how a message queued on an ordered processor pair waits for
// its receiver: put queues msg on the pair (src, dst) with a copy of its
// payload (the sender may reuse msg.data at once), take returns the
// pair's next message in FIFO order, blocking the receiver until there
// is one, and either may panic with deadErr once a peer has failed.
// Everything else a processor does —
// pricing, counting, tracing, the collectives — is written against these
// two calls. The scheduler of events.go is the implementation; the
// channel matrix in this package's tests is the reference it is checked
// against.
type links interface {
	put(src *Proc, dst int, msg message)
	take(dst *Proc, src int) message
}

// Machine is a simulated q-D grid of processors.
type Machine struct {
	grid *grid.Grid
	cfg  Config
	net  links
	scheduler
}

// New creates a machine over the given processor grid. The error is
// always nil; the signature predates the removal of the last
// configuration check and is kept for its callers.
func New(g *grid.Grid, cfg Config) (*Machine, error) {
	m := &Machine{grid: g, cfg: cfg, scheduler: newScheduler(g.Size())}
	m.net = &m.scheduler
	return m, nil
}

// EventProc and NewEvent are the names the discrete-event runtime had
// while a goroutine-per-processor runtime existed beside it. bench/ still
// spells them; they go when its machine.goroutine_ring_us_per_hop probe
// does (ROADMAP).
//
// Deprecated: use Proc.
type EventProc = Proc

// Deprecated: use New.
func NewEvent(g *grid.Grid, cfg Config) (*Machine, error) { return New(g, cfg) }

// Proc is the per-processor execution context handed to the SPMD body.
// It implements Port. A Proc must only be used from the body function it
// was handed to.
type Proc struct {
	rank  int
	m     *Machine
	clock float64
	// counters: the flops, the largest message and, per destination rank,
	// the messages and words sent, sparsely keyed by live pairs in the
	// machine's tallies. Finalize traffic and operand ships go through the
	// same Send path, so the per-pair columns are comparable across
	// engines.
	flops       int64
	maxMsgWords int64
	peers       tallyRow
	// parked says a step's TryRecv waits on a queue.
	parked bool
}

// noteSend records one counted outbound message of the given size to
// dst on every counter.
func (p *Proc) noteSend(dst, words int) {
	if int64(words) > p.maxMsgWords {
		p.maxMsgWords = int64(words)
	}
	p.peers.note(&p.m.tallies, dst, words)
}

// Rank returns the linear rank of the processor ("who_am_i" in Fig 6).
func (p *Proc) Rank() int { return p.rank }

// Coord returns the processor's coordinate in grid dimension d.
func (p *Proc) Coord(d int) int { return p.m.grid.Coord(p.rank, d) }

// Grid returns the machine's processor grid.
func (p *Proc) Grid() *grid.Grid { return p.m.grid }

// NumProcs returns the total number of processors.
func (p *Proc) NumProcs() int { return p.m.grid.Size() }

// Clock returns the processor's current simulated time.
func (p *Proc) Clock() float64 { return p.clock }

// Compute advances the simulated clock by flops * Tf and counts the flops.
// It panics on negative flop counts (a sign of a broken cost annotation).
func (p *Proc) Compute(flops int) {
	if flops < 0 {
		panic(fmt.Sprintf("machine: negative flop count %d on processor %d", flops, p.rank))
	}
	p.flops += int64(flops)
	before := p.clock
	p.clock += float64(flops) * p.m.cfg.Tf
	if tr := p.m.cfg.Tracer; tr != nil && p.clock > before {
		tr.Record(Event{Proc: p.rank, Kind: EvCompute, Start: before, End: p.clock, Peer: -1})
	}
}

// Send transmits a copy of data to the processor with the given rank.
// It never blocks. Sending to oneself is allowed (the copy goes through
// the local queue with zero cost), which simplifies collective
// algorithms.
func (p *Proc) Send(dst int, data []Word) {
	if dst < 0 || dst >= p.m.grid.Size() {
		panic(fmt.Sprintf("machine: Send to invalid rank %d", dst))
	}
	var arrival float64
	if dst == p.rank {
		arrival = p.clock
	} else {
		cfg := &p.m.cfg
		before := p.clock
		p.clock, arrival = cfg.SendTiming(p.clock, len(data))
		p.noteSend(dst, len(data))
		// The event covers the message's true transfer window: Start is
		// when the sender initiated it, End is the arrival at the receiver.
		// Under Overlap the sender's own clock only advances by Alpha (it
		// keeps computing while the message is in flight), so guarding on
		// the sender clock would drop the event entirely when Alpha == 0;
		// guard on the arrival instead.
		if tr := cfg.Tracer; tr != nil && arrival > before {
			tr.Record(Event{Proc: p.rank, Kind: EvSend, Start: before, End: arrival, Peer: dst, Words: len(data)})
		}
	}
	p.m.net.put(p, dst, message{data: data, arrival: arrival})
}

// Recv receives the next message from the processor with rank src,
// blocking until it is available. The receiver's simulated clock advances
// to at least the message arrival time. The words are the run's: valid
// until Run returns, after which a later run may reuse them.
func (p *Proc) Recv(src int) []Word {
	if src < 0 || src >= p.m.grid.Size() {
		panic(fmt.Sprintf("machine: Recv from invalid rank %d", src))
	}
	return p.arrive(src, p.m.net.take(p, src))
}

// TryRecv is a step's Recv (Machine.RunSteps): it does what Recv does if
// the message is there, or parks the processor on the pair and returns
// false, and the step must then return false.
func (p *Proc) TryRecv(src int) ([]Word, bool) {
	if src < 0 || src >= p.m.grid.Size() {
		panic(fmt.Sprintf("machine: Recv from invalid rank %d", src))
	}
	s := &p.m.scheduler
	if s.step == nil || p.parked {
		panic("machine: TryRecv outside a step, or after it parked")
	}
	q := &s.pairs.queues[s.queue(src, p.rank)]
	switch {
	case !q.empty():
		return p.arrive(src, s.words.message(s.pairs.pop(q))), true
	case s.abortFlag:
		panic(deadErr)
	}
	q.waiter, p.parked = int32(p.rank+1), true
	return nil, false
}

// arrive advances the clock to msg's arrival from src, tracing the wait.
func (p *Proc) arrive(src int, msg message) []Word {
	if msg.arrival > p.clock {
		if tr := p.m.cfg.Tracer; tr != nil {
			tr.Record(Event{Proc: p.rank, Kind: EvWait, Start: p.clock, End: msg.arrival, Peer: src})
		}
		p.clock = msg.arrival
	}
	return msg.data
}

// rawSend transmits without advancing the simulated clock. Synchronous
// collectives use it: their time comes from the Table 1 formula, not from
// per-hop accounting. count selects whether the message enters the
// message/word statistics (true for payload, false for the internal
// clock-synchronization exchange, which on a real machine is implicit in
// the collective's own messages).
func (p *Proc) rawSend(dst int, data []Word, count bool) {
	if dst != p.rank && count {
		p.noteSend(dst, len(data))
	}
	p.m.net.put(p, dst, message{data: data})
}

// rawRecv receives without advancing the simulated clock.
func (p *Proc) rawRecv(src int) []Word { return p.m.net.take(p, src).data }

// deadErr is the panic value used to unwind processors after a peer
// failure; runBody filters it so only the root cause is reported.
const deadErr = "machine: aborted after peer failure"

// SendValue sends a single word.
func (p *Proc) SendValue(dst int, v Word) { p.Send(dst, []Word{v}) }

// RecvValue receives a single word, panicking if the message length is
// not 1 (a protocol error in the SPMD program).
func (p *Proc) RecvValue(src int) Word {
	d := p.Recv(src)
	if len(d) != 1 {
		panic(fmt.Sprintf("machine: RecvValue got message of %d words", len(d)))
	}
	return d[0]
}

// Note records a custom trace event spanning [start, end] on this
// processor if a tracer is attached. The exec backend uses it to mark
// the gather / fan-out / ring phases of its vectored reduction
// exchanges on the transport trace.
func (p *Proc) Note(kind EventKind, start, end float64, peer, words int) {
	if tr := p.m.cfg.Tracer; tr != nil && end > start {
		tr.Record(Event{Proc: p.rank, Kind: kind, Start: start, End: end, Peer: peer, Words: words})
	}
}

// runBody runs the SPMD body on p; a panic calls abort (which must
// unblock the peers) and becomes the processor's error. The error stays
// nil for a processor that was only unwound by a peer's failure
// (deadErr) — a casualty, not a cause: recording it would let a low-rank
// innocent processor mask the real error in outcome's first-error scan.
func runBody(p *Proc, body func(p *Proc), abort func()) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if rec != any(deadErr) {
				err = fmt.Errorf("machine: processor %d panicked: %v", p.rank, rec)
			}
			abort()
		}
	}()
	body(p)
	return nil
}

// outcome folds the processors' final counters into Stats, each one's
// per-peer list a view of its tally row, and returns err, the
// lowest-ranked root-cause error.
func outcome(procs []Proc, err error) (Stats, error) {
	var st Stats
	st.PerProc = make([]ProcStats, len(procs))
	for r := range procs {
		p := &procs[r]
		ps := &st.PerProc[r]
		*ps = ProcStats{Clock: p.clock, Flops: p.flops, MaxMsgWords: p.maxMsgWords}
		if row := p.peers.list(p.m.tallies); len(row) > 0 {
			ps.Peers = row[:len(row):len(row)]
		}
		for _, pr := range ps.Peers {
			ps.Messages, ps.Words = ps.Messages+pr.Messages, ps.Words+pr.Words
		}
		st.AddProc(st.PerProc[r])
	}
	return st, err
}
