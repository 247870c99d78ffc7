// The discrete-event scheduler: how the machine's processors take turns.
//
// The simulated processors, coroutines (Run) or steps (RunSteps), run one
// at a time; a priority queue ordered by (simulated clock, rank) decides
// who runs next. A processor runs until it needs a message that has not
// been sent yet, parks, and becomes runnable again at the message's
// arrival time.
//
// One simulated message costs a constant amount of host work and, in the
// steady state, no allocation:
//   - the ready queue is a binary heap of (clock, rank) entries held
//     inline, so a comparison reads no processor;
//   - per-pair FIFO queues exist only for pairs that exchange traffic —
//     nearest-neighbour kernels at N=4096 touch O(N) pairs, not the 16.7M
//     of a dense link matrix — and are found through an open-addressing
//     pair table, not a Go map. The queues are carved from chunks and
//     never move (a parked processor holds its queue); a queue's oldest
//     message is held inline, the steady state of an exchange, and the
//     ones behind it are nodes of a pool the table recycles;
//   - put copies each payload into a per-run chunked arena that is never
//     reused within the run, so a delivered slice stays valid;
//   - the per-peer counters (PairTally) of all processors are carved
//     from one per-run chunk, and their final lists are handed to Stats
//     without a copy.
//
// The priority order affects only wall-clock interleaving, never
// results: a processor's values, clock and counters depend only on its
// own program order and on per-pair FIFO order, both preserved here, and
// every clock advance goes through the shared pricing (Config.SendTiming,
// Tf compute costs, the Table 1 formulas). The package's tests hold the
// scheduler to that claim against a goroutine-per-processor channel
// matrix plugged into the same links seam.
package machine

import (
	"fmt"
	"math/bits"
	"runtime"
)

// gcYieldEvery is the step resumptions between two runtime.Gosched calls.
// A RunSteps run never blocks its goroutine, and at GOMAXPROCS=1 a long
// one starves the GC's background mark worker: in a 400-run gauss loop
// without the yield, GC cycles' p90 was 10-11 ms, not 3.4-3.6, HeapSys
// 12.3 MB, not 8.1, and dmbench's exec-gauss rss_p90_mb 19.2-19.6, not
// 17.6-17.7 (2-core VM).
const gcYieldEvery = 256

// scheduler is the run-time state of a Machine: the live message queues,
// the runnable set and the coroutine handoff.
type scheduler struct {
	nprocs int
	// procs are the run's processors, indexed by rank.
	procs []Proc
	// pairs holds the live per-pair FIFO queues. They appear on first use
	// and grow unboundedly, so a send never blocks.
	pairs pairTable
	ready readyHeap
	// direct is the fast path for the dominant scheduling pattern —
	// exactly one processor runnable (ping-pong pipelines, serial
	// chains): the sole runnable processor is held here, with its resume
	// clock, instead of the heap and resumed without a push/pop round
	// trip. The invariant is direct != nil => ready is empty; the moment
	// a second processor becomes runnable, direct migrates into the heap
	// and ordinary (clock, rank) ordering resumes.
	direct         *Proc
	directKey      float64
	directHandoffs int64
	// words holds the run's payloads, tallies the chunk the processors'
	// PairTally entries are carved from.
	words   wordArena
	tallies []PairStat
	// yield is the coroutine handoff: the running processor signals the
	// scheduler here (true when its body is over) when it parks,
	// finishes, or unwinds.
	yield chan bool
	// step is a RunSteps run's body (nil under Run), resumes counts its
	// calls; errs holds each rank's root-cause error.
	step    func(p *Proc) bool
	resumes int
	errs    []error
	// abortFlag is set when a processor fails: parked processors are
	// then resumed only to unwind with deadErr.
	abortFlag  bool
	deadlocked bool
}

func newScheduler(nprocs int) scheduler {
	return scheduler{nprocs: nprocs, yield: make(chan bool)}
}

// pairQueue is one ordered pair's FIFO message queue. The oldest message
// is held inline in first; later ones wait in order in a list of nodes,
// head to tail, from the table's pool.
type pairQueue struct {
	first      message
	head, tail *msgNode
	// waiter is the processor parked on this queue, if any.
	waiter *Proc
	full   bool
}

// msgNode is a queued message behind a queue's first.
type msgNode struct {
	m    message
	next *msgNode
}

func (q *pairQueue) empty() bool { return !q.full }

func (t *pairTable) push(q *pairQueue, m message) {
	if !q.full {
		q.first, q.full = m, true
		return
	}
	nd := t.free
	if nd == nil {
		if len(t.nodes) == 0 {
			t.nodes = make([]msgNode, 256)
		}
		nd, t.nodes = &t.nodes[0], t.nodes[1:]
	} else {
		t.free = nd.next
	}
	nd.m, nd.next = m, nil
	if q.tail == nil {
		q.head = nd
	} else {
		q.tail.next = nd
	}
	q.tail = nd
}

func (t *pairTable) pop(q *pairQueue) message {
	m := q.first
	nd := q.head
	if nd == nil {
		q.first, q.full = message{}, false // drop the payload reference
		return m
	}
	q.first, q.head = nd.m, nd.next
	if q.head == nil {
		q.tail = nil
	}
	nd.m, nd.next, t.free = message{}, t.free, nd
	return m
}

// pairTable finds an ordered pair's queue by its key src*P + dst: open
// addressing with linear probing over a power-of-two slot array, sized
// to four slots a rank and kept at most three quarters full, so a lookup
// or an insert is a multiply and a probe or two whatever the number of
// pairs, and a rank's k-th peer costs what its first did. The queues are
// carved from chunks of up to 256, and the messages queued behind a
// queue's first are nodes of one pool: carved from chunks of 256 and
// kept on a free list once taken.
type pairTable struct {
	slots []pairSlot
	shift uint // 64 - log2(len(slots))
	n     int
	chunk []pairQueue
	nodes []msgNode
	free  *msgNode
}

type pairSlot struct {
	key uint64
	q   *pairQueue // nil: the slot is free
}

// home is key's first probe: Fibonacci hashing, the top bits of the
// product.
func (t *pairTable) home(key uint64) int { return int((key * 0x9e3779b97f4a7c15) >> t.shift) }

// newPairTable returns an empty table with four slots a rank.
func newPairTable(nprocs int) pairTable {
	var t pairTable
	t.resize(max(64, 1<<bits.Len(uint(4*nprocs-1))))
	return t
}

// get returns key's queue, adding an empty one on first use.
func (t *pairTable) get(key uint64) *pairQueue {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.resize(2 * len(t.slots))
	}
	mask := len(t.slots) - 1
	i := t.home(key)
	for ; t.slots[i].q != nil; i = (i + 1) & mask {
		if t.slots[i].key == key {
			return t.slots[i].q
		}
	}
	if len(t.chunk) == 0 {
		t.chunk = make([]pairQueue, max(16, min(t.n, 256)))
	}
	q := &t.chunk[0]
	t.chunk = t.chunk[1:]
	t.slots[i] = pairSlot{key: key, q: q}
	t.n++
	return q
}

// resize re-files every pair in a slot array of the given power of two.
func (t *pairTable) resize(slots int) {
	old := t.slots
	t.slots = make([]pairSlot, slots)
	t.shift = uint(65 - bits.Len(uint(len(t.slots))))
	mask := len(t.slots) - 1
	for _, sl := range old {
		if sl.q != nil {
			i := t.home(sl.key)
			for t.slots[i].q != nil {
				i = (i + 1) & mask
			}
			t.slots[i] = sl
		}
	}
}

// wordArena holds a run's message payloads: each is copied into the
// current chunk, and a full chunk is left to the messages it holds, so a
// payload is never overwritten within the run.
type wordArena struct{ free []Word }

// arenaChunk is the words of one payload chunk.
const arenaChunk = 4096

// copy returns a copy of data in the arena (nil for no words, as append
// gives).
func (a *wordArena) copy(data []Word) []Word {
	n := len(data)
	if n == 0 {
		return nil
	}
	if len(a.free) < n {
		a.free = make([]Word, max(n, arenaChunk))
	}
	buf := a.free[:n:n]
	a.free = a.free[n:]
	copy(buf, data)
	return buf
}

// readyEntry is a runnable processor under its (resume clock, rank) key.
type readyEntry struct {
	key  float64
	rank int32
}

func (a readyEntry) before(b readyEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.rank < b.rank
}

// readyHeap is the scheduler's priority queue of runnable processors, a
// binary min-heap by (resume clock, rank). The order is a fidelity choice
// — events fire in simulated-time order — not a correctness requirement;
// see the file comment.
type readyHeap []readyEntry

func (h *readyHeap) push(e readyEntry) {
	*h = append(*h, e)
	a := *h
	for i := len(a) - 1; i > 0; {
		up := (i - 1) / 2
		if !a[i].before(a[up]) {
			break
		}
		a[i], a[up] = a[up], a[i]
		i = up
	}
}

func (h *readyHeap) pop() readyEntry {
	a := *h
	top, n := a[0], len(a)-1
	a[0] = a[n]
	a = a[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && a[c+1].before(a[c]) {
			c++
		}
		if !a[c].before(a[i]) {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return top
}

// wake makes p runnable at simulated time key.
func (s *scheduler) wake(p *Proc, key float64) {
	if s.direct == nil && len(s.ready) == 0 {
		s.direct, s.directKey = p, key
		return
	}
	if d := s.direct; d != nil {
		s.direct = nil
		s.ready.push(readyEntry{s.directKey, int32(d.rank)})
	}
	s.ready.push(readyEntry{key, int32(p.rank)})
}

// wakeWaiters deregisters and resumes every parked processor, to unwind
// after an abort or a detected deadlock: a coroutine observes abortFlag
// and panics with deadErr, a step ends uncalled (resumeOne).
func (s *scheduler) wakeWaiters() {
	for _, sl := range s.pairs.slots {
		if sl.q == nil {
			continue
		}
		if w := sl.q.waiter; w != nil {
			sl.q.waiter = nil
			s.wake(w, w.clock)
		}
	}
}

func (s *scheduler) queue(src, dst int) *pairQueue {
	return s.pairs.get(uint64(src)*uint64(s.nprocs) + uint64(dst))
}

// put queues a copy of msg, its payload in the run's arena, on the pair;
// if the destination is parked waiting on this pair it becomes runnable
// at the arrival time.
func (s *scheduler) put(src *Proc, dst int, msg message) {
	q := s.queue(src.rank, dst)
	msg.data = s.words.copy(msg.data)
	s.pairs.push(q, msg)
	if w := q.waiter; w != nil {
		q.waiter = nil
		key := w.clock
		if msg.arrival > key {
			key = msg.arrival
		}
		s.wake(w, key)
	}
}

// take pops the pair's next message. If the queue is empty the processor
// parks — hands control back to the scheduler, which runs someone else —
// and resumes when a matching message is enqueued or the run aborts.
func (s *scheduler) take(dst *Proc, src int) message {
	if s.step != nil {
		panic("machine: Recv inside a step; a step receives with TryRecv")
	}
	q := s.queue(src, dst.rank)
	for q.empty() {
		if !s.abortFlag {
			q.waiter = dst
			s.yield <- false
			<-dst.resume
		}
		if s.abortFlag {
			panic(deadErr)
		}
	}
	return s.pairs.pop(q)
}

// resumeOne lets p run — its coroutine until it yields, or a call of its
// step unless it parked before an abort — and reports whether it ended.
func (s *scheduler) resumeOne(p *Proc) (done bool) {
	if s.step == nil {
		p.resume <- struct{}{}
		done = <-s.yield
	} else if done = p.parked != nil && s.abortFlag; !done {
		done = s.callStep(p)
	}
	if done && s.abortFlag {
		// Unwind parked processors so their bodies end; any
		// still-runnable processor keeps running and fails when it
		// next has to wait for a message.
		s.wakeWaiters()
	}
	return done
}

// callStep calls p's step, which must return false exactly when TryRecv
// parked it, with a coroutine's error discipline (runBody).
func (s *scheduler) callStep(p *Proc) (done bool) {
	p.parked = nil
	if s.resumes++; s.resumes%gcYieldEvery == 0 {
		runtime.Gosched()
	}
	done = true
	s.errs[p.rank] = runBody(p, func(p *Proc) {
		if done = s.step(p); done == (p.parked != nil) {
			done = true
			panic("machine: a step must return false exactly when TryRecv parked it")
		}
	}, s.abort)
	return done
}

func (s *scheduler) abort() { s.abortFlag = true }

// DirectHandoffs reports how many scheduler steps took the
// single-runnable fast path instead of the heap. Meaningful after Run;
// purely observability.
func (m *Machine) DirectHandoffs() int64 { return m.directHandoffs }

// Run executes the SPMD body on all processors under the event
// scheduler and returns aggregate statistics. If any processor panics,
// Run returns the lowest-ranked root-cause error after every processor
// has stopped (processors unwound by a peer's failure are filtered, so
// they cannot mask it); a schedule in which every live processor waits
// for a message is a deadlock error; the generic "run aborted" error
// appears only when an abort happened with no recorded cause. A machine
// must not be reused after Run returns.
//
// The body is a coroutine: each processor gets a goroutine only so that
// it can block in Recv, and exactly one is runnable at any moment,
// chosen from the ready heap by smallest (resume time, rank). A
// processor runs until it parks on an empty queue or finishes; there is
// no preemption and no concurrent execution, which is what makes the
// runtime's memory profile flat and its wall-clock free of contention.
func (m *Machine) Run(body func(p *Proc)) (Stats, error) {
	return m.run(func(p *Proc) {
		p.resume = make(chan struct{})
		go func() {
			<-p.resume
			m.errs[p.rank] = runBody(p, body, m.abort)
			m.yield <- true
		}()
	})
}

// RunSteps is Run without a goroutine, channel or stack per processor:
// step(p) is called on the caller's goroutine, returns true when p is
// done or false once TryRecv parked p, and is called again, to go on from
// the position it keeps, when the message arrives. A Recv or collective
// in a step is an error; the schedule, clocks, trace and errors are Run's.
func (m *Machine) RunSteps(step func(p *Proc) (done bool)) (Stats, error) {
	m.step = step
	return m.run(nil)
}

// run is the scheduler loop; start, if not nil, readies a coroutine.
func (m *Machine) run(start func(p *Proc)) (Stats, error) {
	n := m.grid.Size()
	m.procs, m.errs, m.ready = make([]Proc, n), make([]error, n), make(readyHeap, 0, n)
	m.pairs = newPairTable(n)
	for r := range m.procs {
		p := &m.procs[r]
		p.rank, p.m, p.pairs.slab = r, m, &m.tallies
		if start != nil {
			start(p)
		}
		m.wake(p, 0)
	}
	live := n
	var batch []int32
	for live > 0 {
		if len(m.ready) == 0 && m.direct == nil {
			// Every live processor is parked and no message can ever
			// arrive: the schedule deadlocked. The scheduler can see the
			// whole machine state, so it reports it. Resume everyone to
			// unwind (a parked processor is always registered as some
			// queue's waiter; wakeWaiters clears the registration, which
			// keeps resumeOne's abort scan from waking it a second time
			// after it has exited).
			m.abortFlag = true
			m.deadlocked = true
			m.wakeWaiters()
		}
		// One runnable processor: hand it the coroutine directly, no
		// heap traffic at all. This is every strictly-serial stretch of
		// a schedule — pipelined wavefronts, ping-pong exchanges — where
		// the heap would otherwise be a push immediately followed by a
		// pop of the same element.
		if p := m.direct; p != nil {
			m.direct = nil
			m.directHandoffs++
			if m.resumeOne(p) {
				live--
			}
			continue
		}
		// Drain every entry sharing the front's resume clock in one
		// batch — the heap's rank tie-break hands them out in ascending
		// rank — instead of one pop-resume round trip per message
		// arrival. Synchronized schedules (epoch flushes, collective
		// rounds) wake whole waves of processors at the same simulated
		// time, so batching removes most of the per-arrival heap churn.
		// A processor woken mid-batch at the same clock simply lands in
		// the next batch; the scheduler order is a fidelity choice, not
		// a correctness requirement (see the file comment).
		batch = batch[:0]
		front := m.ready.pop()
		batch = append(batch, front.rank)
		for len(m.ready) > 0 && m.ready[0].key == front.key {
			batch = append(batch, m.ready.pop().rank)
		}
		for _, r := range batch {
			if m.resumeOne(&m.procs[r]) {
				live--
			}
		}
	}
	// The queues and payload chunks go with the run; what a body kept of
	// a payload stays valid.
	m.pairs, m.words = pairTable{}, wordArena{}
	st, err := outcome(m.procs, m.errs)
	switch {
	case err != nil:
	case m.deadlocked:
		err = fmt.Errorf("machine: deadlock: all processors blocked in Recv")
	case m.abortFlag:
		err = fmt.Errorf("machine: run aborted")
	}
	return st, err
}
