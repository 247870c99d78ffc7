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
//     pair table, not a Go map. A queue's oldest message is held inline,
//     the steady state of an exchange, and the ones behind it are nodes
//     of a pool the table recycles;
//   - put copies each payload into a chunked arena that is never
//     overwritten within the run, so a delivered slice stays valid until
//     the run returns;
//   - the per-peer counters of all processors share one slab.
//
// All of that is a run's tables (runTables), which hold no pointer per
// pair or message — queues, nodes and payloads are int32 indices into
// their slabs — and come from a pool: a run resets them in place, and a
// later run of the same size allocates none of them again but the tally
// slab, which Stats keeps. The rest of Stats is copied out before the
// tables go back.
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
	"sync"
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
	// runTables are the run's processors, queues, payloads, tallies and
	// ready heap, taken from tablePool when the run starts and put back,
	// emptied of what Stats needs, when it ends.
	runTables
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
	// yield and resume are the coroutine handoff: the running processor
	// signals the scheduler on yield (true when its body is over) when it
	// parks, finishes, or unwinds, and waits on resume[rank] to run.
	yield  chan bool
	resume []chan struct{}
	// step is a RunSteps run's body (nil under Run), resumes counts its
	// calls; err is the lowest-ranked root-cause error so far, errRank
	// its rank.
	step    func(p *Proc) bool
	resumes int
	err     error
	errRank int
	// abortFlag is set when a processor fails: parked processors are
	// then resumed only to unwind with deadErr.
	abortFlag  bool
	deadlocked bool
}

// runTables is everything a run sizes by its processors, pairs and
// messages. None of it holds a pointer per pair or message: queues,
// message nodes and payloads are named by int32 indices into its slabs.
// A run resets the tables in place (reset), so a machine run after the
// first allocates only its tally slab and what grows past an earlier
// run's high-water mark.
type runTables struct {
	// procs are the run's processors, indexed by rank.
	procs []Proc
	// pairs holds the live per-pair FIFO queues. They appear on first use
	// and grow unboundedly, so a send never blocks.
	pairs pairTable
	ready readyHeap
	batch []int32
	// words holds the run's payloads. tallies holds every processor's
	// per-peer counters (tallyRow), which Stats keeps: each run makes it
	// anew, with each rank's row as roomy as the rank's row was in the
	// tables' last run, peers[r], so a rerun moves no row.
	words   wordArena
	tallies []PairStat
	peers   []int32
}

var tablePool = sync.Pool{New: func() any { return new(runTables) }}

// reset readies the tables for a run of n processors.
func (t *runTables) reset(n int) {
	t.procs = resize(t.procs, n) // cleared when the tables were put back
	t.pairs.reset(n)
	t.ready, t.batch = t.ready[:0], t.batch[:0]
	t.words.next, t.words.used = 0, 0
	t.peers = resize(t.peers, n)
	need := int32(0)
	for r, c := range t.peers {
		t.procs[r].peers = tallyRow{at: need, cap: c}
		need += c
	}
	t.tallies = make([]PairStat, need)
}

// resize returns s with length n, reusing its storage when it has room.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func newScheduler(nprocs int) scheduler {
	return scheduler{nprocs: nprocs, yield: make(chan bool)}
}

// fail records rank's error if it is the lowest-ranked so far.
func (s *scheduler) fail(rank int, err error) {
	if err != nil && (s.err == nil || rank < s.errRank) {
		s.err, s.errRank = err, rank
	}
}

// queued is a message in a queue: its payload, words[chunk][off:off+n]
// of the run's arena, and its arrival time.
type queued struct {
	chunk, off, n int32
	arrival       float64
}

// pairQueue is one ordered pair's FIFO message queue. The oldest message
// is held inline in first; later ones wait in order in a list of nodes,
// head to tail, from the table's pool. head, tail and waiter are one past
// an index (of a node, of the parked processor's rank), 0 for none.
type pairQueue struct {
	key                uint64
	first              queued
	head, tail, waiter int32
	full               bool
}

// msgNode is a queued message behind a queue's first; next is one past
// the index of the node behind it.
type msgNode struct {
	m    queued
	next int32
}

func (q *pairQueue) empty() bool { return !q.full }

func (t *pairTable) push(q *pairQueue, m queued) {
	if !q.full {
		q.first, q.full = m, true
		return
	}
	nd := t.free
	if nd == 0 {
		t.nodes = append(t.nodes, msgNode{})
		nd = int32(len(t.nodes))
	} else {
		t.free = t.nodes[nd-1].next
	}
	t.nodes[nd-1] = msgNode{m: m}
	if q.tail == 0 {
		q.head = nd
	} else {
		t.nodes[q.tail-1].next = nd
	}
	q.tail = nd
}

func (t *pairTable) pop(q *pairQueue) queued {
	m := q.first
	nd := q.head
	if nd == 0 {
		q.full = false
		return m
	}
	q.first, q.head = t.nodes[nd-1].m, t.nodes[nd-1].next
	if q.head == 0 {
		q.tail = 0
	}
	t.nodes[nd-1].next, t.free = t.free, nd
	return m
}

// pairTable finds an ordered pair's queue by its key src*P + dst: open
// addressing with linear probing over a power-of-two array of slots, each
// a queue's index (the queue holds its key), sized
// to four slots a rank and kept at most three quarters full, so a lookup
// or an insert is a multiply and a probe or two whatever the number of
// pairs, and a rank's k-th peer costs what its first did. The queues are
// one slab in order of first use, named by index, and the messages queued
// behind a queue's first are nodes of one pool, kept on a free list once
// taken.
type pairTable struct {
	slots  []int32 // one past the index of a queue, 0: the slot is free
	shift  uint    // 64 - log2(len(slots))
	queues []pairQueue
	nodes  []msgNode
	free   int32 // one past the first free node's index, 0 for none
}

// home is key's first probe: Fibonacci hashing, the top bits of the
// product.
func (t *pairTable) home(key uint64) int { return int((key * 0x9e3779b97f4a7c15) >> t.shift) }

// reset empties the table and sizes it to four slots a rank.
func (t *pairTable) reset(nprocs int) {
	t.slots = resize(t.slots, max(64, 1<<bits.Len(uint(4*nprocs-1))))
	clear(t.slots)
	t.shift = uint(65 - bits.Len(uint(len(t.slots))))
	t.queues, t.nodes, t.free = t.queues[:0], t.nodes[:0], 0
}

// get returns the index of key's queue, adding an empty one on first use.
func (t *pairTable) get(key uint64) int32 {
	if 4*(len(t.queues)+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	i := t.home(key)
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if q := t.slots[i] - 1; t.queues[q].key == key {
			return q
		}
	}
	t.queues = append(t.queues, pairQueue{key: key})
	t.slots[i] = int32(len(t.queues))
	return int32(len(t.queues) - 1)
}

// grow re-files every pair in a slot array twice as long.
func (t *pairTable) grow() {
	old := t.slots
	t.slots = make([]int32, 2*len(old))
	t.shift--
	mask := len(t.slots) - 1
	for _, q := range old {
		if q != 0 {
			i := t.home(t.queues[q-1].key)
			for t.slots[i] != 0 {
				i = (i + 1) & mask
			}
			t.slots[i] = q
		}
	}
}

// wordArena holds a run's message payloads: each is copied into the
// current chunk, and a full chunk is left to the messages it holds, so a
// payload is never overwritten within the run. The chunks outlive the
// run: the next run on the tables fills them again from the first.
type wordArena struct {
	chunks [][]Word
	// next is the number of chunks the run has begun, used the words
	// taken from the last of them.
	next, used int
}

// arenaChunk is the words of one payload chunk.
const arenaChunk = 1024

// copy copies data into the arena and returns where.
func (a *wordArena) copy(data []Word, arrival float64) queued {
	n := len(data)
	if n == 0 {
		return queued{arrival: arrival}
	}
	if a.next == 0 || a.used+n > len(a.chunks[a.next-1]) {
		if a.next == len(a.chunks) {
			a.chunks = append(a.chunks, nil)
		}
		if len(a.chunks[a.next]) < n {
			a.chunks[a.next] = make([]Word, max(n, arenaChunk))
		}
		a.next, a.used = a.next+1, 0
	}
	q := queued{chunk: int32(a.next - 1), off: int32(a.used), n: int32(n), arrival: arrival}
	copy(a.chunks[q.chunk][q.off:], data)
	a.used += n
	return q
}

// message is q's payload (nil for no words, as append gives) and arrival.
func (a *wordArena) message(q queued) message {
	if q.n == 0 {
		return message{arrival: q.arrival}
	}
	return message{data: a.chunks[q.chunk][q.off : q.off+q.n : q.off+q.n], arrival: q.arrival}
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
	for i := range s.pairs.queues {
		q := &s.pairs.queues[i]
		if q.waiter != 0 {
			w := &s.procs[q.waiter-1]
			q.waiter = 0
			s.wake(w, w.clock)
		}
	}
}

// queue is the index of the pair's queue in s.pairs.queues, which may
// move when a pair is added.
func (s *scheduler) queue(src, dst int) int32 {
	return s.pairs.get(uint64(src)*uint64(s.nprocs) + uint64(dst))
}

// put queues a copy of msg, its payload in the run's arena, on the pair;
// if the destination is parked waiting on this pair it becomes runnable
// at the arrival time.
func (s *scheduler) put(src *Proc, dst int, msg message) {
	q := &s.pairs.queues[s.queue(src.rank, dst)]
	s.pairs.push(q, s.words.copy(msg.data, msg.arrival))
	if q.waiter != 0 {
		w := &s.procs[q.waiter-1]
		q.waiter = 0
		s.wake(w, max(w.clock, msg.arrival))
	}
}

// take pops the pair's next message. If the queue is empty the processor
// parks — hands control back to the scheduler, which runs someone else —
// and resumes when a matching message is enqueued or the run aborts.
func (s *scheduler) take(dst *Proc, src int) message {
	if s.step != nil {
		panic("machine: Recv inside a step; a step receives with TryRecv")
	}
	qi := s.queue(src, dst.rank)
	for s.pairs.queues[qi].empty() {
		if !s.abortFlag {
			s.pairs.queues[qi].waiter = int32(dst.rank + 1)
			s.yield <- false
			<-s.resume[dst.rank]
		}
		if s.abortFlag {
			panic(deadErr)
		}
	}
	return s.words.message(s.pairs.pop(&s.pairs.queues[qi]))
}

// resumeOne lets p run — its coroutine until it yields, or a call of its
// step unless it parked before an abort — and reports whether it ended.
func (s *scheduler) resumeOne(p *Proc) (done bool) {
	if s.step == nil {
		s.resume[p.rank] <- struct{}{}
		done = <-s.yield
	} else if done = p.parked && s.abortFlag; !done {
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
	p.parked = false
	if s.resumes++; s.resumes%gcYieldEvery == 0 {
		runtime.Gosched()
	}
	done = true
	s.fail(p.rank, runBody(p, func(p *Proc) {
		if done = s.step(p); done == p.parked {
			done = true
			panic("machine: a step must return false exactly when TryRecv parked it")
		}
	}, s.abort))
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
	m.resume = make([]chan struct{}, m.grid.Size())
	return m.run(func(p *Proc) {
		m.resume[p.rank] = make(chan struct{})
		go func() {
			<-m.resume[p.rank]
			m.fail(p.rank, runBody(p, body, m.abort))
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
	tables := tablePool.Get().(*runTables)
	m.runTables = *tables
	m.reset(n)
	for r := range m.procs {
		p := &m.procs[r]
		p.rank, p.m = r, m
		if start != nil {
			start(p)
		}
		m.wake(p, 0)
	}
	live := n
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
		front := m.ready.pop()
		m.batch = append(m.batch[:0], front.rank)
		for len(m.ready) > 0 && m.ready[0].key == front.key {
			m.batch = append(m.batch, m.ready.pop().rank)
		}
		for _, r := range m.batch {
			if m.resumeOne(&m.procs[r]) {
				live--
			}
		}
	}
	// Stats take the tallies and copies of the rest; the tables go back
	// to the pool holding no processor, machine or tracer.
	st, err := outcome(m.procs, m.err)
	for r := range m.procs {
		m.peers[r] = m.procs[r].peers.n
	}
	clear(m.procs)
	m.tallies = nil
	*tables, m.runTables = m.runTables, runTables{}
	tablePool.Put(tables)
	switch {
	case err != nil:
	case m.deadlocked:
		err = fmt.Errorf("machine: deadlock: all processors blocked in Recv")
	case m.abortFlag:
		err = fmt.Errorf("machine: run aborted")
	}
	return st, err
}
