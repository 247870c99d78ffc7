// The discrete-event scheduler: how the machine's processors take turns.
//
// The simulated processors are cooperatively-scheduled coroutines (one
// runnable at a time); a priority queue ordered by (simulated clock,
// rank) decides who runs next, and per-pair message queues exist only
// for pairs that actually exchange traffic — nearest-neighbour kernels at
// N=4096 touch O(N) pairs, not the 16.7M of a dense link matrix. A
// processor runs until it needs a message that has not been sent yet,
// parks, and becomes runnable again at the message's arrival time.
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
	"container/heap"
	"fmt"
)

// scheduler is the run-time state of a Machine: the live message queues,
// the runnable set and the coroutine handoff.
type scheduler struct {
	nprocs int
	// queues holds the live per-pair FIFO queues, keyed by
	// src*P + dst. They appear on first use and grow unboundedly, so a
	// send never blocks.
	queues map[int64]*pairQueue
	ready  procHeap
	// direct is the fast path for the dominant scheduling pattern —
	// exactly one processor runnable (ping-pong pipelines, serial
	// chains): the sole runnable processor is held here instead of the
	// heap and resumed without a push/pop round trip. The invariant is
	// direct != nil => ready is empty; the moment a second processor
	// becomes runnable, direct migrates into the heap and ordinary
	// (clock, rank) ordering resumes.
	direct         *Proc
	directHandoffs int64
	// yield is the coroutine handoff: the running processor signals the
	// scheduler here (true when its body is over) when it parks,
	// finishes, or unwinds.
	yield chan bool
	// abortFlag is set when a processor fails: parked processors are
	// then resumed only to unwind with deadErr.
	abortFlag  bool
	deadlocked bool
}

func newScheduler(nprocs int) scheduler {
	return scheduler{nprocs: nprocs, queues: make(map[int64]*pairQueue), yield: make(chan bool)}
}

// pairQueue is one ordered pair's FIFO message queue, with a head
// cursor so Pop is O(1) without reslicing the backing array away.
type pairQueue struct {
	buf  []message
	head int
	// waiter is the processor parked in take on this queue, if any.
	waiter *Proc
}

func (q *pairQueue) empty() bool { return q.head == len(q.buf) }

func (q *pairQueue) pop() message {
	m := q.buf[q.head]
	q.buf[q.head] = message{} // drop the payload reference
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return m
}

// procHeap is the scheduler's priority queue of runnable processors,
// ordered by (resume clock, rank). The order is a fidelity choice —
// events fire in simulated-time order — not a correctness requirement;
// see the file comment.
type procHeap []*Proc

func (h procHeap) Len() int { return len(h) }
func (h procHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].rank < h[j].rank
}
func (h procHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *procHeap) Push(x any)   { *h = append(*h, x.(*Proc)) }
func (h *procHeap) Pop() any {
	old := *h
	n := len(old)
	p := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return p
}

// wake makes p runnable at simulated time key.
func (s *scheduler) wake(p *Proc, key float64) {
	p.key = key
	if s.direct == nil && s.ready.Len() == 0 {
		s.direct = p
		return
	}
	if d := s.direct; d != nil {
		s.direct = nil
		heap.Push(&s.ready, d)
	}
	heap.Push(&s.ready, p)
}

// wakeWaiters deregisters and resumes every processor parked in take.
// Used to unwind after an abort or a detected deadlock: the woken
// processors observe abortFlag and panic with deadErr.
func (s *scheduler) wakeWaiters() {
	for _, q := range s.queues {
		if w := q.waiter; w != nil {
			q.waiter = nil
			s.wake(w, w.clock)
		}
	}
}

func (s *scheduler) queue(src, dst int) *pairQueue {
	key := int64(src)*int64(s.nprocs) + int64(dst)
	q := s.queues[key]
	if q == nil {
		q = &pairQueue{}
		s.queues[key] = q
	}
	return q
}

// put appends msg to the pair's queue; if the destination is parked
// waiting on this pair it becomes runnable at the arrival time.
func (s *scheduler) put(src *Proc, dst int, msg message) {
	q := s.queue(src.rank, dst)
	q.buf = append(q.buf, msg)
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
	return q.pop()
}

// resumeOne hands the coroutine to p and blocks until it yields,
// reporting whether it finished.
func (s *scheduler) resumeOne(p *Proc) (done bool) {
	p.resume <- struct{}{}
	done = <-s.yield
	if done && s.abortFlag {
		// Unwind parked processors so their goroutines exit; any
		// still-runnable processor keeps running and fails when it
		// next has to wait for a message.
		s.wakeWaiters()
	}
	return done
}

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
// Processors are goroutines only as a coroutine mechanism — exactly
// one is runnable at any moment, chosen from the ready heap by
// smallest (resume time, rank). A processor runs until it parks on an
// empty queue or finishes; there is no preemption and no concurrent
// execution, which is what makes the runtime's memory profile flat and
// its wall-clock free of scheduling contention.
func (m *Machine) Run(body func(p *Proc)) (Stats, error) {
	n := m.grid.Size()
	procs := make([]*Proc, n)
	errs := make([]error, n)
	abort := func() { m.abortFlag = true }
	for r := 0; r < n; r++ {
		p := &Proc{rank: r, m: m, resume: make(chan struct{})}
		procs[r] = p
		go func() {
			<-p.resume
			errs[p.rank] = runBody(p, body, abort)
			m.yield <- true
		}()
		m.wake(p, 0)
	}
	live := n
	var batch []*Proc
	for live > 0 {
		if m.ready.Len() == 0 && m.direct == nil {
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
		front := heap.Pop(&m.ready).(*Proc)
		batch = append(batch, front)
		for m.ready.Len() > 0 && m.ready[0].key == front.key {
			batch = append(batch, heap.Pop(&m.ready).(*Proc))
		}
		for _, p := range batch {
			if m.resumeOne(p) {
				live--
			}
		}
	}
	st, err := outcome(procs, errs)
	switch {
	case err != nil:
	case m.deadlocked:
		err = fmt.Errorf("machine: deadlock: all processors blocked in Recv")
	case m.abortFlag:
		err = fmt.Errorf("machine: run aborted")
	}
	return st, err
}
