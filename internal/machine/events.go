// The discrete-event scheduler: how the machine's processors take turns.
//
// The simulated processors, coroutines (Run) or steps (RunSteps), run one
// at a time; a priority queue ordered by (simulated clock, rank) decides
// who runs next, and per-pair message queues exist only for pairs that
// actually exchange traffic — nearest-neighbour kernels at N=4096 touch
// O(N) pairs, not the 16.7M of a dense link matrix. A processor runs until
// it needs a message that has not been sent yet, parks, and becomes
// runnable again at the message's arrival time.
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
	return scheduler{nprocs: nprocs, queues: make(map[int64]*pairQueue), yield: make(chan bool)}
}

// pairQueue is one ordered pair's FIFO message queue, with a head
// cursor so Pop is O(1) without reslicing the backing array away.
type pairQueue struct {
	buf  []message
	head int
	// waiter is the processor parked on this queue, if any.
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

// wakeWaiters deregisters and resumes every parked processor, to unwind
// after an abort or a detected deadlock: a coroutine observes abortFlag
// and panics with deadErr, a step ends uncalled (resumeOne).
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
	return q.pop()
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
	slab, procs := make([]Proc, n), make([]*Proc, n)
	m.errs = make([]error, n)
	for r := range slab {
		p := &slab[r]
		p.rank, p.m, procs[r] = r, m, p
		if start != nil {
			start(p)
		}
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
	st, err := outcome(procs, m.errs)
	switch {
	case err != nil:
	case m.deadlocked:
		err = fmt.Errorf("machine: deadlock: all processors blocked in Recv")
	case m.abortFlag:
		err = fmt.Errorf("machine: run aborted")
	}
	return st, err
}
