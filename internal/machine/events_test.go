package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dmcc/internal/grid"
)

func mustNewEvent(t testing.TB, g *grid.Grid, cfg Config) *Machine {
	t.Helper()
	m, err := New(g, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// refCap is the reference runtime's channel capacity: generous, so
// bodies that front-load sends cannot block there (the scheduler's
// queues are unbounded by design).
const refCap = 4096

// runBothRuntimes executes the same Port body on the event scheduler
// and on the goroutine-per-processor channel reference and requires
// bit-identical Stats.
func runBothRuntimes(t *testing.T, g *grid.Grid, cfg Config, body func(p Port)) Stats {
	t.Helper()
	want, err := runReference(g, cfg, refCap, func(p *Proc) { body(p) })
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	got, err := mustNewEvent(t, g, cfg).Run(func(p *EventProc) { body(p) })
	if err != nil {
		t.Fatalf("event run: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("event stats differ from reference stats:\n got %+v\nwant %+v", got, want)
	}
	return got
}

// TestEventMatchesGoroutineNeighbourExchange: the bread-and-butter
// pattern of every batched schedule — send to both neighbours, then
// receive from both — prices identically on both runtimes, including
// per-pair breakdowns, under blocking and overlapped sends.
func TestEventMatchesGoroutineNeighbourExchange(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		for _, alpha := range []float64{0, 3} {
			cfg := DefaultConfig()
			cfg.Overlap = overlap
			cfg.Alpha = alpha
			g := grid.New(5)
			runBothRuntimes(t, g, cfg, func(p Port) {
				n := p.NumProcs()
				right := (p.Rank() + 1) % n
				left := (p.Rank() + n - 1) % n
				for round := 0; round < 3; round++ {
					p.Compute(p.Rank() + 1)
					p.Send(right, []Word{float64(p.Rank()), float64(round)})
					p.Send(left, []Word{float64(round)})
					got := p.Recv(left)
					if int(got[0]) != left {
						panic("wrong neighbour payload")
					}
					p.Recv(right)
				}
			})
		}
	}
}

// TestEventMatchesGoroutineRandomTraffic: a deterministic pseudo-random
// traffic pattern — each round every processor sends a random-sized
// message to a random set of peers, then drains exactly what it is
// owed. Sends precede receives within a round, so the pattern is
// deadlock-free; the per-round structure is what the exec scheduler
// emits. Stats must match exactly across runtimes.
func TestEventMatchesGoroutineRandomTraffic(t *testing.T) {
	for _, seed := range []int64{99, 1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const n, rounds = 7, 5
			// Predraw the traffic matrix so both runtimes see identical work;
			// the subtest names the seed that drew it.
			rng := rand.New(rand.NewSource(seed))
			sends := make([][][]int, rounds) // sends[r][src] = dst list
			sizes := make([][][]int, rounds)
			for r := 0; r < rounds; r++ {
				sends[r] = make([][]int, n)
				sizes[r] = make([][]int, n)
				for src := 0; src < n; src++ {
					for dst := 0; dst < n; dst++ {
						if dst != src && rng.Intn(3) == 0 {
							sends[r][src] = append(sends[r][src], dst)
							sizes[r][src] = append(sizes[r][src], 1+rng.Intn(9))
						}
					}
				}
			}
			g := grid.New(n)
			st := runBothRuntimes(t, g, DefaultConfig(), func(p Port) {
				me := p.Rank()
				for r := 0; r < rounds; r++ {
					p.Compute(me * r)
					for i, dst := range sends[r][me] {
						buf := make([]Word, sizes[r][me][i])
						for k := range buf {
							buf[k] = float64(me*100 + k)
						}
						p.Send(dst, buf)
					}
					for src := 0; src < n; src++ {
						for i, dst := range sends[r][src] {
							if dst == me {
								got := p.Recv(src)
								if len(got) != sizes[r][src][i] {
									panic("wrong message size")
								}
							}
						}
					}
				}
			})
			if st.Messages == 0 {
				t.Fatal("traffic pattern sent nothing")
			}
		})
	}
}

// TestEventSelfSendIsFree: self-sends cost nothing and are uncounted on
// both runtimes, like Proc.Send.
func TestEventSelfSendIsFree(t *testing.T) {
	g := grid.New(3)
	st := runBothRuntimes(t, g, DefaultConfig(), func(p Port) {
		p.SendValue(p.Rank(), 42)
		if v := p.RecvValue(p.Rank()); v != 42 {
			panic("self-send payload lost")
		}
	})
	if st.Messages != 0 || st.ParallelTime != 0 {
		t.Fatalf("self-sends were counted: %+v", st)
	}
}

// TestEventUnboundedSend: the event runtime never blocks a sender — a
// processor can front-load an arbitrarily deep queue before its peer
// drains any of it.
func TestEventUnboundedSend(t *testing.T) {
	g := grid.New(2)
	st, err := mustNewEvent(t, g, DefaultConfig()).Run(func(p *EventProc) {
		const burst = 500
		if p.Rank() == 0 {
			for i := 0; i < burst; i++ {
				p.SendValue(1, float64(i))
			}
		} else {
			for i := 0; i < burst; i++ {
				if v := p.RecvValue(0); v != float64(i) {
					panic("FIFO order violated")
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Messages != 500 {
		t.Fatalf("messages = %d", st.Messages)
	}
}

// TestEventDeadlockDetected: where live goroutines would hang, the
// event scheduler sees every live processor parked with no message
// in flight and reports a deadlock error.
func TestEventDeadlockDetected(t *testing.T) {
	g := grid.New(2)
	_, err := mustNewEvent(t, g, DefaultConfig()).Run(func(p *EventProc) {
		p.Recv(1 - p.Rank()) // both sides receive first: classic deadlock
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

// TestEventPanicIsReportedAsError: a processor panic surfaces as the
// root-cause error; peers parked in Recv are unwound and filtered,
// mirroring the goroutine runtime's abort discipline.
func TestEventPanicIsReportedAsError(t *testing.T) {
	g := grid.New(3)
	_, err := mustNewEvent(t, g, DefaultConfig()).Run(func(p *EventProc) {
		if p.Rank() == 2 {
			panic("boom")
		}
		p.Recv(2) // ranks 0 and 1 park forever; the abort must free them
	})
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "processor 2") {
		t.Fatalf("root cause masked: got %v", err)
	}
}

// TestEventRankValidation: out-of-range ranks panic into errors exactly
// like the goroutine runtime.
func TestEventRankValidation(t *testing.T) {
	g := grid.New(2)
	if _, err := mustNewEvent(t, g, DefaultConfig()).Run(func(p *EventProc) { p.Send(2, nil) }); err == nil {
		t.Fatal("Send to bad rank should error")
	}
	if _, err := mustNewEvent(t, g, DefaultConfig()).Run(func(p *EventProc) { p.Recv(-1) }); err == nil {
		t.Fatal("Recv from bad rank should error")
	}
	if _, err := mustNewEvent(t, g, DefaultConfig()).Run(func(p *EventProc) { p.Compute(-1) }); err == nil {
		t.Fatal("negative flops should error")
	}
}

// TestEventTracer: trace events fire with the same kinds and windows as
// the goroutine runtime's (compute, send, wait).
func TestEventTracer(t *testing.T) {
	collect := func(run func(cfg Config) error) []Event {
		r := &lockedTracer{}
		cfg := DefaultConfig()
		cfg.Tracer = r
		if err := run(cfg); err != nil {
			t.Fatal(err)
		}
		return r.events
	}
	g := grid.New(2)
	body := func(p Port) {
		if p.Rank() == 0 {
			p.Compute(5)
			p.Send(1, []Word{1, 2, 3})
		} else {
			p.Recv(0)
		}
	}
	got := collect(func(cfg Config) error {
		_, err := mustNewEvent(t, g, cfg).Run(func(p *EventProc) { body(p) })
		return err
	})
	want := collect(func(cfg Config) error {
		_, err := runReference(g, cfg, refCap, func(p *Proc) { body(p) })
		return err
	})
	// Event order across processors may differ between runtimes; compare
	// per-processor streams.
	perProc := func(evs []Event) map[int][]Event {
		m := map[int][]Event{}
		for _, e := range evs {
			m[e.Proc] = append(m[e.Proc], e)
		}
		return m
	}
	if !reflect.DeepEqual(perProc(got), perProc(want)) {
		t.Fatalf("per-processor trace streams differ:\n got %+v\nwant %+v", got, want)
	}
}

// lockedTracer collects events under a mutex: the reference runtime
// invokes the tracer from concurrently-running processors.
type lockedTracer struct {
	mu     sync.Mutex
	events []Event
}

func (r *lockedTracer) Record(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// TestPairTally: sparse per-pair accounting — snapshots are sorted,
// nil when empty, and AddProc aggregates the hot-pair maxima.
func TestPairTally(t *testing.T) {
	var tl PairTally
	if tl.Snapshot() != nil {
		t.Fatal("empty tally should snapshot nil")
	}
	tl.Note(7, 3)
	tl.Note(2, 5)
	tl.Note(7, 1)
	got := tl.Snapshot()
	want := []PairStat{{Peer: 2, Messages: 1, Words: 5}, {Peer: 7, Messages: 2, Words: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}
	var st Stats
	st.AddProc(ProcStats{Clock: 9, Flops: 4, Messages: 3, Words: 9, MaxMsgWords: 5, Peers: got})
	if st.MaxPairMessages != 2 || st.MaxPairWords != 5 || st.ParallelTime != 9 {
		t.Fatalf("AddProc aggregate wrong: %+v", st)
	}
}

// TestEventDirectHandoff: a strictly-serial ping-pong — at any moment
// exactly one processor is runnable — takes the scheduler's direct
// handoff path (no heap traffic) while producing stats bit-identical
// to the goroutine runtime.
func TestEventDirectHandoff(t *testing.T) {
	const rounds = 20
	body := func(p Port) {
		peer := 1 - p.Rank()
		for r := 0; r < rounds; r++ {
			if p.Rank() == 0 {
				p.Send(peer, []Word{float64(r)})
				p.Recv(peer)
			} else {
				got := p.Recv(peer)
				if int(got[0]) != r {
					panic("wrong ping payload")
				}
				p.Send(peer, []Word{float64(-r)})
			}
		}
	}
	g := grid.New(2)
	runBothRuntimes(t, g, DefaultConfig(), body)

	m := mustNewEvent(t, g, DefaultConfig())
	if _, err := m.Run(func(p *EventProc) { body(p) }); err != nil {
		t.Fatalf("event run: %v", err)
	}
	// Every mid-run resume after the initial 2-proc wave is a lone
	// runnable processor: the fast path must carry the bulk of the
	// schedule, not a stray step or two.
	if h := m.DirectHandoffs(); h < rounds {
		t.Fatalf("DirectHandoffs = %d, want >= %d for a serial ping-pong", h, rounds)
	}
}

// TestEventDirectHandoffDeadlock: the deadlock detector still fires
// when the machine drains through the direct slot.
func TestEventDirectHandoffDeadlock(t *testing.T) {
	m := mustNewEvent(t, grid.New(2), DefaultConfig())
	_, err := m.Run(func(p *EventProc) {
		if p.Rank() == 0 {
			p.Send(1, []Word{1})
		}
		p.Recv(1 - p.Rank()) // rank 1 waits forever: rank 0 never sends again
		if p.Rank() == 0 {
			p.Recv(1)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}
