package machine

import (
	"strings"
	"sync"
	"testing"

	"dmcc/internal/grid"
)

// listTracer is a minimal thread-safe Tracer for these tests (package
// trace would be an import cycle from here).
type listTracer struct {
	mu     sync.Mutex
	events []Event
}

func (l *listTracer) Record(e Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *listTracer) ofKind(k EventKind) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, e := range l.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// TestOverlapSendTraceWindow: the satellite fix — an overlapped send
// with Alpha == 0 leaves the sender's clock untouched, and the old
// `clock > before` guard dropped the event entirely. The send must now
// be recorded with its true transfer window [start, arrival].
func TestOverlapSendTraceWindow(t *testing.T) {
	g := grid.New(2)
	tr := &listTracer{}
	cfg := Config{Tf: 1, Tc: 10, Alpha: 0, Overlap: true, Tracer: tr}
	run(t, g, cfg, func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, []Word{1, 2, 3})
			if p.Clock() != 0 {
				t.Errorf("overlapped zero-alpha sender clock = %v, want 0", p.Clock())
			}
		} else {
			p.Recv(0)
		}
	})
	sends := tr.ofKind(EvSend)
	if len(sends) != 1 {
		t.Fatalf("recorded %d send events, want 1 (overlapped send lost)", len(sends))
	}
	e := sends[0]
	if e.Proc != 0 || e.Peer != 1 || e.Words != 3 || e.Start != 0 || e.End != 30 {
		t.Errorf("send event = %+v, want proc 0 -> 1, 3 words, window [0,30]", e)
	}
}

// TestBlockingSendTraceWindow: with Overlap off the transfer window is
// exactly the sender's busy interval, so the event shape is unchanged
// from the old semantics.
func TestBlockingSendTraceWindow(t *testing.T) {
	g := grid.New(2)
	tr := &listTracer{}
	cfg := Config{Tf: 1, Tc: 3, Alpha: 2, Overlap: false, Tracer: tr}
	run(t, g, cfg, func(p *Proc) {
		if p.Rank() == 0 {
			p.Compute(4)
			p.Send(1, []Word{1, 2})
		} else {
			p.Recv(0)
		}
	})
	sends := tr.ofKind(EvSend)
	if len(sends) != 1 {
		t.Fatalf("recorded %d send events, want 1", len(sends))
	}
	if e := sends[0]; e.Start != 4 || e.End != 12 {
		t.Errorf("send window = [%v,%v], want [4,12]", e.Start, e.End)
	}
}

// TestAbortSurfacesRootCause: the satellite fix for masked aborts — a
// high-rank processor's real panic must not be hidden behind the
// barrier-abort panics of the lower-rank processors it takes down, nor
// behind the generic "machine: run aborted".
func TestAbortSurfacesRootCause(t *testing.T) {
	g := grid.New(3)
	_, err := mustNew(t, g, DefaultConfig()).Run(func(p *Proc) {
		if p.Rank() == 2 {
			panic("boom")
		}
		p.Barrier() // ranks 0 and 1 die in the aborted barrier
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "processor 2") {
		t.Errorf("root cause masked: got %q", err)
	}
}

// TestAbortWithoutCauseStaysGeneric: when no processor recorded a real
// error the generic message is still returned (the barrier can only be
// dead here via the explicit abort below).
func TestAbortWithoutCauseStaysGeneric(t *testing.T) {
	g := grid.New(2)
	m := mustNew(t, g, DefaultConfig())
	m.abortFlag = true
	_, err := m.Run(func(p *Proc) {})
	if err == nil || !strings.Contains(err.Error(), "machine: run aborted") {
		t.Errorf("got %v, want generic run-aborted error", err)
	}
}

// TestMaxMsgWordsStat: the vectored-send statistic tracks the largest
// single message per processor and machine-wide.
func TestMaxMsgWordsStat(t *testing.T) {
	g := grid.New(2)
	st := run(t, g, DefaultConfig(), func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, []Word{1, 2, 3, 4})
			p.SendValue(1, 9)
		} else {
			p.Recv(0)
			p.Recv(0)
			p.SendValue(0, 1)
		}
	})
	if p := p0(t, st); p.MaxMsgWords != 4 {
		t.Errorf("proc 0 MaxMsgWords = %d, want 4", p.MaxMsgWords)
	}
	if st.PerProc[1].MaxMsgWords != 1 {
		t.Errorf("proc 1 MaxMsgWords = %d, want 1", st.PerProc[1].MaxMsgWords)
	}
	if st.MaxMsgWords != 4 {
		t.Errorf("machine MaxMsgWords = %d, want 4", st.MaxMsgWords)
	}
	// A proc 0 -> proc 0 self-send never counts.
	st2 := run(t, grid.New(1), DefaultConfig(), func(p *Proc) {
		p.Send(0, []Word{1, 2, 3})
		p.Recv(0)
	})
	if st2.MaxMsgWords != 0 {
		t.Errorf("self-send counted into MaxMsgWords: %d", st2.MaxMsgWords)
	}
}

func p0(t *testing.T, st Stats) ProcStats {
	t.Helper()
	if len(st.PerProc) == 0 {
		t.Fatal("no per-proc stats")
	}
	return st.PerProc[0]
}
