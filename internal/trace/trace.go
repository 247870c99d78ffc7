// Package trace collects and renders the event traces of the simulated
// machine. It quantifies the claim of Section 1 that "the
// reduction step normally uses a lot of communication time and results
// in the idleness of processors": the per-processor breakdown separates
// computation, sends, synchronous collectives and idle waiting, and the
// ASCII Gantt chart makes the SOR wavefront of Fig 5 visible on the real
// simulated clock.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dmcc/internal/machine"
)

// Collector is a thread-safe machine.Tracer.
type Collector struct {
	mu     sync.Mutex
	events []machine.Event
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

// Record implements machine.Tracer.
func (c *Collector) Record(e machine.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of the recorded events sorted by processor then
// start time.
func (c *Collector) Events() []machine.Event {
	c.mu.Lock()
	out := append([]machine.Event(nil), c.events...)
	c.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Proc != out[j].Proc {
			return out[i].Proc < out[j].Proc
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// ProcBreakdown is one processor's time accounting.
//
// Send sums the transfer windows of EvSend events. With Overlap off a
// send window is exactly the sender's busy time; with Overlap on the
// window runs to the message's arrival (the fix for the lost
// zero-Alpha overlapped sends), so it can overlap the sender's own
// compute events — Send then reads as "time with a message in flight",
// not additional busy time, and Idle (clamped at zero) absorbs the
// double-counting.
type ProcBreakdown struct {
	Proc       int
	Compute    float64
	Send       float64
	Collective float64
	Wait       float64
	// Idle is makespan minus all recorded activity: time with nothing to
	// do at all (finished early or between untraced instants).
	Idle float64
}

// Summary aggregates a run's events against its makespan.
type Summary struct {
	Makespan float64
	Procs    []ProcBreakdown
}

// Summarize builds the per-processor accounting for nprocs processors.
func Summarize(events []machine.Event, nprocs int, makespan float64) Summary {
	s := Summary{Makespan: makespan, Procs: make([]ProcBreakdown, nprocs)}
	for p := range s.Procs {
		s.Procs[p].Proc = p
	}
	for _, e := range events {
		if e.Proc < 0 || e.Proc >= nprocs {
			continue
		}
		d := e.End - e.Start
		b := &s.Procs[e.Proc]
		switch e.Kind {
		case machine.EvCompute:
			b.Compute += d
		case machine.EvSend:
			b.Send += d
		case machine.EvCollective:
			b.Collective += d
		case machine.EvWait:
			b.Wait += d
		}
	}
	for p := range s.Procs {
		b := &s.Procs[p]
		accounted := b.Compute + b.Send + b.Collective + b.Wait
		b.Idle = makespan - accounted
		if b.Idle < 0 {
			b.Idle = 0
		}
	}
	return s
}

// IdleFraction returns the machine-wide fraction of processor-time spent
// waiting or idle — the paper's "idleness of processors".
func (s Summary) IdleFraction() float64 {
	if s.Makespan <= 0 || len(s.Procs) == 0 {
		return 0
	}
	total := s.Makespan * float64(len(s.Procs))
	idle := 0.0
	for _, b := range s.Procs {
		idle += b.Wait + b.Idle
	}
	return idle / total
}

// String renders the summary table.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan %.0f; idle fraction %.1f%%\n", s.Makespan, 100*s.IdleFraction())
	fmt.Fprintf(&b, "%-6s %-10s %-10s %-12s %-10s %s\n", "proc", "compute", "send", "collective", "wait", "idle")
	for _, p := range s.Procs {
		fmt.Fprintf(&b, "%-6d %-10.0f %-10.0f %-12.0f %-10.0f %.0f\n",
			p.Proc, p.Compute, p.Send, p.Collective, p.Wait, p.Idle)
	}
	return b.String()
}

// Gantt renders an ASCII chart: one row per processor, width columns,
// with '#' compute, '>' send, '=' collective, '.' wait and ' ' idle.
// Later events overwrite earlier ones within a cell; with the machine's
// sequential per-processor execution that only matters at boundaries,
// except under Overlap, where a send's in-flight window can span later
// compute cells (the later compute glyph wins).
func Gantt(events []machine.Event, nprocs int, makespan float64, width int) string {
	if width < 10 {
		width = 10
	}
	if makespan <= 0 {
		return "(empty trace)\n"
	}
	rows := make([][]byte, nprocs)
	for p := range rows {
		rows[p] = []byte(strings.Repeat(" ", width))
	}
	glyph := map[machine.EventKind]byte{
		machine.EvCompute:    '#',
		machine.EvSend:       '>',
		machine.EvCollective: '=',
		machine.EvWait:       '.',
	}
	for _, e := range events {
		if e.Proc < 0 || e.Proc >= nprocs {
			continue
		}
		lo := int(e.Start / makespan * float64(width))
		hi := int(e.End / makespan * float64(width))
		if hi == lo {
			hi = lo + 1
		}
		for c := lo; c < hi && c < width; c++ {
			rows[e.Proc][c] = glyph[e.Kind]
		}
	}
	var b strings.Builder
	dashes := width - 12
	if dashes < 1 {
		dashes = 1
	}
	fmt.Fprintf(&b, "time 0 %s %.0f\n", strings.Repeat("-", dashes), makespan)
	for p, row := range rows {
		fmt.Fprintf(&b, "P%-3d |%s|\n", p, string(row))
	}
	b.WriteString("legend: # compute  > send  = collective  . wait\n")
	return b.String()
}
