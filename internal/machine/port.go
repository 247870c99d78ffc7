// Port is the processor-context surface the exec backend runs on.
package machine

import "dmcc/internal/grid"

// Port is the per-processor interface a batched SPMD body needs:
// identity, the simulated clock, priced computation, and counted
// point-to-point exchange. *Proc implements it; the exec backend's tests
// also stub it to drive an executor without a machine.
//
// The collective primitives and Barrier are absent because the exec
// backend lowers every exchange to point-to-point epochs (schedule.go)
// and never calls them, not because any runtime lacks them.
type Port interface {
	// Rank returns the linear rank of the processor.
	Rank() int
	// NumProcs returns the total number of processors.
	NumProcs() int
	// Grid returns the machine's processor grid.
	Grid() *grid.Grid
	// Clock returns the processor's current simulated time.
	Clock() float64
	// Compute advances the clock by flops*Tf and counts the flops.
	Compute(flops int)
	// Send transmits a copy of data to dst (counted, clock-priced).
	Send(dst int, data []Word)
	// Recv receives the next message from src, advancing the clock to
	// at least the arrival time.
	Recv(src int) []Word
	// SendValue sends a single word.
	SendValue(dst int, v Word)
	// RecvValue receives a single word.
	RecvValue(src int) Word
	// Note records a custom trace event if a tracer is attached.
	Note(kind EventKind, start, end float64, peer, words int)
}

var _ Port = (*Proc)(nil)
