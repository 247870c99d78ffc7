// Port is the point-to-point surface of a coroutine body.
package machine

// Port is what a coroutine body (Machine.Run) needs for point-to-point
// exchange: identity, priced computation, and counted Send and blocking
// Recv. *Proc implements it; the benchmark's ring probe and this
// package's runtime-agreement tests are written against it. A step body
// (Machine.RunSteps), exec's executors among them, holds the *Proc and
// receives with TryRecv instead.
type Port interface {
	// Rank returns the linear rank of the processor.
	Rank() int
	// NumProcs returns the total number of processors.
	NumProcs() int
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
}

var _ Port = (*Proc)(nil)
