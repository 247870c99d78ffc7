// The one pricing function of the point-to-point clock model. The
// machine (Proc.Send) advances clocks through SendTiming, and so does the
// sequential model the runtime differential test holds the scheduler to.
// The Table 1 collective formulas build on the same Tc (collectives.go);
// keeping the per-message half here means a timing change cannot
// silently split the two apart.

package machine

// SendTiming prices one counted point-to-point message of the given
// size sent at the sender's local time clock. It returns the sender's
// clock after the send and the arrival time at the receiver:
//
//	blocking (Overlap false): the sender is busy for Alpha + words*Tc
//	  and the message arrives when the sender finishes;
//	sender-overlap (Overlap true): the sender pays only the startup
//	  Alpha and keeps computing while the transfer is in flight, so the
//	  message arrives Alpha + words*Tc after the send began.
//
// Self-sends are free and never go through SendTiming.
func (c *Config) SendTiming(clock float64, words int) (sender, arrival float64) {
	transfer := c.Tc * float64(words)
	if c.Overlap {
		sender = clock + c.Alpha
		arrival = sender + transfer
		return sender, arrival
	}
	sender = clock + c.Alpha + transfer
	return sender, sender
}
