package machine

import "fmt"

// Fingerprint returns a canonical rendering of every Config field that
// affects simulated results — the machine half of an artifact cache
// key. The Tracer is excluded: it observes the run without changing
// clocks or counters.
func (c Config) Fingerprint() string {
	return fmt.Sprintf("tf=%g;tc=%g;alpha=%g;overlap=%t;synccoll=%t",
		c.Tf, c.Tc, c.Alpha, c.Overlap, c.SyncCollectives)
}
