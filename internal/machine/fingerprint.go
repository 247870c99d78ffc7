package machine

import "fmt"

// Fingerprint returns a canonical rendering of every Config field that
// affects simulated results — the machine half of an artifact cache
// key. The Tracer is excluded: it observes the run without changing
// clocks or counters.
func (c Config) Fingerprint() string {
	// synccoll names a retired field: collectives are always synchronous.
	// It stays, so every key keeps its text, until the next schema bump.
	return fmt.Sprintf("tf=%g;tc=%g;alpha=%g;overlap=%t;synccoll=true",
		c.Tf, c.Tc, c.Alpha, c.Overlap)
}
