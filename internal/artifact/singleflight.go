// In-process single flight: concurrent GetOrCompute calls for one key
// share one computation. Unlike x/sync/singleflight this is fused with
// the store's Get/Put (the winning flight re-checks both tiers before
// computing), so a process racing against itself or a concurrent
// process never computes a key more than once per miss window. A store
// has one group, covering its disk and its peer alike, so GC and the
// HTTP flight hold see every computation in progress.
package artifact

import (
	"errors"
	"sync"
)

// errFlightPanicked is what the waiters of a flight whose computation
// panicked receive; the panic itself reaches only the caller that ran it.
var errFlightPanicked = errors.New("artifact: the computation this call waited on panicked")

// flight is one in-progress computation. Waiters share the result via
// do.
type flight struct {
	once    sync.Once
	payload []byte
	cached  bool
	err     error
	refs    int
}

// do runs body once per flight and hands every caller its result.
// sync.Once counts a panicking body as done, so the panic error is
// recorded before the body runs and replaced only when it returns: a
// waiter parked on a panicked flight gets an error, never a nil payload
// with a nil error.
func (f *flight) do(body func() ([]byte, bool, error)) ([]byte, bool, error) {
	f.once.Do(func() {
		f.err = errFlightPanicked
		f.payload, f.cached, f.err = body()
	})
	return f.payload, f.cached, f.err
}

// flightGroup tracks the active flights of one store.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// join returns the active flight for key, creating it if absent, and
// registers the caller as a waiter.
func (g *flightGroup) join(key string) *flight {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = map[string]*flight{}
	}
	f, ok := g.m[key]
	if !ok {
		f = &flight{}
		g.m[key] = f
	}
	f.refs++
	return f
}

// leave drops the caller's reference; the last waiter out removes the
// flight so a later miss starts a fresh computation. Callers defer it: a
// compute that panics must not leave its flight behind, answering every
// later caller with the panicked attempt's nothing.
func (g *flightGroup) leave(key string, f *flight) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f.refs--
	if f.refs == 0 && g.m[key] == f {
		delete(g.m, key)
	}
}

// active returns the number of in-progress flights — a gauge.
func (g *flightGroup) active() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}

// has reports whether key currently has an in-progress flight.
func (g *flightGroup) has(key string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.m[key]
	return ok
}

// keys snapshots the keys of all active flights.
func (g *flightGroup) keys() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.m))
	for k := range g.m {
		out = append(out, k)
	}
	return out
}
