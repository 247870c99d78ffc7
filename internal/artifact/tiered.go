// Tiered: the two-level backend a fleet member runs — the hardened
// disk Store as a read-through cache over a Remote peer, write-through
// on every computed result. The single-flight layer sits at the top of
// the tier stack, so one cold key costs one local-probe + remote-probe
// + compute sequence no matter how many local callers race, and the
// computed payload lands in both tiers before the flight closes: the
// next daemon asking the peer gets a hit instead of running the DP
// again.
//
// Remote failures never escape: a dead peer turns the backend into the
// plain disk store plus a counted warning per degraded call
// (Stats.RemoteErrors).
package artifact

import (
	"sort"
	"sync/atomic"
)

// Tiered is a local disk tier over a remote peer tier. Safe for
// concurrent use.
type Tiered struct {
	local  *Store
	remote *Remote
	// Warnf receives degradation diagnostics; nil silences them.
	// Defaults to the local store's Warnf at construction.
	Warnf func(format string, args ...any)

	localHits, remoteHits, misses, prewarmed atomic.Int64

	flights flightGroup
}

// Tiered implements Backend and Lister.
var (
	_ Backend = (*Tiered)(nil)
	_ Lister  = (*Tiered)(nil)
)

// NewTiered stacks the local store over the remote peer.
func NewTiered(local *Store, remote *Remote) *Tiered {
	return &Tiered{local: local, remote: remote, Warnf: local.Warnf}
}

// Local returns the disk tier.
func (t *Tiered) Local() *Store { return t.local }

// Remote returns the peer tier.
func (t *Tiered) Remote() *Remote { return t.remote }

func (t *Tiered) warnf(format string, args ...any) {
	if t.Warnf != nil {
		t.Warnf(format, args...)
	}
}

// Get returns the payload for key from the first tier that has it. A
// remote hit is written into the local tier (best-effort) so the next
// read is local.
func (t *Tiered) Get(key string) ([]byte, bool) {
	return t.get(key, true)
}

// get is Get with the full-miss counter optional, mirroring Store.get:
// the re-check inside a flight must not double-count its caller's miss.
func (t *Tiered) get(key string, countMiss bool) ([]byte, bool) {
	if p, ok := t.local.Get(key); ok {
		t.localHits.Add(1)
		return p, true
	}
	if p, ok := t.remote.Get(key); ok {
		t.remoteHits.Add(1)
		if err := t.local.Put(key, p); err != nil {
			t.warnf("artifact: tiered: filling local tier: %v", err)
		}
		return p, true
	}
	if countMiss {
		t.misses.Add(1)
	}
	return nil, false
}

// Put stores payload in both tiers: the local write must succeed (it
// is the tier reads come from), the remote write-through is
// best-effort.
func (t *Tiered) Put(key string, payload []byte) error {
	if err := t.local.Put(key, payload); err != nil {
		return err
	}
	if err := t.remote.Put(key, payload); err != nil {
		t.warnf("artifact: tiered: write-through: %v", err)
	}
	return nil
}

// GetOrCompute runs the Backend contract with one flight fused across
// both tiers: local probe, remote probe, compute, then write-through to
// both. Concurrent local callers for one key collapse onto one
// sequence; cached reports whether the payload came from either tier.
func (t *Tiered) GetOrCompute(key string, compute func() ([]byte, error)) (payload []byte, cached bool, err error) {
	if p, ok := t.Get(key); ok {
		return p, true, nil
	}
	f := t.flights.join(key)
	defer t.flights.leave(key, f)
	return f.do(func() ([]byte, bool, error) {
		// Re-check both tiers under the flight: a concurrent worker or a
		// peer daemon may have finished while we joined. The miss above
		// already counted; don't count this probe as a second one.
		if p, ok := t.get(key, false); ok {
			return p, true, nil
		}
		p, err := compute()
		if err == nil {
			if perr := t.Put(key, p); perr != nil {
				t.warnf("artifact: %v", perr)
			}
		}
		return p, false, err
	})
}

// GC evicts from the local tier only; the peer owns its own eviction.
func (t *Tiered) GC(maxBytes int64) (int, error) { return t.local.GC(maxBytes) }

// InFlight reports the number of active fused flights.
func (t *Tiered) InFlight() int { return t.flights.active() }

// HasFlight reports an in-progress fused computation for key.
func (t *Tiered) HasFlight(key string) bool { return t.flights.has(key) }

// Keys merges both tiers' inventories (sorted, deduplicated). An
// unreachable peer degrades to the local inventory with a warning.
func (t *Tiered) Keys() ([]string, error) {
	keys, err := t.local.Keys()
	if err != nil {
		return nil, err
	}
	rkeys, err := t.remote.Keys()
	if err != nil {
		t.warnf("artifact: tiered: %v (serving local inventory only)", err)
	}
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		seen[k] = true
	}
	for _, k := range rkeys {
		if !seen[k] {
			keys = append(keys, k)
			seen[k] = true
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Prewarm pulls every key in the peer's inventory that is absent
// locally into the local tier, and returns the full remote inventory
// (for plan registration downstream) plus the number of keys pulled.
// An unreachable peer returns the error — the caller logs and runs
// cold; nothing else degrades.
func (t *Tiered) Prewarm() (keys []string, pulled int, err error) {
	keys, err = t.remote.Keys()
	if err != nil {
		return nil, 0, err
	}
	for _, key := range keys {
		if t.local.Contains(key) {
			continue
		}
		p, ok := t.remote.Get(key)
		if !ok {
			continue // evicted or unreadable between inventory and fetch
		}
		if perr := t.local.Put(key, p); perr != nil {
			t.warnf("artifact: prewarm: %v", perr)
			continue
		}
		pulled++
	}
	t.prewarmed.Add(int64(pulled))
	return keys, pulled, nil
}

// Stats snapshots the tier-level view: Hits/Misses are whole-backend
// outcomes (a remote hit is a hit), LocalHits/RemoteHits split the hits
// by serving tier, and the disk-health and byte counters aggregate both
// tiers' traffic.
func (t *Tiered) Stats() Stats {
	ls, rs := t.local.Stats(), t.remote.Stats()
	return Stats{
		Hits:         t.localHits.Load() + t.remoteHits.Load(),
		Misses:       t.misses.Load(),
		Puts:         ls.Puts,
		BytesRead:    ls.BytesRead + rs.BytesRead,
		BytesWritten: ls.BytesWritten + rs.BytesWritten,
		TouchFails:   ls.TouchFails,
		Evictions:    ls.Evictions,
		LocalHits:    t.localHits.Load(),
		RemoteHits:   t.remoteHits.Load(),
		RemoteErrors: rs.RemoteErrors,
		Prewarmed:    t.prewarmed.Load(),
	}
}
