// Remote: an artifact backend over a peer's HTTP store (the server
// half in http.go — typically another dmccd daemon). The client is
// built for the serve path, so a broken or unreachable peer can only
// cost recomputation, never an error:
//
//   - idempotent GETs retry a bounded number of times with jittered
//     exponential backoff; a 404 is a clean miss and never retried;
//   - every call carries a hard timeout (RemoteOptions.Timeout);
//   - exhausted retries degrade to a miss with a counted warning
//     (Stats.RemoteErrors) — the caller simply computes locally.
package artifact

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// RemoteOptions configures a Remote backend. The zero value is usable.
type RemoteOptions struct {
	// Timeout bounds one HTTP call, connection to last byte. 0 means
	// 10s. It must exceed the server's flight-hold (flightWait) or a
	// peer's in-progress compile reads as an error instead of a miss.
	Timeout time.Duration
	// Retries is the number of re-attempts after a failed idempotent
	// GET (transport error or 5xx). 0 means 2; negative means none.
	Retries int
	// Backoff is the base of the jittered exponential backoff between
	// retries. 0 means 50ms.
	Backoff time.Duration
	// Warnf receives degradation diagnostics; nil silences them.
	Warnf func(format string, args ...any)
	// Client overrides the HTTP client (its own Timeout then governs).
	Client *http.Client
}

// Remote is an artifact backend served by a peer over HTTP. Safe for
// concurrent use.
type Remote struct {
	base    string
	client  *http.Client
	retries int
	backoff time.Duration
	warnf   func(format string, args ...any)

	hits, misses, puts, errors atomic.Int64
	bytesRead, bytesWritten    atomic.Int64

	flights flightGroup

	// sleep and jitter are test seams for the backoff schedule.
	sleep  func(time.Duration)
	jitter func() float64
}

// Remote implements Backend and Lister.
var (
	_ Backend = (*Remote)(nil)
	_ Lister  = (*Remote)(nil)
)

// OpenRemote returns a backend over the peer store at base (e.g.
// "http://127.0.0.1:8077"). It performs no I/O: an unreachable peer
// surfaces as counted misses, not as a construction error.
func OpenRemote(base string, opts RemoteOptions) *Remote {
	if opts.Timeout == 0 {
		opts.Timeout = 10 * time.Second
	}
	retries := opts.Retries
	if retries == 0 {
		retries = 2
	} else if retries < 0 {
		retries = 0
	}
	if opts.Backoff == 0 {
		opts.Backoff = 50 * time.Millisecond
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: opts.Timeout}
	}
	return &Remote{
		base:    strings.TrimRight(base, "/"),
		client:  client,
		retries: retries,
		backoff: opts.Backoff,
		warnf:   opts.Warnf,
		sleep:   time.Sleep,
		jitter:  rand.Float64,
	}
}

// Base returns the peer's base URL.
func (r *Remote) Base() string { return r.base }

func (r *Remote) warn(format string, args ...any) {
	if r.warnf != nil {
		r.warnf(format, args...)
	}
}

// backoffFor returns the jittered delay before retry attempt i (0-based):
// backoff * 2^i, scaled by a uniform factor in [0.5, 1.5) so a fleet of
// clients retrying the same dead peer does not thunder in lockstep.
func (r *Remote) backoffFor(attempt int) time.Duration {
	d := r.backoff << attempt
	return time.Duration(float64(d) * (0.5 + r.jitter()))
}

// getBody performs one GET with retries, returning the body on 200 and
// ok=false on 404. Any other outcome after the retry budget is spent is
// reported as err — the caller converts it into a degraded miss.
func (r *Remote) getBody(url string) (body []byte, ok bool, err error) {
	for attempt := 0; ; attempt++ {
		var resp *http.Response
		resp, err = r.client.Get(url)
		if err == nil {
			switch resp.StatusCode {
			case http.StatusOK:
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				if err == nil {
					return body, true, nil
				}
			case http.StatusNotFound:
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				return nil, false, nil
			default:
				raw, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
				resp.Body.Close()
				err = fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(raw))
				if resp.StatusCode >= 400 && resp.StatusCode < 500 {
					// A client error is not transient; retrying re-sends
					// the same wrong request.
					return nil, false, err
				}
			}
		}
		if attempt >= r.retries {
			return nil, false, err
		}
		r.sleep(r.backoffFor(attempt))
	}
}

// Get fetches the payload for key from the peer. Misses and failures
// both return ok=false; failures additionally count RemoteErrors and
// warn — the remote being down must degrade, never error.
func (r *Remote) Get(key string) ([]byte, bool) {
	body, ok, err := r.getBody(artifactURL(r.base, key))
	if err != nil {
		r.errors.Add(1)
		r.warn("artifact: remote %s get: %v (degrading to miss)", r.base, err)
		r.misses.Add(1)
		return nil, false
	}
	if !ok {
		r.misses.Add(1)
		return nil, false
	}
	r.hits.Add(1)
	r.bytesRead.Add(int64(len(body)))
	return body, true
}

// Put stores payload under key on the peer. Unlike Get it reports the
// failure — callers on the serve path (the tiered backend) downgrade
// it to a warning themselves, keeping write-through best-effort.
func (r *Remote) Put(key string, payload []byte) error {
	req, err := http.NewRequest(http.MethodPut, artifactURL(r.base, key), bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("artifact: remote put: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := r.client.Do(req)
	if err != nil {
		r.errors.Add(1)
		return fmt.Errorf("artifact: remote %s put: %w", r.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		r.errors.Add(1)
		return fmt.Errorf("artifact: remote %s put: %s: %s", r.base, resp.Status, bytes.TrimSpace(raw))
	}
	io.Copy(io.Discard, resp.Body)
	r.puts.Add(1)
	r.bytesWritten.Add(int64(len(payload)))
	return nil
}

// GetOrCompute is the Backend contract over the peer: remote hit, else
// compute locally and write the result through (best-effort). The peer
// check runs inside the single flight — checking before joining would
// let a worker whose Get missed become a fresh leader after the first
// flight already computed and drained, running the computation twice.
func (r *Remote) GetOrCompute(key string, compute func() ([]byte, error)) (payload []byte, cached bool, err error) {
	f := r.flights.join(key)
	defer r.flights.leave(key, f)
	return f.do(func() ([]byte, bool, error) {
		if p, ok := r.Get(key); ok {
			return p, true, nil
		}
		p, err := compute()
		if err == nil {
			if perr := r.Put(key, p); perr != nil {
				r.warn("%v", perr)
			}
		}
		return p, false, err
	})
}

// GC is a no-op: the peer owns its own eviction.
func (r *Remote) GC(maxBytes int64) (int, error) { return 0, nil }

// HasFlight reports an in-progress local computation for key.
func (r *Remote) HasFlight(key string) bool { return r.flights.has(key) }

// Keys fetches the peer's key inventory (GET /keys), with the same
// retry schedule as Get. Unlike Get it returns the error: prewarming
// wants to report "peer unreachable" rather than silently warm zero
// keys, though callers still treat it as a degradation.
func (r *Remote) Keys() ([]string, error) {
	body, ok, err := r.getBody(r.base + "/keys")
	if err != nil || !ok {
		r.errors.Add(1)
		if err == nil {
			err = fmt.Errorf("not found")
		}
		return nil, fmt.Errorf("artifact: remote %s keys: %w", r.base, err)
	}
	var doc keysDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		r.errors.Add(1)
		return nil, fmt.Errorf("artifact: remote %s keys: decoding: %w", r.base, err)
	}
	return doc.Keys, nil
}

// Stats snapshots the remote's counters. Hits are mirrored into
// RemoteHits so a bare Remote and a Tiered backend report tier traffic
// under the same field.
func (r *Remote) Stats() Stats {
	return Stats{
		Hits:         r.hits.Load(),
		Misses:       r.misses.Load(),
		Puts:         r.puts.Load(),
		BytesRead:    r.bytesRead.Load(),
		BytesWritten: r.bytesWritten.Load(),
		RemoteHits:   r.hits.Load(),
		RemoteErrors: r.errors.Load(),
	}
}
