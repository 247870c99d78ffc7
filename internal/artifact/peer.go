// The client half of the HTTP transport: a store's optional peer,
// another daemon's store reached over the wire protocol http.go serves.
// It is built for the serve path, so a broken or unreachable peer can
// only cost recomputation, never an error:
//
//   - idempotent GETs retry a bounded number of times with jittered
//     exponential backoff; a 404 is a clean miss and never retried;
//   - every call carries a hard timeout (peerTimeout);
//   - the Store turns an exhausted retry budget into a miss with a
//     counted warning (Stats.RemoteErrors) and computes locally.
package artifact

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"time"
)

// peerTimeout bounds one call to the peer, connection to last byte. It
// must exceed the server's flight hold (flightWait), or a peer's
// in-progress compile reads as an error instead of a payload.
const peerTimeout = 5 * time.Second

// peer is the HTTP client of another daemon's store. retries, backoff,
// client, sleep and jitter are test seams; newPeer sets the production
// values.
type peer struct {
	base    string
	client  *http.Client
	retries int           // re-attempts after a failed idempotent GET
	backoff time.Duration // base of the jittered exponential backoff
	sleep   func(time.Duration)
	jitter  func() float64
}

func newPeer(base string) *peer {
	return &peer{
		base:    strings.TrimRight(base, "/"),
		client:  &http.Client{Timeout: peerTimeout},
		retries: 2,
		backoff: 50 * time.Millisecond,
		sleep:   time.Sleep,
		jitter:  rand.Float64,
	}
}

// backoffFor returns the jittered delay before retry attempt i (0-based):
// backoff * 2^i, scaled by a uniform factor in [0.5, 1.5) so a fleet of
// clients retrying the same dead peer does not thunder in lockstep.
func (p *peer) backoffFor(attempt int) time.Duration {
	d := p.backoff << attempt
	return time.Duration(float64(d) * (0.5 + p.jitter()))
}

// getBody performs one GET with retries, returning the body on 200 and
// ok=false on 404. Any other outcome after the retry budget is spent is
// reported as err — the Store converts it into a degraded miss.
func (p *peer) getBody(url string) (body []byte, ok bool, err error) {
	for attempt := 0; ; attempt++ {
		var resp *http.Response
		resp, err = p.client.Get(url)
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
		if attempt >= p.retries {
			return nil, false, err
		}
		p.sleep(p.backoffFor(attempt))
	}
}

// get fetches the payload for key: ok=false with a nil error is a miss.
func (p *peer) get(key string) ([]byte, bool, error) {
	body, ok, err := p.getBody(artifactURL(p.base, key))
	if err != nil {
		return nil, false, fmt.Errorf("artifact: remote %s get: %w", p.base, err)
	}
	return body, ok, nil
}

// put stores payload under key on the peer. Writes are not retried: the
// Store's write-through is best-effort.
func (p *peer) put(key string, payload []byte) error {
	req, err := http.NewRequest(http.MethodPut, artifactURL(p.base, key), bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("artifact: remote put: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := p.client.Do(req)
	if err != nil {
		return fmt.Errorf("artifact: remote %s put: %w", p.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("artifact: remote %s put: %s: %s", p.base, resp.Status, bytes.TrimSpace(raw))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// keys fetches the peer's key inventory (GET /keys), with the same
// retry schedule as get. A missing route is an error, not an empty
// inventory.
func (p *peer) keys() ([]string, error) {
	body, ok, err := p.getBody(p.base + "/keys")
	if err == nil && !ok {
		err = fmt.Errorf("not found")
	}
	if err != nil {
		return nil, fmt.Errorf("artifact: remote %s keys: %w", p.base, err)
	}
	var doc keysDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("artifact: remote %s keys: decoding: %w", p.base, err)
	}
	return doc.Keys, nil
}
