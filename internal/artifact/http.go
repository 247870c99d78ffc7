// The HTTP transport's server half: plain handlers over a Store, so any
// process holding a store — the dmccd daemon first of all — can be
// another store's peer.
//
// Wire protocol (mirrored by the peer client in peer.go):
//
//	GET  /artifact/{id}?key=K   raw payload bytes, 404 on miss
//	PUT  /artifact/{id}?key=K   store the request body under K
//	GET  /keys                  {"keys": [...]} inventory
//
// {id} is KeyID(K) — the sha-256 of the key text — and the exact key
// text rides in the query string, so the server verifies text and
// digest agree before touching the store: the same hash-collision
// guard the disk record header performs. A GET whose key has an
// in-progress local flight is held briefly (flightWait) before the
// final probe, so a peer re-requesting a key this process is already
// computing coalesces onto the one computation instead of compiling
// its own copy.
package artifact

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// MaxPayloadBytes caps one PUT /artifact body. Frozen plans and sweep
// rows are kilobytes; anything beyond this is a client error.
const MaxPayloadBytes = 16 << 20

// flightWait bounds how long a GET for a cooking key is held before
// the final miss probe; flightPoll is the re-check interval.
const (
	flightWait = 2 * time.Second
	flightPoll = 20 * time.Millisecond
)

// httpKey extracts and verifies the (id, key) pair of an /artifact
// request. An empty key or a digest mismatch is a client error.
func httpKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.URL.Query().Get("key")
	if key == "" {
		httpErr(w, http.StatusBadRequest, "key query parameter is required")
		return "", false
	}
	if id := r.PathValue("id"); id != KeyID(key) {
		httpErr(w, http.StatusBadRequest, "id %s does not match key digest %s", id, KeyID(key))
		return "", false
	}
	return key, true
}

func httpErr(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ServeGet handles GET /artifact/{id}: the payload bytes on a hit, 404
// on a miss. When the store has an active flight for the key the miss
// is deferred up to flightWait — request coalescing across daemons: this
// process's one DP run serves the caller too.
func ServeGet(s *Store, w http.ResponseWriter, r *http.Request) {
	key, ok := httpKey(w, r)
	if !ok {
		return
	}
	if payload, ok := s.Get(key); ok {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(payload)
		return
	}
	if s.flights.has(key) {
		deadline := time.Now().Add(flightWait)
		for s.flights.has(key) && time.Now().Before(deadline) {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(flightPoll):
			}
		}
		if payload, ok := s.Get(key); ok {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(payload)
			return
		}
	}
	httpErr(w, http.StatusNotFound, "no artifact for key %s", KeyID(key))
}

// ServePut handles PUT /artifact/{id}: store the body under the key.
func ServePut(s *Store, w http.ResponseWriter, r *http.Request) {
	key, ok := httpKey(w, r)
	if !ok {
		return
	}
	payload, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxPayloadBytes))
	if err != nil {
		httpErr(w, http.StatusRequestEntityTooLarge, "reading payload: %v", err)
		return
	}
	if err := s.Put(key, payload); err != nil {
		httpErr(w, http.StatusInternalServerError, "put: %v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// keysDoc is the GET /keys wire document.
type keysDoc struct {
	Keys []string `json:"keys"`
}

// ServeKeys handles GET /keys: the store's key inventory.
func ServeKeys(s *Store, w http.ResponseWriter, r *http.Request) {
	keys, err := s.Keys()
	if err != nil {
		httpErr(w, http.StatusInternalServerError, "keys: %v", err)
		return
	}
	if keys == nil {
		keys = []string{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(keysDoc{Keys: keys})
}

// artifactURL builds the /artifact/{id} URL for a key against a base.
func artifactURL(base, key string) string {
	return base + "/artifact/" + KeyID(key) + "?key=" + url.QueryEscape(key)
}
