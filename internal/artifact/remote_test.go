package artifact

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// A peer that fails twice with 500 then recovers: the retry schedule
// turns a transient blip into a hit, and the sleeps follow the
// jittered exponential schedule.
func TestRemoteRetriesTransientFailures(t *testing.T) {
	upstream := openQuiet(t, "")
	if err := upstream.Put("flaky", []byte("eventually")); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	ts := serveStore(t, upstream, func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) <= 2 {
				http.Error(w, "transient", http.StatusInternalServerError)
				return
			}
			inner.ServeHTTP(w, r)
		})
	})

	s := openQuiet(t, ts.URL)
	s.peer.retries, s.peer.backoff = 2, 10*time.Millisecond
	var slept []time.Duration
	s.peer.sleep = func(d time.Duration) { slept = append(slept, d) }
	s.peer.jitter = func() float64 { return 0.5 } // deterministic: factor 1.0

	p, ok := s.Get("flaky")
	if !ok || string(p) != "eventually" {
		t.Fatalf("Get after retries = %q, %v", p, ok)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	// backoff * 2^0, backoff * 2^1 with jitter factor pinned to 1.0.
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 20*time.Millisecond {
		t.Fatalf("backoff schedule = %v, want [10ms 20ms]", slept)
	}
	st := s.Stats()
	if st.Hits != 1 || st.RemoteHits != 1 || st.RemoteErrors != 0 {
		t.Fatalf("stats after recovered retry = %+v", st)
	}
}

// A miss (404) is a clean outcome: no retries, no error counted.
func TestRemoteMissDoesNotRetry(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		httpErr(w, http.StatusNotFound, "no artifact")
	}))
	defer ts.Close()

	s := openQuiet(t, ts.URL)
	s.peer.retries = 3
	s.peer.sleep = func(d time.Duration) { t.Errorf("slept %v on a 404", d) }
	if _, ok := s.Get("absent"); ok {
		t.Fatal("404 read as hit")
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d calls for a 404, want 1", calls.Load())
	}
	st := s.Stats()
	if st.Misses != 1 || st.RemoteErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// An unreachable peer degrades to counted misses plus warnings — the
// serve path must never see an error from a Get.
func TestRemoteUnreachableDegrades(t *testing.T) {
	var warned atomic.Int64
	s := openQuiet(t, "http://127.0.0.1:1")
	s.Warnf = func(string, ...any) { warned.Add(1) }
	s.peer.retries, s.peer.backoff = 1, time.Millisecond
	s.peer.client = &http.Client{Timeout: 500 * time.Millisecond}
	s.peer.sleep = func(time.Duration) {}

	if _, ok := s.Get("anything"); ok {
		t.Fatal("unreachable peer returned a hit")
	}
	st := s.Stats()
	if st.Misses != 1 || st.RemoteErrors != 1 {
		t.Fatalf("stats = %+v, want 1 miss and 1 remote error", st)
	}
	if warned.Load() == 0 {
		t.Fatal("degradation did not warn")
	}
	if _, _, err := s.Prewarm(); err == nil {
		t.Fatal("Prewarm against unreachable peer returned nil error")
	}
	// GetOrCompute still produces the payload, locally.
	p, cached, err := s.GetOrCompute("anything", func() ([]byte, error) {
		return []byte("local"), nil
	})
	if err != nil || cached || string(p) != "local" {
		t.Fatalf("GetOrCompute = %q, cached=%v, err=%v", p, cached, err)
	}
}

// A store whose peer is dead behaves exactly like the plain disk store:
// computes locally, serves warm hits, returns no errors, and counts the
// degradations.
func TestTieredDeadRemoteDegradesToLocal(t *testing.T) {
	s := openQuiet(t, "http://127.0.0.1:1")
	s.peer.retries = 0
	s.peer.client = &http.Client{Timeout: 500 * time.Millisecond}

	p, cached, err := s.GetOrCompute("k", func() ([]byte, error) {
		return []byte("computed"), nil
	})
	if err != nil || cached || string(p) != "computed" {
		t.Fatalf("cold GetOrCompute = %q, cached=%v, err=%v", p, cached, err)
	}
	p, cached, err = s.GetOrCompute("k", func() ([]byte, error) {
		t.Error("compute ran warm")
		return nil, nil
	})
	if err != nil || !cached || string(p) != "computed" {
		t.Fatalf("warm GetOrCompute = %q, cached=%v, err=%v", p, cached, err)
	}
	st := s.Stats()
	if st.LocalHits != 1 || st.RemoteHits != 0 {
		t.Fatalf("stats = %+v, want the warm hit served locally", st)
	}
	if st.RemoteErrors == 0 {
		t.Fatal("dead peer left RemoteErrors at 0")
	}
	// Prewarm reports the unreachable peer as an error; Keys degrades to
	// the local inventory.
	if _, _, err := s.Prewarm(); err == nil {
		t.Fatal("Prewarm against dead peer returned nil error")
	}
	keys, err := s.Keys()
	if err != nil || len(keys) != 1 || keys[0] != "k" {
		t.Fatalf("Keys = %v, %v; want local inventory", keys, err)
	}
}

// The hard timeout bounds a hung peer; the call degrades to a miss. The
// production bound outlasts the server's flight hold, or a peer's
// in-progress compile would read as an error.
func TestRemoteTimeoutDegrades(t *testing.T) {
	if peerTimeout <= flightWait {
		t.Fatalf("peerTimeout %v does not outlast flightWait %v", peerTimeout, flightWait)
	}
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer func() { close(release); ts.Close() }()

	s := openQuiet(t, ts.URL)
	s.peer.retries = 0
	s.peer.client = &http.Client{Timeout: 100 * time.Millisecond}
	start := time.Now()
	if _, ok := s.Get("slow"); ok {
		t.Fatal("hung peer returned a hit")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout did not bound the call: %v", elapsed)
	}
	if st := s.Stats(); st.RemoteErrors != 1 {
		t.Fatalf("stats = %+v, want 1 remote error", st)
	}
}

// Read-through: a peer hit is filled into the local disk so the next
// read never leaves the box; write-through pushes computed payloads to
// the peer.
func TestTieredReadThroughAndWriteThrough(t *testing.T) {
	upstream := openQuiet(t, "")
	s := openQuiet(t, serveStore(t, upstream, nil).URL)

	// Seed the peer only; the first read is a remote hit that fills local.
	if err := upstream.Put("warm", []byte("from-peer")); err != nil {
		t.Fatal(err)
	}
	if p, ok := s.Get("warm"); !ok || string(p) != "from-peer" {
		t.Fatalf("Get = %q, %v", p, ok)
	}
	if !s.Contains("warm") {
		t.Fatal("remote hit was not filled into the local tier")
	}
	if p, ok := s.Get("warm"); !ok || string(p) != "from-peer" {
		t.Fatalf("second Get = %q, %v", p, ok)
	}
	st := s.Stats()
	if st.RemoteHits != 1 || st.LocalHits != 1 {
		t.Fatalf("stats = %+v, want one hit per tier", st)
	}

	// Write-through: a locally computed payload lands on the peer.
	if _, _, err := s.GetOrCompute("computed", func() ([]byte, error) {
		return []byte("pushed"), nil
	}); err != nil {
		t.Fatal(err)
	}
	if p, ok := upstream.Get("computed"); !ok || string(p) != "pushed" {
		t.Fatalf("peer after write-through = %q, %v", p, ok)
	}
}

// Prewarm pulls the peer's inventory into the local disk, skipping keys
// already present, and returns the inventory for downstream plan
// registration.
func TestTieredPrewarm(t *testing.T) {
	upstream := openQuiet(t, "")
	s := openQuiet(t, serveStore(t, upstream, nil).URL)

	for _, k := range []string{"pw-a", "pw-b", "pw-c"} {
		if err := upstream.Put(k, []byte("peer:"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.putLocal("pw-b", []byte("already-local")); err != nil {
		t.Fatal(err)
	}

	keys, pulled, err := s.Prewarm()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 {
		t.Fatalf("inventory = %v, want 3 keys", keys)
	}
	if pulled != 2 {
		t.Fatalf("pulled = %d, want 2 (pw-b already local)", pulled)
	}
	for _, k := range []string{"pw-a", "pw-c"} {
		if p, ok := s.getLocal(k); !ok || string(p) != "peer:"+k {
			t.Fatalf("local %s after prewarm = %q, %v", k, p, ok)
		}
	}
	// The pre-existing local copy was not overwritten.
	if p, _ := s.getLocal("pw-b"); string(p) != "already-local" {
		t.Fatalf("pw-b = %q, want untouched local copy", p)
	}
	if st := s.Stats(); st.Prewarmed != 2 {
		t.Fatalf("stats = %+v, want Prewarmed=2", st)
	}
}

// A GET for a key with an in-progress flight on the server is held and
// served from the finished computation — cross-daemon coalescing.
func TestServeGetCoalescesWithFlight(t *testing.T) {
	server := openQuiet(t, "")
	ts := serveStore(t, server, nil)

	computing := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := server.GetOrCompute("slow-key", func() ([]byte, error) {
			close(computing)
			<-release
			return []byte("cooked"), nil
		})
		done <- err
	}()
	<-computing

	front := openQuiet(t, ts.URL)
	front.peer.retries = 0
	got := make(chan string, 1)
	go func() {
		p, ok := front.Get("slow-key")
		if !ok {
			got <- "<miss>"
			return
		}
		got <- string(p)
	}()
	// Give the GET time to land in the flight-wait loop, then finish the
	// computation it is waiting on.
	time.Sleep(50 * time.Millisecond)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if g := <-got; g != "cooked" {
		t.Fatalf("coalesced GET = %q, want the computed payload", g)
	}
}

// Digest/key mismatches and oversized payloads are client errors.
func TestHTTPValidation(t *testing.T) {
	s := openQuiet(t, "")
	ts := serveStore(t, s, nil)

	// Wrong digest for the key text.
	resp, err := http.Get(ts.URL + "/artifact/" + KeyID("other") + "?key=mismatch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("digest mismatch status = %d, want 400", resp.StatusCode)
	}

	// Missing key parameter.
	resp, err = http.Get(ts.URL + "/artifact/" + KeyID("k"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing key status = %d, want 400", resp.StatusCode)
	}

	// Oversized PUT.
	big := strings.NewReader(strings.Repeat("x", MaxPayloadBytes+1))
	req, err := http.NewRequest(http.MethodPut, artifactURL(ts.URL, "big"), big)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized put status = %d, want 413", resp.StatusCode)
	}
	if s.Stats().Puts != 0 {
		t.Fatal("oversized put landed in the store")
	}
}
