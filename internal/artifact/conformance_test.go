// Store conformance: one shared battery run against every shape a store
// takes — disk alone, disk with a live peer, and disk with a peer
// behind a lossy wire — so the contract (best-effort misses,
// single-flight dedup, GC safety under -race) holds whichever tier
// answers.
package artifact

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// storeHarness builds one store shape for the battery. dirs are the
// on-disk record directories behind the store (both tiers when it has a
// peer) — the corruption cases damage records there directly.
type storeHarness struct {
	name string
	open func(t *testing.T) (*Store, []string)
}

// openQuiet opens a store over a fresh directory with warnings silenced.
func openQuiet(t *testing.T, peerBase string) *Store {
	t.Helper()
	s, err := OpenWithPeer(t.TempDir(), peerBase)
	if err != nil {
		t.Fatal(err)
	}
	s.Warnf = func(string, ...any) {}
	return s
}

// storeHandler mounts the artifact routes over s, as the daemon does.
func storeHandler(s *Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /artifact/{id}", func(w http.ResponseWriter, r *http.Request) { ServeGet(s, w, r) })
	mux.HandleFunc("PUT /artifact/{id}", func(w http.ResponseWriter, r *http.Request) { ServePut(s, w, r) })
	mux.HandleFunc("GET /keys", func(w http.ResponseWriter, r *http.Request) { ServeKeys(s, w, r) })
	return mux
}

// serveStore serves s over httptest for the test's lifetime; wrap, when
// non-nil, sits between the wire and the routes.
func serveStore(t *testing.T, s *Store, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	h := storeHandler(s)
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// openPeered opens a store whose peer is another fresh store, served
// through wrap. Retries do not sleep.
func openPeered(t *testing.T, wrap func(http.Handler) http.Handler) (*Store, []string) {
	upstream := openQuiet(t, "")
	s := openQuiet(t, serveStore(t, upstream, wrap).URL)
	s.peer.sleep = func(time.Duration) {}
	return s, []string{s.Dir(), upstream.Dir()}
}

// everyOtherFails answers every other request with a 503, so peer reads
// only succeed through the client's retries and half the write-throughs
// fail.
func everyOtherFails(h http.Handler) http.Handler {
	var n atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 1 {
			http.Error(w, "flaky", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	})
}

func harnesses() []storeHarness {
	return []storeHarness{
		{
			name: "disk",
			open: func(t *testing.T) (*Store, []string) {
				s := openQuiet(t, "")
				return s, []string{s.Dir()}
			},
		},
		{
			name: "tiered",
			open: func(t *testing.T) (*Store, []string) { return openPeered(t, nil) },
		},
		{
			name: "remote",
			open: func(t *testing.T) (*Store, []string) { return openPeered(t, everyOtherFails) },
		},
	}
}

// flightRefs is the number of callers joined to key's flight.
func flightRefs(g *flightGroup, key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f := g.m[key]; f != nil {
		return f.refs
	}
	return 0
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting")
		}
	}
}

// corruptRecords damages every record file under the dirs with the
// given mutation.
func corruptRecords(t *testing.T, dirs []string, mutate func([]byte) []byte) int {
	t.Helper()
	n := 0
	for _, dir := range dirs {
		filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			n++
			return nil
		})
	}
	return n
}

// TestBackendConformance runs the battery over every store shape (see
// harnesses): each is one backend a daemon can be configured with.
func TestBackendConformance(t *testing.T) {
	for _, h := range harnesses() {
		h := h
		t.Run(h.name, func(t *testing.T) {
			t.Run("roundtrip", func(t *testing.T) {
				b, _ := h.open(t)
				key := KeyOf("kind=conf", "m=64")
				if _, ok := b.Get(key); ok {
					t.Fatal("Get on empty backend hit")
				}
				payload := []byte(`{"mincost":584}`)
				if err := b.Put(key, payload); err != nil {
					t.Fatal(err)
				}
				got, ok := b.Get(key)
				if !ok || !bytes.Equal(got, payload) {
					t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
				}
				st := b.Stats()
				if st.Hits != 1 || st.Misses != 1 || st.Puts < 1 {
					t.Fatalf("stats = %+v", st)
				}
			})

			t.Run("panicking-compute-leaves-no-flight", func(t *testing.T) {
				b, _ := h.open(t)
				key := KeyOf("kind=conf", "panics")
				func() {
					defer func() {
						if recover() == nil {
							t.Fatal("the compute's panic did not reach the caller")
						}
					}()
					b.GetOrCompute(key, func() ([]byte, error) { panic("compute bug") })
				}()
				payload, cached, err := b.GetOrCompute(key, func() ([]byte, error) { return []byte("fresh"), nil })
				if err != nil || cached || string(payload) != "fresh" {
					t.Fatalf("after a panicked flight: %q, cached=%v, %v; want a fresh compute", payload, cached, err)
				}
			})

			t.Run("panicked-flight-fails-its-waiters", func(t *testing.T) {
				b, _ := h.open(t)
				key := KeyOf("kind=conf", "panics-with-a-waiter")
				g := &b.flights
				started, release := make(chan struct{}), make(chan struct{})
				leader := make(chan any)
				go func() {
					defer func() { leader <- recover() }()
					b.GetOrCompute(key, func() ([]byte, error) {
						close(started)
						<-release
						panic("compute bug")
					})
				}()
				<-started
				type outcome struct {
					payload []byte
					cached  bool
					err     error
				}
				waiter := make(chan outcome)
				go func() {
					p, cached, err := b.GetOrCompute(key, func() ([]byte, error) {
						return []byte("the waiter's own compute"), nil
					})
					waiter <- outcome{p, cached, err}
				}()
				waitFor(t, func() bool { return flightRefs(g, key) == 2 })
				close(release)
				if r := <-leader; r == nil {
					t.Fatal("the compute's panic did not reach the caller that ran it")
				}
				if got := <-waiter; got.err == nil {
					t.Fatalf("a waiter parked on the panicked flight got %q, cached=%v and no error", got.payload, got.cached)
				}
			})

			t.Run("corruption-is-a-miss", func(t *testing.T) {
				for _, tc := range []struct {
					name    string
					corrupt func([]byte) []byte
				}{
					{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
					{"bitflip", func(b []byte) []byte {
						c := append([]byte(nil), b...)
						c[len(c)-1] ^= 0x40
						return c
					}},
				} {
					tc := tc
					t.Run(tc.name, func(t *testing.T) {
						b, dirs := h.open(t)
						key := "conf-corrupt-" + tc.name
						if err := b.Put(key, []byte(`{"payload":"0123456789abcdef"}`)); err != nil {
							t.Fatal(err)
						}
						if n := corruptRecords(t, dirs, tc.corrupt); n == 0 {
							t.Fatal("no records found to corrupt")
						}
						if got, ok := b.Get(key); ok {
							t.Fatalf("corrupt entry read as hit: %q", got)
						}
						// The slot recovers: GetOrCompute recomputes and the
						// fresh record serves.
						p, cached, err := b.GetOrCompute(key, func() ([]byte, error) {
							return []byte("fresh"), nil
						})
						if err != nil || cached || string(p) != "fresh" {
							t.Fatalf("recompute = %q, cached=%v, err=%v", p, cached, err)
						}
						if got, ok := b.Get(key); !ok || string(got) != "fresh" {
							t.Fatalf("after recompute Get = %q, %v", got, ok)
						}
					})
				}
			})

			t.Run("singleflight-dedup", func(t *testing.T) {
				b, _ := h.open(t)
				var computes atomic.Int64
				const workers = 16
				var wg sync.WaitGroup
				start := make(chan struct{})
				results := make([][]byte, workers)
				for w := 0; w < workers; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						p, _, err := b.GetOrCompute("conf-shared", func() ([]byte, error) {
							computes.Add(1)
							return []byte("computed-once"), nil
						})
						if err != nil {
							t.Error(err)
						}
						results[w] = p
					}()
				}
				close(start)
				wg.Wait()
				if got := computes.Load(); got != 1 {
					t.Fatalf("compute ran %d times, want 1", got)
				}
				for w, p := range results {
					if string(p) != "computed-once" {
						t.Fatalf("worker %d got %q", w, p)
					}
				}
				// A later call is a plain hit.
				p, cached, err := b.GetOrCompute("conf-shared", func() ([]byte, error) {
					t.Error("compute ran on a warm key")
					return nil, nil
				})
				if err != nil || !cached || string(p) != "computed-once" {
					t.Fatalf("warm GetOrCompute = %q, cached=%v, err=%v", p, cached, err)
				}
			})

			t.Run("compute-error-not-cached", func(t *testing.T) {
				b, _ := h.open(t)
				var calls atomic.Int64
				_, _, err := b.GetOrCompute("conf-err", func() ([]byte, error) {
					calls.Add(1)
					return nil, fmt.Errorf("boom")
				})
				if err == nil {
					t.Fatal("compute error swallowed")
				}
				p, cached, err := b.GetOrCompute("conf-err", func() ([]byte, error) {
					calls.Add(1)
					return []byte("recovered"), nil
				})
				if err != nil || cached || string(p) != "recovered" {
					t.Fatalf("retry = %q, cached=%v, err=%v", p, cached, err)
				}
				if calls.Load() != 2 {
					t.Fatalf("calls = %d, want 2", calls.Load())
				}
			})

			// GC racing GetOrCompute traffic (run under -race): every
			// caller observes its correct payload, no errors, no matter
			// how aggressively the backend evicts behind it.
			t.Run("gc-vs-getorcompute", func(t *testing.T) {
				b, _ := h.open(t)
				const workers, rounds, keys = 4, 30, 8
				stop := make(chan struct{})
				var gcs sync.WaitGroup
				gcs.Add(1)
				go func() {
					defer gcs.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, err := b.GC(2 * 1200); err != nil {
							t.Errorf("gc: %v", err)
							return
						}
					}
				}()
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						for r := 0; r < rounds; r++ {
							k := fmt.Sprintf("conf-gc-%d", (w+r)%keys)
							want := "payload:" + k
							p, _, err := b.GetOrCompute(k, func() ([]byte, error) {
								return append(bytes.Repeat([]byte("x"), 1024), []byte(want)...), nil
							})
							if err != nil {
								t.Errorf("GetOrCompute(%s): %v", k, err)
								return
							}
							if !bytes.HasSuffix(p, []byte(want)) {
								t.Errorf("GetOrCompute(%s) = wrong payload", k)
								return
							}
						}
					}()
				}
				wg.Wait()
				close(stop)
				gcs.Wait()
			})
		})
	}
}

// The inventory round-trips through every store shape.
func TestKeysInventory(t *testing.T) {
	for _, h := range harnesses() {
		h := h
		t.Run(h.name, func(t *testing.T) {
			b, _ := h.open(t)
			want := []string{"inv-a", "inv-b;m=64", "inv-c"}
			for _, k := range want {
				if err := b.Put(k, []byte("p:"+k)); err != nil {
					t.Fatal(err)
				}
			}
			keys, err := b.Keys()
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != len(want) {
				t.Fatalf("Keys = %v, want %v", keys, want)
			}
			for i := range want {
				if keys[i] != want[i] {
					t.Fatalf("Keys[%d] = %q, want %q (sorted)", i, keys[i], want[i])
				}
			}
		})
	}
}
