package artifact

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func openT(t *testing.T) (*Store, *[]string) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var warns []string
	var mu sync.Mutex
	s.Warnf = func(format string, args ...any) {
		mu.Lock()
		warns = append(warns, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	return s, &warns
}

func TestPutGetRoundtrip(t *testing.T) {
	s, _ := openT(t)
	key := KeyOf("kind=test", "m=64", "n=16")
	payload := []byte(`{"mincost":584}`)
	if _, ok := s.Get(key); ok {
		t.Fatal("Get on empty store hit")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// entryPath finds the single record file of a one-entry store.
func entryPath(t *testing.T, s *Store) string {
	t.Helper()
	var found string
	filepath.Walk(s.Dir(), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			found = path
		}
		return nil
	})
	if found == "" {
		t.Fatal("no record file found")
	}
	return found
}

// Truncated and bit-flipped entries must read as misses with a logged
// warning — never as errors or panics — and be removed from disk.
func TestCorruptEntriesAreMisses(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bitflip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0x40
			return c
		}},
		{"empty", func(b []byte) []byte { return nil }},
		{"noheader", func(b []byte) []byte { return []byte("not json at all") }},
		{"staleschema", func(b []byte) []byte {
			cur := []byte(fmt.Sprintf(`{"schema":%d`, SchemaVersion))
			return bytes.Replace(b, cur, []byte(`{"schema":0`), 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, warns := openT(t)
			key := "corrupt-" + tc.name
			if err := s.Put(key, []byte(`{"v":1,"payload":"0123456789abcdef"}`)); err != nil {
				t.Fatal(err)
			}
			p := entryPath(t, s)
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, tc.corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); ok {
				t.Fatalf("corrupt entry read as hit: %q", got)
			}
			if len(*warns) != 1 {
				t.Fatalf("want exactly one warning, got %v", *warns)
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry not removed (err=%v)", err)
			}
			// The slot is reusable after the drop.
			if err := s.Put(key, []byte("fresh")); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || string(got) != "fresh" {
				t.Fatalf("re-Put after drop: got %q, %v", got, ok)
			}
		})
	}
}

// A record whose key hashes to the same path but stores different key
// text (simulated collision / mixed-up file) is a miss.
func TestKeyTextMismatchIsMiss(t *testing.T) {
	s, warns := openT(t)
	if err := s.Put("key-a", []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	// Graft key-a's record onto key-b's path.
	raw, err := os.ReadFile(entryPath(t, s))
	if err != nil {
		t.Fatal(err)
	}
	pb := s.path("key-b")
	if err := os.MkdirAll(filepath.Dir(pb), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pb, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("key-b"); ok {
		t.Fatal("foreign record read as hit")
	}
	if len(*warns) != 1 || !strings.Contains((*warns)[0], "key mismatch") {
		t.Fatalf("warnings = %v", *warns)
	}
}

// Concurrent Get while Put of the same key must be race-free (run under
// -race) and every successful Get must see a complete, valid payload —
// atomic rename guarantees no torn reads.
func TestGetWhilePutRace(t *testing.T) {
	s, _ := openT(t)
	const key = "contended"
	payload := bytes.Repeat([]byte("x0123456789"), 1000)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, ok := s.Get(key); ok && !bytes.Equal(got, payload) {
					t.Errorf("torn read: %d bytes", len(got))
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if err := s.Put(key, payload); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// Concurrent GetOrCompute calls for one key collapse to one compute.
func TestSingleFlightDedup(t *testing.T) {
	s, _ := openT(t)
	var computes atomic.Int64
	const workers = 16
	var wg sync.WaitGroup
	results := make([][]byte, workers)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			p, _, err := s.GetOrCompute("shared-key", func() ([]byte, error) {
				computes.Add(1)
				return []byte("computed-once"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[w] = p
		}(w)
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
	// A later call is a plain disk hit.
	p, cached, err := s.GetOrCompute("shared-key", func() ([]byte, error) {
		t.Error("compute ran on a warm key")
		return nil, nil
	})
	if err != nil || !cached || string(p) != "computed-once" {
		t.Fatalf("warm GetOrCompute = %q, cached=%v, err=%v", p, cached, err)
	}
}

// A compute error is shared by the flight's waiters but not persisted:
// the next call retries.
func TestSingleFlightErrorNotCached(t *testing.T) {
	s, _ := openT(t)
	var calls atomic.Int64
	_, _, err := s.GetOrCompute("err-key", func() ([]byte, error) {
		calls.Add(1)
		return nil, fmt.Errorf("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	p, cached, err := s.GetOrCompute("err-key", func() ([]byte, error) {
		calls.Add(1)
		return []byte("recovered"), nil
	})
	if err != nil || cached || string(p) != "recovered" {
		t.Fatalf("retry = %q, cached=%v, err=%v", p, cached, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2", calls.Load())
	}
}

// GC keeps the store under maxBytes by evicting oldest-touched records
// first; recently-read entries survive.
func TestGCBoundsStore(t *testing.T) {
	s, _ := openT(t)
	payload := bytes.Repeat([]byte("p"), 1024)
	for i := 0; i < 20; i++ {
		if err := s.Put(fmt.Sprintf("key-%02d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := s.GC(8 * 1200) // room for ~8 records incl. headers
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("GC removed nothing from an oversized store")
	}
	var total int64
	var files int
	filepath.Walk(s.Dir(), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
			files++
		}
		return nil
	})
	if total > 8*1200 {
		t.Fatalf("store still %d bytes after GC", total)
	}
	if files+removed != 20 {
		t.Fatalf("files=%d removed=%d, want 20 total", files, removed)
	}
	// GC under budget is a no-op.
	if removed, err := s.GC(1 << 30); err != nil || removed != 0 {
		t.Fatalf("no-op GC = %d, %v", removed, err)
	}
}

func TestKeyOf(t *testing.T) {
	if got := KeyOf("a=1", "b=2"); got != "a=1;b=2" {
		t.Fatalf("KeyOf = %q", got)
	}
	if KeyOf("a") == KeyOf("a", "") {
		// distinct part counts must not alias (";" separator makes the
		// empty final part visible)
		t.Fatal("KeyOf aliases distinct part lists")
	}
}

// The in-process recency index is the primary GC ordering: when mtime
// touches silently fail (read-only dir, noatime mount), a hot record
// must still survive eviction. This was the ISSUE 8 bug: "best effort"
// Chtimes made GC evict the hottest records first.
func TestGCRecencyIndexSurvivesTouchFailure(t *testing.T) {
	s, _ := openT(t)
	s.touch = func(string) error { return fmt.Errorf("read-only filesystem") }
	payload := bytes.Repeat([]byte("p"), 1024)
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("key-%02d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	// key-00 is the oldest put but the hottest record: read it last.
	if _, ok := s.Get("key-00"); !ok {
		t.Fatal("key-00 missing before GC")
	}
	if st := s.Stats(); st.TouchFails != 1 {
		t.Fatalf("TouchFails = %d, want 1", st.TouchFails)
	}
	if _, err := s.GC(2 * 1200); err != nil { // room for ~2 records
		t.Fatal(err)
	}
	if _, ok := s.Get("key-00"); !ok {
		t.Fatal("GC evicted the hottest record (recency index ignored)")
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatalf("Evictions = %d, want > 0", st.Evictions)
	}
}

// Records never used by this process (cold start) order by mtime and
// evict before anything the process has touched.
func TestGCColdRecordsEvictFirst(t *testing.T) {
	s, _ := openT(t)
	payload := bytes.Repeat([]byte("p"), 1024)
	for i := 0; i < 6; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen: the new store has no in-process recency for any record.
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("key-0"); !ok { // key-0 becomes the only warm record
		t.Fatal("key-0 missing")
	}
	if _, err := s2.GC(1200); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("key-0"); !ok {
		t.Fatal("GC evicted the only record with in-process recency")
	}
}

// GC must not evict a key with an active single-flight computation: a
// flight may have just Put its result and still be handing it to
// waiters. Under the dmccd daemon this is a steady-state race, with a
// peer or without one: the flight that guards the key is the one
// GetOrCompute joins, whichever tier will answer.
func TestGCSkipsActiveFlights(t *testing.T) {
	for _, h := range harnesses() {
		t.Run(h.name, func(t *testing.T) {
			s, _ := h.open(t)
			payload := bytes.Repeat([]byte("p"), 1024)
			for i := 0; i < 5; i++ {
				if err := s.Put(fmt.Sprintf("cold-%d", i), payload); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Put("hot", payload); err != nil {
				t.Fatal(err)
			}
			f := s.flights.join("hot")
			if removed, err := s.GC(0); err != nil || removed != 5 {
				t.Fatalf("GC = %d, %v; want 5 (everything but the in-flight key)", removed, err)
			}
			if !s.Contains("hot") {
				t.Fatal("GC evicted a key with an active flight")
			}
			s.flights.leave("hot", f)
			if removed, err := s.GC(0); err != nil || removed != 1 {
				t.Fatalf("GC after leaveFlight = %d, %v; want 1", removed, err)
			}
		})
	}
}

// Online GC against live GetOrCompute traffic (run under -race): every
// caller must still observe its correct payload with no error, no
// matter how aggressively GC evicts behind it.
func TestGCConcurrentWithGetOrCompute(t *testing.T) {
	s, _ := openT(t)
	const workers, rounds, keys = 4, 50, 8
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
			if _, err := s.GC(2 * 1200); err != nil {
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
				k := fmt.Sprintf("key-%d", (w+r)%keys)
				want := "payload:" + k
				p, _, err := s.GetOrCompute(k, func() ([]byte, error) {
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
}
