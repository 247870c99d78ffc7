// Package artifact is a content-addressed, on-disk result cache for
// compile and simulation artifacts: frozen plans, per-nest cost counts,
// symbolic fits, and exec/machine statistics. Entries are keyed by a
// canonical key text (program hash, parameter binding, processor count,
// engine flags — see core.(*Compiler).CacheKey) and stored as versioned,
// checksummed records under sha-256 addressed paths.
//
// The cache is strictly best-effort: a corrupt, truncated or
// schema-stale entry is a miss (with a logged warning), never an error,
// so a damaged store can only cost recomputation. An in-process
// single-flight layer (GetOrCompute) collapses concurrent workers
// computing the same key into one computation, and GC(maxBytes) keeps
// the on-disk footprint bounded by evicting the least recently used
// records.
//
// A store may have a peer: another daemon's store, reached over HTTP
// (peer.go; the server half is http.go). A local miss then reads
// through to the peer and back-fills the disk, every Put writes through
// to the peer, and Prewarm pulls the peer's inventory. The single
// flight spans both tiers, so one cold key costs one local probe, one
// peer probe and one compute however many local callers race. A dead
// peer degrades the store to its disk plus a counted warning per call.
package artifact

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SchemaVersion names the on-disk record layout AND the semantics of
// every cached payload. Bump it whenever a cached result could change
// for an unchanged key — e.g. when the cost model, the counting
// engines, or the golden SchemeSet.Signature() strings change (see
// TestSignatureGolden in internal/core). Entries written under any
// other version read as misses.
const SchemaVersion = 3

// header is the first line of every record file, before the raw
// payload bytes.
type header struct {
	Schema int    `json:"schema"`
	Key    string `json:"key"` // full key text; guards hash collisions
	Len    int    `json:"len"` // payload length in bytes
	Sum    string `json:"sum"` // crc32c of the payload, hex
}

// Stats counts cache activity since Open. TouchFails counts mtime
// touches that failed (read-only directory, noatime-style mounts) — the
// condition under which GC ordering falls back to the in-process
// recency index alone; Evictions counts records GC removed.
//
// The tier counters are zero for a store without a peer: LocalHits and
// RemoteHits split Hits by the tier that served them, RemoteErrors
// counts peer calls that failed (the degraded-to-local signal), and
// Prewarmed counts keys pulled from the peer's inventory at startup.
// With a peer, BytesRead and BytesWritten also count the payload bytes
// fetched from and written through to it.
type Stats struct {
	Hits, Misses, Puts int64
	BytesRead          int64
	BytesWritten       int64
	TouchFails         int64
	Evictions          int64
	LocalHits          int64
	RemoteHits         int64
	RemoteErrors       int64
	Prewarmed          int64
}

// String renders the stats the way dmsweep reports them. The tier
// fields appear only when any of them is nonzero, so the single-tier
// line stays what it always was. (No field name may end in "misses" or
// "hits": CI greps for "misses=0" on warm sweeps.)
func (s Stats) String() string {
	base := fmt.Sprintf("hits=%d misses=%d puts=%d read=%dB written=%dB touchfails=%d evictions=%d",
		s.Hits, s.Misses, s.Puts, s.BytesRead, s.BytesWritten, s.TouchFails, s.Evictions)
	if s.LocalHits != 0 || s.RemoteHits != 0 || s.RemoteErrors != 0 || s.Prewarmed != 0 {
		base += fmt.Sprintf(" local=%d remote=%d remote_errors=%d prewarmed=%d",
			s.LocalHits, s.RemoteHits, s.RemoteErrors, s.Prewarmed)
	}
	return base
}

// Store is one cache directory, with an optional peer. Safe for
// concurrent use.
type Store struct {
	dir string
	// Warnf, when non-nil, receives a warning for every entry dropped as
	// corrupt or stale and every degraded peer call. Defaults to silence;
	// dmsweep and dmccd point it at stderr.
	Warnf func(format string, args ...any)

	peer *peer // nil: the disk is the whole store

	// hits counts disk hits, remoteHits the misses the peer served.
	hits, misses, puts, bytesRead, bytesWritten atomic.Int64
	touchFails, evictions                       atomic.Int64
	remoteHits, remoteErrors, prewarmed         atomic.Int64

	// touch updates a record's mtime after a hit; a test seam, defaults
	// to os.Chtimes. Failures are counted, never fatal: the in-process
	// recency index below stays authoritative for GC ordering.
	touch func(path string) error

	flights flightGroup

	mu sync.Mutex
	// recency is the in-process LRU index: record path -> logical use
	// tick, bumped on every hit and put. It is the primary GC ordering;
	// mtimes only order records this process has never used (cold
	// start), because a silently failing mtime touch would otherwise
	// make GC evict the hottest records first.
	recency map[string]int64
	clock   int64
}

// Open creates the cache directory if needed and returns a store
// without a peer.
func Open(dir string) (*Store, error) { return OpenWithPeer(dir, "") }

// OpenWithPeer is Open with the store at peerBase (e.g.
// "http://127.0.0.1:8077") as the peer; "" means none. It performs no
// peer I/O: an unreachable peer surfaces as counted degradations, not as
// an error here.
func OpenWithPeer(dir, peerBase string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: open %s: %w", dir, err)
	}
	s := &Store{
		dir: dir,
		touch: func(path string) error {
			now := time.Now()
			return os.Chtimes(path, now, now)
		},
		recency: map[string]int64{},
	}
	if peerBase != "" {
		s.peer = newPeer(peerBase)
	}
	return s, nil
}

// noteUse bumps the record's in-process recency tick.
func (s *Store) noteUse(path string) {
	s.mu.Lock()
	s.clock++
	s.recency[path] = s.clock
	s.mu.Unlock()
}

// InFlight reports the number of active single-flight computations — a
// gauge, not a cumulative counter, so it lives outside Stats.
func (s *Store) InFlight() int { return s.flights.active() }

// Contains reports whether a record exists on disk for key, without
// validating it or counting a hit/miss — the cheap existence probe
// prewarming uses to skip keys that are already local. A damaged
// record reports true here; the next Get drops it as usual.
func (s *Store) Contains(key string) bool {
	_, err := os.Stat(s.path(key))
	return err == nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the activity counters.
func (s *Store) Stats() Stats {
	local, remote := s.hits.Load(), s.remoteHits.Load()
	st := Stats{
		Hits:         local + remote,
		Misses:       s.misses.Load(),
		Puts:         s.puts.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
		TouchFails:   s.touchFails.Load(),
		Evictions:    s.evictions.Load(),
	}
	if s.peer != nil {
		st.LocalHits, st.RemoteHits = local, remote
		st.RemoteErrors = s.remoteErrors.Load()
		st.Prewarmed = s.prewarmed.Load()
	}
	return st
}

func (s *Store) warnf(format string, args ...any) {
	if s.Warnf != nil {
		s.Warnf(format, args...)
	}
}

// KeyOf builds a canonical key text from parts (joined with ';') — a
// convenience for callers assembling keys from heterogeneous fields.
func KeyOf(parts ...string) string {
	var b bytes.Buffer
	for i, p := range parts {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(p)
	}
	return b.String()
}

// KeyID is the public handle of a key: the sha-256 (hex) of its
// canonical text — the digest record paths are sharded by, the daemon
// names plans with, and the HTTP transport addresses artifacts by.
func KeyID(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

// path maps a key text to its record path: two-level sharding by the
// sha-256 of the key, so directories stay small.
func (s *Store) path(key string) string {
	name := KeyID(key)
	return filepath.Join(s.dir, name[:2], name[2:])
}

// Get returns the payload stored under key, or ok=false on any miss:
// absent, truncated, checksum mismatch, schema-stale, or a key-hash
// collision. Damaged entries are reported via Warnf and removed. With a
// peer, a local miss reads through to it and a peer hit is written to
// disk (best-effort), so the next read is local.
func (s *Store) Get(key string) ([]byte, bool) {
	return s.get(key, true)
}

// get is Get with the miss counter optional: the re-check inside a
// single-flight already counted its caller's miss, and counting the
// same logical miss twice would make a cold sweep report misses=2×puts.
func (s *Store) get(key string, countMiss bool) ([]byte, bool) {
	if p, ok := s.getLocal(key); ok {
		return p, true
	}
	if s.peer != nil {
		if p, ok := s.fetch(key); ok {
			s.remoteHits.Add(1)
			if err := s.putLocal(key, p); err != nil {
				s.warnf("artifact: tiered: filling local tier: %v", err)
			}
			return p, true
		}
	}
	if countMiss {
		s.misses.Add(1)
	}
	return nil, false
}

// fetch reads key from the peer. A failed call is a miss that counts
// RemoteErrors and warns: the peer being down must degrade, never error.
func (s *Store) fetch(key string) ([]byte, bool) {
	p, ok, err := s.peer.get(key)
	if err != nil {
		s.remoteErrors.Add(1)
		s.warnf("%v (degrading to miss)", err)
		return nil, false
	}
	if ok {
		s.bytesRead.Add(int64(len(p)))
	}
	return p, ok
}

// getLocal reads key from disk alone, counting a hit but never a miss.
func (s *Store) getLocal(key string) ([]byte, bool) {
	p := s.path(key)
	raw, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	payload, err := decode(raw, key)
	if err != nil {
		s.warnf("artifact: dropping %s: %v", p, err)
		os.Remove(p)
		return nil, false
	}
	// The in-process recency index is the authoritative LRU ordering;
	// the mtime touch only helps a future process order records this one
	// used. A failed touch (read-only dir, noatime mount) is counted so
	// operators can see when on-disk recency has gone stale.
	s.noteUse(p)
	if err := s.touch(p); err != nil {
		s.touchFails.Add(1)
	}
	s.hits.Add(1)
	s.bytesRead.Add(int64(len(raw)))
	return payload, true
}

func decode(raw []byte, key string) ([]byte, error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("no header line")
	}
	var h header
	if err := json.Unmarshal(raw[:nl], &h); err != nil {
		return nil, fmt.Errorf("bad header: %v", err)
	}
	if h.Schema != SchemaVersion {
		return nil, fmt.Errorf("schema %d, want %d", h.Schema, SchemaVersion)
	}
	if h.Key != key {
		return nil, fmt.Errorf("key mismatch (hash collision or wrong file)")
	}
	payload := raw[nl+1:]
	if len(payload) != h.Len {
		return nil, fmt.Errorf("payload %d bytes, header says %d", len(payload), h.Len)
	}
	if sum := crc32.Checksum(payload, crcTable); sum != mustParseSum(h.Sum) {
		return nil, fmt.Errorf("checksum mismatch")
	}
	return payload, nil
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func mustParseSum(s string) uint32 {
	var v uint32
	fmt.Sscanf(s, "%08x", &v)
	return v
}

// Put stores payload under key. The disk write must succeed (it is the
// tier reads come from); the write-through to a peer is best-effort, a
// failure counted and warned.
func (s *Store) Put(key string, payload []byte) error {
	if err := s.putLocal(key, payload); err != nil {
		return err
	}
	if s.peer != nil {
		if err := s.peer.put(key, payload); err != nil {
			s.remoteErrors.Add(1)
			s.warnf("artifact: tiered: write-through: %v", err)
		} else {
			s.bytesWritten.Add(int64(len(payload)))
		}
	}
	return nil
}

// putLocal writes the record to disk atomically (write to a temp file
// in the same directory, then rename).
func (s *Store) putLocal(key string, payload []byte) error {
	p := s.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("artifact: put: %w", err)
	}
	h := header{
		Schema: SchemaVersion,
		Key:    key,
		Len:    len(payload),
		Sum:    fmt.Sprintf("%08x", crc32.Checksum(payload, crcTable)),
	}
	hb, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("artifact: put: %w", err)
	}
	var buf bytes.Buffer
	buf.Grow(len(hb) + 1 + len(payload))
	buf.Write(hb)
	buf.WriteByte('\n')
	buf.Write(payload)
	tmp, err := os.CreateTemp(filepath.Dir(p), ".tmp-*")
	if err != nil {
		return fmt.Errorf("artifact: put: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: put: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("artifact: put: %w", err)
	}
	s.noteUse(p)
	s.puts.Add(1)
	s.bytesWritten.Add(int64(buf.Len()))
	return nil
}

// GetOrCompute returns the cached payload for key, or runs compute,
// stores its result, and returns it. Concurrent calls for the same key
// collapse to a single compute invocation (single flight); all callers
// receive the same payload or the same error. cached reports whether
// the payload came from either tier (for this caller). A failed Put
// degrades to a warning — the computed payload is still returned. The
// computed payload is on disk and written through to the peer before
// the flight closes, so the next daemon asking the peer gets a hit.
func (s *Store) GetOrCompute(key string, compute func() ([]byte, error)) (payload []byte, cached bool, err error) {
	if p, ok := s.Get(key); ok {
		return p, true, nil
	}
	f := s.flights.join(key)
	defer s.flights.leave(key, f)
	return f.do(func() ([]byte, bool, error) {
		// Re-check under the flight: a concurrent worker may have
		// finished its Put between our Get and joining. The miss above
		// already counted; don't count this probe as a second one.
		if p, ok := s.get(key, false); ok {
			return p, true, nil
		}
		p, err := compute()
		if err == nil {
			if perr := s.Put(key, p); perr != nil {
				s.warnf("artifact: %v", perr)
			}
		}
		return p, false, err
	})
}

// Keys enumerates the key texts of every valid-looking record, sorted —
// the store's inventory, served as GET /keys and consumed by peer
// prewarming. With a peer it is the union of both tiers' inventories;
// an unreachable peer degrades to the local inventory with a warning.
func (s *Store) Keys() ([]string, error) {
	keys, err := s.localKeys()
	if err != nil || s.peer == nil {
		return keys, err
	}
	rkeys, err := s.peer.keys()
	if err != nil {
		s.remoteErrors.Add(1)
		s.warnf("artifact: tiered: %v (serving local inventory only)", err)
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

// Prewarm pulls every key in the peer's inventory that is absent on
// disk, and returns the peer's full inventory (for plan registration
// downstream) plus the number of keys pulled. An unreachable peer
// returns the error — the caller logs and runs cold; nothing else
// degrades. A store without a peer has nothing to pull.
func (s *Store) Prewarm() (keys []string, pulled int, err error) {
	if s.peer == nil {
		return nil, 0, nil
	}
	keys, err = s.peer.keys()
	if err != nil {
		s.remoteErrors.Add(1)
		return nil, 0, err
	}
	for _, key := range keys {
		if s.Contains(key) {
			continue
		}
		p, ok := s.fetch(key)
		if !ok {
			continue // evicted or unreadable between inventory and fetch
		}
		if perr := s.putLocal(key, p); perr != nil {
			s.warnf("artifact: prewarm: %v", perr)
			continue
		}
		pulled++
	}
	s.prewarmed.Add(int64(pulled))
	return keys, pulled, nil
}

// localKeys lists the records on disk. Only record headers are read,
// never payloads; undecodable files are skipped (the next Get drops
// them).
func (s *Store) localKeys() ([]string, error) {
	var keys []string
	err := filepath.Walk(s.dir, func(path string, info os.FileInfo, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			// A concurrent Put renamed its scratch file (or GC removed a
			// record) between readdir and lstat; nothing to list.
			return nil
		}
		if err != nil || info.IsDir() || strings.HasPrefix(filepath.Base(path), ".tmp-") {
			return err
		}
		key, ok := readHeaderKey(path)
		if ok {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("artifact: keys: %w", err)
	}
	sort.Strings(keys)
	return keys, nil
}

// readHeaderKey reads just the header line of a record file and returns
// its key text.
func readHeaderKey(path string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 4096)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return "", false
	}
	var h header
	if err := json.Unmarshal(line, &h); err != nil || h.Schema != SchemaVersion {
		return "", false
	}
	return h.Key, true
}

// GC removes least-recently-used records until the store's record bytes
// fit in maxBytes. It returns the number of records removed. It evicts
// from disk only; a peer owns its own eviction.
//
// Ordering: records this process has used (hit or put) are ranked by
// the in-process recency index; records it has never touched (cold
// start, or written by another process) rank older than all of them and
// order among themselves by mtime. GC is safe to run online against
// live GetOrCompute traffic: keys with an active single-flight
// computation are never evicted (a flight may have just Put its result,
// or be about to), and in-progress Put temp files are left alone.
func (s *Store) GC(maxBytes int64) (int, error) {
	type rec struct {
		path  string
		size  int64
		mtime time.Time
		tick  int64 // in-process recency; 0 = never used by this process
	}
	// Snapshot the paths of active flights and the recency index before
	// walking, so eviction decisions are consistent.
	flightKeys := s.flights.keys()
	active := make(map[string]bool, len(flightKeys))
	for _, key := range flightKeys {
		active[s.path(key)] = true
	}
	s.mu.Lock()
	ticks := make(map[string]int64, len(s.recency))
	for p, t := range s.recency {
		ticks[p] = t
	}
	s.mu.Unlock()

	var recs []rec
	var total int64
	err := filepath.Walk(s.dir, func(path string, info os.FileInfo, err error) error {
		if errors.Is(err, fs.ErrNotExist) {
			// A concurrent Put renamed its scratch file between readdir
			// and lstat; it was never a record to account.
			return nil
		}
		if err != nil || info.IsDir() {
			return err
		}
		if strings.HasPrefix(filepath.Base(path), ".tmp-") {
			// A concurrent Put's scratch file: deleting it would race the
			// rename and silently drop the computed record.
			return nil
		}
		recs = append(recs, rec{path, info.Size(), info.ModTime(), ticks[path]})
		total += info.Size()
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("artifact: gc: %w", err)
	}
	if total <= maxBytes {
		return 0, nil
	}
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if (a.tick == 0) != (b.tick == 0) {
			return a.tick == 0 // cold records evict before any used one
		}
		if a.tick != b.tick {
			return a.tick < b.tick
		}
		return a.mtime.Before(b.mtime)
	})
	removed := 0
	for _, r := range recs {
		if total <= maxBytes {
			break
		}
		if active[r.path] {
			continue
		}
		if err := os.Remove(r.path); err != nil {
			s.warnf("artifact: gc: %v", err)
			continue
		}
		s.mu.Lock()
		delete(s.recency, r.path)
		s.mu.Unlock()
		total -= r.size
		removed++
	}
	s.evictions.Add(int64(removed))
	return removed, nil
}
