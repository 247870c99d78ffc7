package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dmcc/internal/artifact"
	"dmcc/internal/sweep"
)

// Every daemon serves its artifact store: a store whose peer is the
// daemon's own HTTP surface writes payloads through, and a second one
// reads them back and lists them.
func TestArtifactEndpointsOverHandler(t *testing.T) {
	s, ts, store := newTestServer(t)
	writer, reader := mustOpenPeered(t, ts.URL), mustOpenPeered(t, ts.URL)

	key := artifact.KeyOf("kind=test", "payload=endpoint")
	if err := writer.Put(key, []byte("over-the-wire")); err != nil {
		t.Fatal(err)
	}
	if got, ok := store.Get(key); !ok || string(got) != "over-the-wire" {
		t.Fatalf("PUT /artifact did not land in the backing store: %q, %v", got, ok)
	}
	if got, ok := reader.Get(key); !ok || string(got) != "over-the-wire" {
		t.Fatalf("GET /artifact = %q, %v", got, ok)
	}
	if st := reader.Stats(); st.RemoteHits != 1 || st.RemoteErrors != 0 {
		t.Fatalf("reader stats = %+v, want one hit over the wire", st)
	}
	keys, _, err := mustOpenPeered(t, ts.URL).Prewarm()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != key {
		t.Fatalf("GET /keys = %v, want [%s]", keys, key)
	}
	ms := s.Metrics()
	if ep := ms.Endpoints["artifact"]; ep.Requests < 2 {
		t.Fatalf("artifact endpoint snapshot = %+v", ep)
	}
}

// The fleet property end to end: daemon A cold-compiles, daemon B —
// whose store has A's /artifact store as its peer — prewarms at startup
// and serves GET /cost for A's plan id without ever compiling. The
// fleet's total compile count stays 1.
func TestPrewarmRoundtripAcrossDaemons(t *testing.T) {
	_, tsA, _ := newTestServer(t)
	cr := compileProg(t, tsA, "jacobi", 16, 4)
	crSor := compileProg(t, tsA, "sor", 16, 4)

	storeB := mustOpenPeered(t, tsA.URL)
	srvB, err := New(Config{Store: storeB, Warnf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	keys, pulled, err := storeB.Prewarm()
	if err != nil {
		t.Fatal(err)
	}
	if pulled != 2 {
		t.Fatalf("prewarm pulled %d artifacts, want 2", pulled)
	}
	if plans := srvB.PrewarmPlans(keys); plans != 2 {
		t.Fatalf("prewarmed %d plans, want 2", plans)
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()

	// B prices A's plans by id without compiling.
	for _, id := range []string{cr.ID, crSor.ID} {
		resp, raw := getBody(t, fmt.Sprintf("%s/cost?key=%s&m=%d", tsB.URL, id, 32))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /cost on B for %s: %s: %s", id[:12], resp.Status, raw)
		}
	}
	// A /cost answer from B matches A's for the same plan and size.
	respA, rawA := getBody(t, fmt.Sprintf("%s/cost?key=%s&m=%d", tsA.URL, cr.ID, 48))
	respB, rawB := getBody(t, fmt.Sprintf("%s/cost?key=%s&m=%d", tsB.URL, cr.ID, 48))
	if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
		t.Fatalf("cost statuses %s / %s", respA.Status, respB.Status)
	}
	var repA, repB CostReport
	if err := json.Unmarshal(rawA, &repA); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawB, &repB); err != nil {
		t.Fatal(err)
	}
	if repA.Total != repB.Total {
		t.Fatalf("B prices %g, A prices %g", repB.Total, repA.Total)
	}

	// A repeat compile on B is a warm hit, never a second DP run.
	resp, raw := postJSON(t, tsB.URL+"/compile", CompileRequest{Prog: "jacobi", M: 16, N: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /compile on B: %s: %s", resp.Status, raw)
	}
	var crB CompileResponse
	if err := json.Unmarshal(raw, &crB); err != nil {
		t.Fatal(err)
	}
	if !crB.Cached || crB.ID != cr.ID {
		t.Fatalf("B compile cached=%v id=%s, want cached=true id=%s", crB.Cached, crB.ID, cr.ID)
	}

	// The per-tier counters surface over /metrics.
	resp, raw = getBody(t, tsB.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics on B: %s", resp.Status)
	}
	var ms MetricsSnapshot
	if err := json.Unmarshal(raw, &ms); err != nil {
		t.Fatal(err)
	}
	if ms.Server.Compiles != 0 {
		t.Fatalf("daemon B compiled %d times; the fleet total must stay 1", ms.Server.Compiles)
	}
	if ms.Server.PrewarmedPlans != 2 {
		t.Fatalf("prewarmed_plans=%d, want 2", ms.Server.PrewarmedPlans)
	}
	if ms.Store.PrewarmedKeys != 2 {
		t.Fatalf("prewarmed_keys=%d, want 2", ms.Store.PrewarmedKeys)
	}
	if ms.Store.RemoteErrors != 0 {
		t.Fatalf("remote_errors=%d, want 0", ms.Store.RemoteErrors)
	}
	if ms.Store.LocalHits+ms.Store.RemoteHits != ms.Store.Hits {
		t.Fatalf("tier hits %d+%d do not sum to %d", ms.Store.LocalHits, ms.Store.RemoteHits, ms.Store.Hits)
	}
}

// parsePlanKey accepts exactly the keys the daemon itself mints — a
// real key round-trips, and near-miss mutations are rejected.
func TestParsePlanKeyRoundtrip(t *testing.T) {
	req := CompileRequest{Prog: "jacobi", M: 16, N: 4}
	s, err := New(Config{Store: mustOpen(t)})
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.compiler(&req)
	if err != nil {
		t.Fatal(err)
	}
	key := sweep.PlanKey(c, req.M)

	got, ok := parsePlanKey(key)
	if !ok {
		t.Fatalf("daemon-minted key does not parse: %s", key)
	}
	if got.Prog != "jacobi" || got.M != 16 || got.N != 4 {
		t.Fatalf("parsed %+v from %s", got, key)
	}
	// The parse must re-derive the byte-identical key.
	c2, err := s.compiler(&got)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.PlanKey(c2, got.M) != key {
		t.Fatalf("re-derived key differs:\n%s\n%s", sweep.PlanKey(c2, got.M), key)
	}

	for _, bad := range []string{
		"kind=memo;" + key[len("kind=planfit;"):],
		"kind=planfit;prog=0000;bind=m=16;n=4",
		"",
	} {
		if _, ok := parsePlanKey(bad); ok {
			t.Fatalf("parsePlanKey accepted %q", bad)
		}
	}
	// Keys with unknown trailing fields, and the keys an earlier daemon
	// minted for the oracle engine or the greedy aligner, parse lexically
	// but fail the byte-for-byte round trip — the guard PrewarmPlans
	// relies on.
	oracle := strings.Replace(key, ";exactnest=false;exactchange=false;nocache=false", ";exactnest=true;exactchange=true;nocache=true", 1)
	greedy := strings.Replace(key, ";greedy=false", ";greedy=true", 1)
	if oracle == key || greedy == key {
		t.Fatalf("key lost an engine fragment: %s", key)
	}
	for _, mutated := range []string{key + ";extra=1", oracle, greedy} {
		if got, ok := parsePlanKey(mutated); ok {
			c3, err := s.compiler(&got)
			if err != nil {
				t.Fatal(err)
			}
			if sweep.PlanKey(c3, got.M) == mutated {
				t.Fatalf("mutated key survives the round-trip guard: %s", mutated)
			}
		}
	}
}

func mustOpen(t *testing.T) *artifact.Store { return mustOpenPeered(t, "") }

// mustOpenPeered opens a store over a fresh directory with peer as its
// peer ("" for none), warning into the test log.
func mustOpenPeered(t *testing.T, peer string) *artifact.Store {
	t.Helper()
	st, err := artifact.OpenWithPeer(t.TempDir(), peer)
	if err != nil {
		t.Fatal(err)
	}
	st.Warnf = t.Logf
	return st
}
