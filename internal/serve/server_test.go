package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"dmcc/internal/artifact"
	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
	"dmcc/internal/sweep"
)

// newTestServer builds a Server over a temp store and an httptest
// frontend.
func newTestServer(t *testing.T) (*Server, *httptest.Server, *artifact.Store) {
	t.Helper()
	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.Warnf = t.Logf
	s, err := New(Config{Store: store, Warnf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, store
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func compileProg(t *testing.T, ts *httptest.Server, prog string, m, n int) CompileResponse {
	t.Helper()
	resp, raw := postJSON(t, ts.URL+"/compile", CompileRequest{Prog: prog, M: m, N: n})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /compile %s: %s: %s", prog, resp.Status, raw)
	}
	var cr CompileResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatalf("decoding compile response: %v", err)
	}
	return cr
}

// A frozen plan served over the HTTP boundary must thaw into an
// evaluator that prices every size exactly like the in-process one —
// serve -> fetch -> Thaw -> EvalAt parity, across the kernel set.
func TestPlanRoundtripParity(t *testing.T) {
	const m, n = 16, 4
	progs := map[string]func() *ir.Program{
		"jacobi": ir.Jacobi, "sor": ir.SOR, "gauss": ir.Gauss,
	}
	_, ts, _ := newTestServer(t)
	for name, mk := range progs {
		cr := compileProg(t, ts, name, m, n)
		if cr.Cached {
			t.Fatalf("%s: first compile reported cached", name)
		}

		resp, raw := getBody(t, ts.URL+"/plan/"+cr.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: GET /plan: %s: %s", name, resp.Status, raw)
		}
		var fp core.FrozenPlan
		if err := json.Unmarshal(raw, &fp); err != nil {
			t.Fatalf("%s: decoding served plan: %v", name, err)
		}

		thawC := core.NewCompiler(mk(), cost.Unit(), map[string]int{"m": m}, n)
		thawed, err := core.Thaw(thawC, &fp)
		if err != nil {
			t.Fatalf("%s: thawing served plan: %v", name, err)
		}
		refC := core.NewCompiler(mk(), cost.Unit(), map[string]int{"m": m}, n)
		refC.Jobs = 1
		ref, _, _, err := sweep.PlanFor(refC, m, sweep.Options{})
		if err != nil {
			t.Fatalf("%s: in-process evaluator: %v", name, err)
		}
		for _, at := range []int{m, 24, 32, 64} {
			want, err := ref.EvalAt(at)
			if err != nil {
				t.Fatalf("%s m=%d: ref EvalAt: %v", name, at, err)
			}
			got, err := thawed.EvalAt(at)
			if err != nil {
				t.Fatalf("%s m=%d: thawed EvalAt: %v", name, at, err)
			}
			if got != want {
				t.Fatalf("%s m=%d: thawed %+v != in-process %+v", name, at, got, want)
			}
			// And the daemon's own /cost endpoint agrees.
			resp, raw := getBody(t, fmt.Sprintf("%s/cost?key=%s&m=%d", ts.URL, cr.ID, at))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s m=%d: GET /cost: %s: %s", name, at, resp.Status, raw)
			}
			var rep CostReport
			if err := json.Unmarshal(raw, &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Total != want.Total() {
				t.Fatalf("%s m=%d: /cost total %g != %g", name, at, rep.Total, want.Total())
			}
		}
	}
}

// The second compile of a configuration is a warm hit, and warm /cost
// traffic runs with zero store misses and zero cold compiles — the
// counter-verified "never re-run the DP" property.
func TestWarmPathCounters(t *testing.T) {
	s, ts, _ := newTestServer(t)
	first := compileProg(t, ts, "jacobi", 16, 4)
	second := compileProg(t, ts, "jacobi", 16, 4)
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags = %v, %v; want false, true", first.Cached, second.Cached)
	}
	ms := s.Metrics()
	if ms.Server.Compiles != 1 || ms.Server.CompileHits != 1 {
		t.Fatalf("compiles=%d hits=%d, want 1, 1", ms.Server.Compiles, ms.Server.CompileHits)
	}

	missesBefore := ms.Store.Misses
	evalsBefore := ms.Server.CostEvals
	for i := 0; i < 50; i++ {
		resp, raw := getBody(t, fmt.Sprintf("%s/cost?key=%s&m=%d", ts.URL, first.ID, 16+8*i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /cost #%d: %s: %s", i, resp.Status, raw)
		}
	}
	ms = s.Metrics()
	if ms.Store.Misses != missesBefore {
		t.Fatalf("warm /cost traffic caused %d store misses", ms.Store.Misses-missesBefore)
	}
	if ms.Server.Compiles != 1 {
		t.Fatalf("warm /cost traffic re-compiled: compiles=%d", ms.Server.Compiles)
	}
	if ms.Server.CostEvals != evalsBefore+50 {
		t.Fatalf("cost_evals=%d, want %d", ms.Server.CostEvals, evalsBefore+50)
	}
	if ep := ms.Endpoints["cost"]; ep.Requests < 50 || ep.P99us <= 0 {
		t.Fatalf("cost endpoint snapshot = %+v", ep)
	}
}

// stripSchema / setSchema rewrite the schema field of a frozen-plan
// JSON document, emulating payloads written by older builds.
func stripSchema(t testing.TB, planRaw []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(planRaw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "schema")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func setSchema(t testing.TB, planRaw []byte, v int) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(planRaw, &m); err != nil {
		t.Fatal(err)
	}
	m["schema"] = json.RawMessage(fmt.Sprintf("%d", v))
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Malformed and stale frozen plans crossing the HTTP boundary must be
// clean 4xx responses — never panics, never 5xx.
func TestMalformedPlanRejected(t *testing.T) {
	_, ts, _ := newTestServer(t)
	cr := compileProg(t, ts, "jacobi", 16, 4)

	// Fetch the real plan so the mutations below are realistic.
	_, planRaw := getBody(t, ts.URL+"/plan/"+cr.ID)

	for _, tc := range malformedInstalls(t, planRaw) {
		resp, err := http.Post(ts.URL+"/plan", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, raw)
		}
		var e map[string]string
		if err := json.Unmarshal(raw, &e); err != nil || e["error"] == "" {
			t.Fatalf("%s: error body %q not a clean JSON error", tc.name, raw)
		}
		if !strings.Contains(e["error"], tc.says) {
			t.Fatalf("%s: error %q does not say %q", tc.name, e["error"], tc.says)
		}
	}

	// A well-formed plan installs fine and prices identically.
	resp, raw := postJSON(t, ts.URL+"/plan", json.RawMessage(
		`{"prog":"jacobi","m":16,"n":4,"plan":`+string(planRaw)+`}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid install: %s: %s", resp.Status, raw)
	}
	var ir2 CompileResponse
	if err := json.Unmarshal(raw, &ir2); err != nil {
		t.Fatal(err)
	}
	if ir2.ID != cr.ID || ir2.Cost.Total != cr.Cost.Total {
		t.Fatalf("installed plan id/cost = %s/%g, want %s/%g", ir2.ID, ir2.Cost.Total, cr.ID, cr.Cost.Total)
	}
}

// installCase is a POST /plan body, the status it is answered with and a
// phrase of the error.
type installCase struct {
	name   string
	body   string
	status int
	says   string
}

// malformedInstalls is TestMalformedPlanRejected's table over planRaw,
// the stored plan of jacobi at m = 16, N = 4.
func malformedInstalls(tb testing.TB, planRaw []byte) []installCase {
	return []installCase{
		{"not json at all", `{"prog":"jacobi","m":16,"n":4,"plan":"not-a-plan"}`, http.StatusUnprocessableEntity, "malformed plan"},
		{"wrong baseM", `{"prog":"jacobi","m":32,"n":4,"plan":` + string(planRaw) + `}`, http.StatusUnprocessableEntity, "baseM=16 does not match m=32"},
		// The plan's grids factor 4 processors; it installed under the
		// other count's id and priced that machine wrongly.
		{"frozen for more processors", `{"prog":"jacobi","m":16,"n":2,"plan":` + string(planRaw) + `}`, http.StatusUnprocessableEntity, "stale plan"},
		{"frozen for fewer processors", `{"prog":"jacobi","m":16,"n":8,"plan":` + string(planRaw) + `}`, http.StatusUnprocessableEntity, "stale plan"},
		{"segments do not tile", `{"prog":"jacobi","m":16,"n":4,"plan":{"schema":2,"baseM":16,"segments":[{"start":5,"len":1,"shape":[1,4]}]}}`, http.StatusUnprocessableEntity, "stale plan"},
		// A plan frozen before the symbolic-ChangeCost schema bump (no
		// schema field, or an older number) must be refused outright —
		// serving it would silently revive the numeric boundary pricing.
		{"pre-bump plan (no schema)", `{"prog":"jacobi","m":16,"n":4,"plan":` + string(stripSchema(tb, planRaw)) + `}`, http.StatusUnprocessableEntity, "schema 0"},
		{"pre-bump plan (schema 1)", `{"prog":"jacobi","m":16,"n":4,"plan":` + string(setSchema(tb, planRaw, 1)) + `}`, http.StatusUnprocessableEntity, "schema 1"},
		{"empty plan", `{"prog":"jacobi","m":16,"n":4}`, http.StatusBadRequest, "plan is required"},
		{"unknown program", `{"prog":"nope","m":16,"n":4,"plan":` + string(planRaw) + `}`, http.StatusBadRequest, "unknown program"},
		{"garbage body", `{{{`, http.StatusBadRequest, "bad request body"},
	}
}

// Bad query parameters and unknown plan handles are 4xx, not panics.
func TestCostParamValidation(t *testing.T) {
	_, ts, _ := newTestServer(t)
	cr := compileProg(t, ts, "sor", 16, 4)
	cases := []struct {
		url    string
		status int
	}{
		{"/cost?key=" + cr.ID + "&m=abc", http.StatusBadRequest},
		{"/cost?key=" + cr.ID + "&m=0", http.StatusBadRequest},
		{"/cost?key=" + cr.ID + "&m=9999999999", http.StatusBadRequest},
		{"/cost?m=16", http.StatusBadRequest},
		{"/cost?key=deadbeef&m=16", http.StatusNotFound},
		{"/plan/deadbeef", http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, raw := getBody(t, ts.URL+tc.url)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d (%s)", tc.url, resp.StatusCode, tc.status, raw)
		}
	}
	resp, raw := postJSON(t, ts.URL+"/compile", CompileRequest{Prog: "jacobi", M: -1, N: 4})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative m: %s: %s", resp.Status, raw)
	}
}

// A plan evicted from disk is still served: /cost prices it from the
// in-memory evaluator and /plan re-freezes it on demand.
func TestServingSurvivesEviction(t *testing.T) {
	_, ts, store := newTestServer(t)
	cr := compileProg(t, ts, "jacobi", 16, 4)
	if _, err := store.GC(0); err != nil {
		t.Fatal(err)
	}
	resp, raw := getBody(t, fmt.Sprintf("%s/cost?key=%s&m=32", ts.URL, cr.ID))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /cost after eviction: %s: %s", resp.Status, raw)
	}
	resp, raw = getBody(t, ts.URL+"/plan/"+cr.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /plan after eviction: %s: %s", resp.Status, raw)
	}
	var fp core.FrozenPlan
	if err := json.Unmarshal(raw, &fp); err != nil {
		t.Fatalf("re-frozen plan does not decode: %v", err)
	}
	if fp.BaseM != 16 || len(fp.Segments) == 0 {
		t.Fatalf("re-frozen plan = %+v", fp)
	}
}

// The load harness end to end against an in-process daemon: exact
// request counts, zero errors, zero compile misses after warm-up, and
// rows shaped for the baseline gate.
func TestLoadHarness(t *testing.T) {
	_, ts, _ := newTestServer(t)
	cfg := LoadConfig{
		BaseURL: ts.URL, Progs: []string{"jacobi", "sor"},
		M: 16, N: 4, Requests: 200, Concurrency: 4, Seed: 1,
	}
	res, sums, err := Harness(cfg, []string{"hotkey", "uniform"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(sums) != 2 {
		t.Fatalf("rows=%d sums=%d, want 2, 2", len(res.Rows), len(sums))
	}
	for _, sum := range sums {
		if sum.Errors != 0 {
			t.Fatalf("%s: %d errors", sum.Dist, sum.Errors)
		}
		if sum.MissesAfterWarm != 0 {
			t.Fatalf("%s: %d misses after warm-up", sum.Dist, sum.MissesAfterWarm)
		}
		if sum.Requests != cfg.Requests {
			t.Fatalf("%s: %d requests, want %d", sum.Dist, sum.Requests, cfg.Requests)
		}
		if sum.P99 <= 0 || sum.P99 < sum.P50 {
			t.Fatalf("%s: p50=%v p99=%v", sum.Dist, sum.P50, sum.P99)
		}
	}
	for _, row := range res.Rows {
		if row.Metrics["errors"] != 0 || row.Metrics["misses_after_warm"] != 0 {
			t.Fatalf("row %s gateable metrics = %v", row.Variant, row.Metrics)
		}
		if row.Wall["p99_ns"] <= 0 || row.Wall["rps"] <= 0 {
			t.Fatalf("row %s wall columns = %v", row.Variant, row.Wall)
		}
		if len(row.Metrics) != 3 {
			t.Fatalf("row %s carries more than the deterministic metrics: %v", row.Variant, row.Metrics)
		}
	}
	// The emitted JSON parses as its own baseline with zero regressions.
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	base := t.TempDir() + "/BENCH_serve.json"
	if err := os.WriteFile(base, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	regs, _, err := sweep.Compare(base, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("self-comparison regressed: %v", regs)
	}
}

// TestGaussCostColdMicroseconds: with the symbolic ChangeCost fit, a
// gauss plan's two-segment boundary is priced by polynomial evaluation,
// so a COLD /cost query — a size never priced before, no memo — must
// come back in well under a millisecond. This is the acceptance check
// for "no numeric RedistLoads on the query path": the numeric
// calculator alone costs milliseconds per boundary at these sizes.
func TestGaussCostColdMicroseconds(t *testing.T) {
	_, ts, _ := newTestServer(t)
	cr := compileProg(t, ts, "gauss", 256, 16)
	if cr.FitErr != "" {
		t.Fatalf("gauss fit declined: %s", cr.FitErr)
	}
	// Every m below is distinct and previously unseen, so each EvalNs is
	// a cold evaluation; take the minimum to shed scheduler noise.
	best := int64(1 << 62)
	for _, m := range []int{257, 311, 512, 1000, 4096, 65536} {
		resp, raw := getBody(t, fmt.Sprintf("%s/cost?key=%s&m=%d", ts.URL, cr.ID, m))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /cost m=%d: %s: %s", m, resp.Status, raw)
		}
		var rep CostReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Total <= 0 {
			t.Fatalf("m=%d: nonpositive total %g", m, rep.Total)
		}
		if rep.EvalNs < best {
			best = rep.EvalNs
		}
	}
	if best >= int64(time.Millisecond) {
		t.Fatalf("cold gauss /cost evaluation took %dns at best; want < 1ms", best)
	}
}

// TestCostMemoHoldsOnlyNumericSizes: the per-plan memo is bounded by
// what is expensive to price, not by how many sizes were asked. Ten
// thousand never-repeated sizes against a fitted plan leave its memo
// empty; the same plan with its fits stripped prices numerically, and a
// repeat is answered from the memo with the original EvalNs.
func TestCostMemoHoldsOnlyNumericSizes(t *testing.T) {
	s, ts, _ := newTestServer(t)
	const baseM, n = 64, 8
	cr := compileProg(t, ts, "jacobi", baseM, n)
	if cr.FitErr != "" {
		t.Fatalf("jacobi fit declined: %s", cr.FitErr)
	}
	h := s.Handler()
	costAt := func(m int) CostReport {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/cost?key=%s&m=%d", cr.ID, m), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /cost m=%d: %d: %s", m, rec.Code, rec.Body)
		}
		var rep CostReport
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for m := baseM; m < baseM+10000; m++ {
		costAt(m)
	}
	if held := len(s.lookup(cr.ID).memo); held != 0 {
		t.Fatalf("fitted plan holds %d memo entries after 10000 distinct sizes, want 0", held)
	}

	_, planRaw := getBody(t, ts.URL+"/plan/"+cr.ID)
	var fp core.FrozenPlan
	if err := json.Unmarshal(planRaw, &fp); err != nil {
		t.Fatal(err)
	}
	fp.ExecFits, fp.LCFits, fp.ChgFits, fp.FitMinM = nil, nil, nil, 0
	unfitted, err := json.Marshal(fp)
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postJSON(t, ts.URL+"/plan", InstallRequest{CompileRequest{Prog: "jacobi", M: baseM, N: n}, unfitted})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /plan without fits: %s: %s", resp.Status, raw)
	}
	first, again := costAt(100), costAt(100)
	if first != again || first.EvalNs <= 0 {
		t.Fatalf("repeat of a numeric size not served from the memo: first %+v, again %+v", first, again)
	}
	// The install priced baseM; the two requests added one size.
	if held := len(s.lookup(cr.ID).memo); held != 2 {
		t.Fatalf("unfitted plan holds %d memo entries, want 2", held)
	}
}

// strideSource reads A at a non-unit stride, a subscript shape the
// closed forms decline.
const strideSource = `PROGRAM stride
PARAM m
REAL A(m), B(m)
DO 2 i = 1, 4
1   B(i) = A(2*i) + 1.0
2 CONTINUE
END
`

// TestMetricsEngineCounters: the daemon's compiles run entirely on the
// analytic counting engine for the builtin programs — the /metrics
// document proves it, and an exact fallback there is a counting-engine
// regression — while a program the closed forms decline is priced by the
// reference enumeration and counted as one.
func TestMetricsEngineCounters(t *testing.T) {
	s, ts, _ := newTestServer(t)
	compileProg(t, ts, "gauss", 64, 16)
	compileProg(t, ts, "jacobi", 16, 4)
	eng := s.Metrics().Server.Engines
	if eng["analytic_hits"] == 0 {
		t.Fatalf("no analytic hits recorded: %v", eng)
	}
	if eng["exact_fallbacks"] != 0 {
		t.Fatalf("builtin compiles fell back: %v", eng)
	}
	resp, raw := postJSON(t, ts.URL+"/compile", CompileRequest{Source: strideSource, M: 16, N: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /compile stride: %s: %s", resp.Status, raw)
	}
	if eng = s.Metrics().Server.Engines; eng["exact_fallbacks"] == 0 {
		t.Fatalf("declined program recorded no exact fallback: %v", eng)
	}
	resp, raw = getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	var ms MetricsSnapshot
	if err := json.Unmarshal(raw, &ms); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ms.Server.Engines, eng) {
		t.Fatalf("served engines %v != snapshot %v", ms.Server.Engines, eng)
	}
}

// outOfExtentSource reads B five elements past its extent (the ROADMAP's
// repro; before the range check its pricing panicked inside the owner
// computation).
const outOfExtentSource = `PROGRAM oob
PARAM m
REAL A(m), B(m)
DO 2 i = 1, m
1   A(i) = B(i+5)
2 CONTINUE
END
`

// paramIndexSource indexes its inner loop by the size parameter m: it
// used to validate, then panic the compile (a 500, compile_panics 1).
const paramIndexSource = `PROGRAM clash
PARAM m
REAL A(m), B(m)
DO 6 i = 1, 2
DO 4 m = 1, 2
3 A(i+m) = B(i)
4 CONTINUE
5 B(i+m) = A(i)
6 CONTINUE
END
`

// TestCompilePanicDoesNotKillTheDaemon: a compile that panics is answered
// 500 with the panic value, counted, and the next request is served. The
// panic is raised inside the store's flight — on the flight goroutine,
// beyond net/http's per-request recover.
func TestCompilePanicDoesNotKillTheDaemon(t *testing.T) {
	s, ts, store := newTestServer(t)
	armed := true
	t.Cleanup(func() { planForKey = sweep.PlanForKey })
	planForKey = func(c *core.Compiler, key string, baseM int, opt sweep.Options) (*core.PlanEvaluator, string, bool, error) {
		if armed {
			opt.Cache.GetOrCompute(key, func() ([]byte, error) { panic("pricing bug") })
		}
		return sweep.PlanForKey(c, key, baseM, opt)
	}
	for attempt := 1; attempt <= 2; attempt++ {
		resp, raw := postJSON(t, ts.URL+"/compile", CompileRequest{Prog: "jacobi", M: 16, N: 4})
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(raw), "pricing bug") {
			t.Fatalf("attempt %d: POST /compile of a panicking compile: %s: %s", attempt, resp.Status, raw)
		}
		if got := s.Metrics().Server.CompilePanics; got != int64(attempt) {
			t.Fatalf("attempt %d: compile_panics = %d", attempt, got)
		}
	}
	armed = false
	compileProg(t, ts, "jacobi", 16, 4)
	if store.InFlight() != 0 {
		t.Errorf("%d flights left open by the failed compiles", store.InFlight())
	}
}

// TestBadInputIs400: what a request gets wrong is answered 400 with the
// reason, counts as no panic and no server error, and the daemon serves
// the next request. A subscript that leaves its extent names array,
// subscript, line and range; "engine" and "greedy" are no longer fields
// of the request (the daemon serves the production engine, and alignment
// picks its algorithm from the graph).
func TestBadInputIs400(t *testing.T) {
	s, ts, _ := newTestServer(t)
	for _, c := range badCompiles(t) {
		resp, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /compile %s: %s: %s", c.body, resp.Status, raw)
		}
		for _, w := range c.want {
			if !strings.Contains(string(raw), w) {
				t.Errorf("POST /compile %s: reply %s does not mention %s", c.body, raw, w)
			}
		}
	}
	compileProg(t, ts, "jacobi", 16, 4)
	ms := s.Metrics()
	if ms.Server.CompilePanics != 0 || ms.Endpoints["compile"].ServerErrors != 0 {
		t.Errorf("compile_panics = %d, server_errors = %d after input errors", ms.Server.CompilePanics, ms.Endpoints["compile"].ServerErrors)
	}
}

// badCompiles is TestBadInputIs400's table: POST /compile bodies and
// phrases their 400 says.
func badCompiles(tb testing.TB) []struct {
	body string
	want []string
} {
	tb.Helper()
	oob, err := json.Marshal(CompileRequest{Source: outOfExtentSource, M: 8, N: 4})
	if err != nil {
		tb.Fatal(err)
	}
	clash, err := json.Marshal(CompileRequest{Source: paramIndexSource, M: 8, N: 4})
	if err != nil {
		tb.Fatal(err)
	}
	return []struct {
		body string
		want []string
	}{
		{string(oob), []string{"B(i+5)", "subscript i+5", "line 1", "[6, 13]", "[1, 8]"}},
		{string(clash), []string{"L1 loop m", "size parameter m"}},
		{`{"prog":"jacobi","m":16,"n":4,"engine":"prechange"}`, []string{`unknown field \"engine\"`}},
		{`{"prog":"jacobi","m":16,"n":4,"greedy":true}`, []string{`unknown field \"greedy\"`}},
	}
}

// constantExtentSource is in range at every m <= 40 and out of it past:
// PlanFor's raised fit floors sample such sizes, which panicked inside
// the owner computation before the evaluator checked each size it prices.
const constantExtentSource = `PROGRAM b40
PARAM m
REAL A(m), B(40)
DO 2 i = 1, m
1   A(i) = B(i) + 1.0
2 CONTINUE
END
`

// TestFittedPriceOutsideRangeIsRefused: a plan fitted from m = 16 whose
// A(i+m) outgrows A(m+100) past m = 100 answers a fitted size past it with
// a 422 naming the reference and the interval, not a price; a size in
// range is a 200.
func TestFittedPriceOutsideRangeIsRefused(t *testing.T) {
	_, ts, _ := newTestServer(t)
	src := "PROGRAM pastextent\nPARAM m\nREAL A(m+100), B(m+100)\nDO 9 i = 1, m\n7   B(i) = A(i+m)\n9 CONTINUE\nEND\n"
	resp, raw := postJSON(t, ts.URL+"/compile", CompileRequest{Source: src, M: 16, N: 4})
	var cr CompileResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &cr) != nil || cr.FitErr != "" {
		t.Fatalf("POST /compile: %s: %s", resp.Status, raw)
	}
	if resp, raw := getBody(t, fmt.Sprintf("%s/cost?key=%s&m=200", ts.URL, cr.ID)); resp.StatusCode != http.StatusUnprocessableEntity ||
		!strings.Contains(string(raw), "A(i+m) ranges over [201, 400]") {
		t.Errorf("GET /cost m=200: %s: %s", resp.Status, raw)
	}
	if resp, raw := getBody(t, fmt.Sprintf("%s/cost?key=%s&m=100", ts.URL, cr.ID)); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /cost m=100: %s: %s", resp.Status, raw)
	}
}

// TestSizeOutOfRangeIsDeclinedNotAPanic: a program in range at its base
// size compiles (200) with the range error as its fit diagnostic, is
// priced numerically inside its range, and a size past it is a 422 naming
// the subscript — no panic, no server error.
func TestSizeOutOfRangeIsDeclinedNotAPanic(t *testing.T) {
	s, ts, _ := newTestServer(t)
	var id string
	for _, m := range []int{8, 16} {
		resp, raw := postJSON(t, ts.URL+"/compile", CompileRequest{Source: constantExtentSource, M: m, N: 4})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /compile at m=%d: %s: %s", m, resp.Status, raw)
		}
		var cr CompileResponse
		if err := json.Unmarshal(raw, &cr); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(cr.FitErr, "B(i)") {
			t.Errorf("m=%d: fitErr %q does not name B(i)", m, cr.FitErr)
		}
		id = cr.ID
	}
	if resp, raw := getBody(t, fmt.Sprintf("%s/cost?key=%s&m=41", ts.URL, id)); resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(raw), "B(i)") {
		t.Errorf("GET /cost m=41: %s: %s", resp.Status, raw)
	}
	if resp, raw := getBody(t, fmt.Sprintf("%s/cost?key=%s&m=20", ts.URL, id)); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /cost m=20: %s: %s", resp.Status, raw)
	}
	ms := s.Metrics()
	if ms.Server.CompilePanics != 0 || ms.Endpoints["compile"].ServerErrors != 0 || ms.Endpoints["cost"].ServerErrors != 0 {
		t.Errorf("compile_panics = %d, server_errors = %d / %d", ms.Server.CompilePanics,
			ms.Endpoints["compile"].ServerErrors, ms.Endpoints["cost"].ServerErrors)
	}
}

// TestManyArraySourceCompiles: a source past align.ExactMaxNodes (thirty
// two-dimensional arrays, 60 nodes — the exact search of one segment of
// it takes minutes) compiles in under two seconds, every segment aligned
// by the heuristic and counted.
func TestManyArraySourceCompiles(t *testing.T) {
	src, err := os.ReadFile("../../testdata/manyarrays.f")
	if err != nil {
		t.Fatal(err)
	}
	s, ts, _ := newTestServer(t)
	start := time.Now()
	resp, raw := postJSON(t, ts.URL+"/compile", CompileRequest{Source: string(src), M: 16, N: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /compile manyarrays: %s: %s", resp.Status, raw)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("POST /compile manyarrays took %v", d)
	}
	ms := s.Metrics()
	if ms.Server.Engines["greedy_alignments"] == 0 || ms.Server.CompilePanics != 0 {
		t.Errorf("greedy_alignments = %d, compile_panics = %d", ms.Server.Engines["greedy_alignments"], ms.Server.CompilePanics)
	}
}

// mutatePlan rewrites the first occurrence of old in a served plan.
func mutatePlan(t testing.TB, planRaw []byte, old, new string) string {
	t.Helper()
	if !bytes.Contains(planRaw, []byte(old)) {
		t.Fatalf("served plan has no %s to mutate", old)
	}
	return strings.Replace(string(planRaw), old, new, 1)
}

// reorderPlan re-marshals a plan through a map: same values, fields in
// alphabetical order, so the fits take the reflective decode.
func reorderPlan(t testing.TB, plan string) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(plan), &m); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestPoisonedFitsRejected: a fetched plan whose fits were edited into
// something Eval would divide by zero or index out of range on, or whose
// fitMinM disagrees with its fits' floor, is a 422 — through the
// canonical reader and through the reflective one — and the plan
// installed before keeps answering /cost. (Step 0 and Period 400 panicked
// the handler before fits were validated, the second one after replacing
// the good evaluator; a plan without its fitMinM installed and then
// refused /cost below the fits' floor.)
func TestPoisonedFitsRejected(t *testing.T) {
	_, ts, _ := newTestServer(t)
	const m, n = 32, 16
	cr := compileProg(t, ts, "gauss", m, n) // two segments, period 4: carries a change fit
	_, planRaw := getBody(t, ts.URL+"/plan/"+cr.ID)
	costURL := fmt.Sprintf("%s/cost?key=%s&m=48", ts.URL, cr.ID)
	_, wantCost := getBody(t, costURL)

	for _, tc := range poisonedPlans(t, planRaw) {
		for _, plan := range []string{tc.plan, reorderPlan(t, tc.plan)} {
			body := fmt.Sprintf(`{"prog":"gauss","m":%d,"n":%d,"plan":%s}`, m, n, plan)
			resp, err := http.Post(ts.URL+"/plan", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s: %v (daemon down?)", tc.name, err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Errorf("%s: status %d, want 422 (%s)", tc.name, resp.StatusCode, raw)
			}
			if resp, got := getBody(t, costURL); resp.StatusCode != http.StatusOK || !sameCost(t, got, wantCost) {
				t.Fatalf("%s: /cost after the rejected install: %s: %s, want %s", tc.name, resp.Status, got, wantCost)
			}
		}
	}
	// The untouched plan still installs, reordered or not.
	for _, plan := range []string{string(planRaw), reorderPlan(t, string(planRaw))} {
		body := fmt.Sprintf(`{"prog":"gauss","m":%d,"n":%d,"plan":%s}`, m, n, plan)
		resp, err := http.Post(ts.URL+"/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("valid install: %s", resp.Status)
		}
	}
}

// poisonedPlans is TestPoisonedFitsRejected's table over planRaw, the
// stored plan of gauss at m = 32, N = 16.
func poisonedPlans(t testing.TB, planRaw []byte) []struct{ name, plan string } {
	t.Helper()
	firstFit := regexp.MustCompile(`"TotalFlops":\{.*?\]\}\]\}`).Find(planRaw)
	firstDiffs := regexp.MustCompile(`"Diffs":\[[^\]]+\]`).Find(planRaw)
	den := regexp.MustCompile(`"den":[0-9]+`).Find(planRaw)
	onePiece := regexp.MustCompile(`\{"Period":1,"MinM":32,"Pieces":\[\{"M0":32,"Step":1,"Diffs":\[[^\]]+\]\}\]\}`).Find(planRaw)
	if firstFit == nil || firstDiffs == nil || den == nil || onePiece == nil {
		t.Fatalf("served plan lacks the fields to mutate: %s", planRaw)
	}
	piece := string(onePiece[bytes.Index(onePiece, []byte(`{"M0"`)) : len(onePiece)-2])
	return []struct{ name, plan string }{
		{"step 0", mutatePlan(t, planRaw, `"Step":4`, `"Step":0`)},
		{"period 400", mutatePlan(t, planRaw, `"Period":4`, `"Period":400`)},
		{"period 0", mutatePlan(t, planRaw, `"Period":4`, `"Period":0`)},
		{"anchor off its residue", mutatePlan(t, planRaw, `"M0":32`, `"M0":33`)},
		{"anchor a period late", mutatePlan(t, planRaw, `"M0":32`, `"M0":36`)},
		{"negative minM", mutatePlan(t, planRaw, `"MinM":32`, `"MinM":-32`)},
		{"no differences", mutatePlan(t, planRaw, string(firstDiffs), `"Diffs":[]`)},
		{"null differences", mutatePlan(t, planRaw, string(firstDiffs), `"Diffs":null`)},
		{"missing polynomial", mutatePlan(t, planRaw, string(firstFit), `"TotalFlops":null`)},
		{"missing nest fit", mutatePlan(t, planRaw, `"execFits":[{`, `"execFits":[null,{`)},
		{"den 0", mutatePlan(t, planRaw, string(den), `"den":0`)},
		{"change fit without words", mutatePlan(t, planRaw, `"words":{`, `"words":null,"was":{`)},
		// These installed (200), then answered /cost below the fits' floor
		// with a 422.
		{"fitMinM dropped", mutatePlan(t, planRaw, `,"fitMinM":32`, ``)},
		{"fitMinM below the fits' floor", mutatePlan(t, planRaw, `,"fitMinM":32`, `,"fitMinM":16`)},
		// A series whose pieces are one polynomial is one piece, Period 1
		// and Step 1 from MinM; these break that form.
		{"one piece stepping by 4", mutatePlan(t, planRaw, string(onePiece), strings.Replace(string(onePiece), `"Step":1,`, `"Step":4,`, 1))},
		{"one piece off MinM", mutatePlan(t, planRaw, string(onePiece), strings.Replace(string(onePiece), `"M0":32,`, `"M0":33,`, 1))},
		{"period 1 with 2 pieces", mutatePlan(t, planRaw, string(onePiece), `{"Period":1,"MinM":32,"Pieces":[`+piece+`,`+piece+`]}`)},
	}
}

// sameCost compares two /cost replies ignoring the evaluation wall time.
func sameCost(t *testing.T, a, b []byte) bool {
	t.Helper()
	var ra, rb CostReport
	if json.Unmarshal(a, &ra) != nil || json.Unmarshal(b, &rb) != nil {
		return false
	}
	ra.EvalNs, rb.EvalNs = 0, 0
	return ra == rb
}

// TestEvictedPlanServesTheSameBytes: GET /plan/{id} answers with the
// stored payload's bytes whether or not the store still holds it — the
// fit diagnostic included, which the re-freeze used to drop (and the
// reply was indented where the payload is compact).
func TestEvictedPlanServesTheSameBytes(t *testing.T) {
	_, ts, store := newTestServer(t)
	cr := compileProg(t, ts, "sor", 6, 8) // too small to fit: the plan carries a fitErr
	if cr.FitErr == "" {
		t.Fatal("sor m=6 N=8 was fitted; the test needs a plan with a fit diagnostic")
	}
	_, before := getBody(t, ts.URL+"/plan/"+cr.ID)
	if _, err := store.GC(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get(cr.Key); ok {
		t.Fatal("GC(0) left the payload in the store")
	}
	resp, after := getBody(t, ts.URL+"/plan/"+cr.ID)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(before, after) {
		t.Fatalf("GET /plan after eviction: %s\n before: %s\n  after: %s", resp.Status, before, after)
	}
}

// TestInstalledPlanServesItsBytes: GET /plan/{id} of a plan installed by
// POST /plan, which never reaches the store, re-freezes the thawed plan
// into the bytes that were posted. (The re-freeze wrote 0 for the plan's
// base-size costs, which only a compiled evaluator carried.)
func TestInstalledPlanServesItsBytes(t *testing.T) {
	_, from, _ := newTestServer(t)
	_, to, _ := newTestServer(t)
	for _, prog := range []string{"gauss", "jacobi"} {
		cr := compileProg(t, from, prog, 32, 16)
		_, plan := getBody(t, from.URL+"/plan/"+cr.ID)
		resp, raw := postJSON(t, to.URL+"/plan", InstallRequest{CompileRequest{Prog: prog, M: 32, N: 16}, plan})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: POST /plan: %s: %s", prog, resp.Status, raw)
		}
		resp, served := getBody(t, to.URL+"/plan/"+cr.ID)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(served, plan) {
			t.Fatalf("%s: GET /plan of the installed plan: %s\n posted: %s\n served: %s", prog, resp.Status, plan, served)
		}
	}
}

// TestFittedPriceOverflowIsRefused: a fitted price whose count is past
// int64 is a 422, not a wrapped negative total; a count no price reads
// (total flops) wrapping refuses nothing. The program is matmul with
// statement 3 reading nine factors: its busiest processor's flops are
// 9m³/N, past int64 at m = MaxM on one processor, and its total flops 9m³
// past it on any number. (At N = 1 the reply was a 200 with total
// -8070450532247929000.)
func TestFittedPriceOverflowIsRefused(t *testing.T) {
	matmul, err := os.ReadFile("../../testdata/matmul.f")
	if err != nil {
		t.Fatal(err)
	}
	const stmt = "A(i,j) + B(i,k) * C(k,j)"
	if !bytes.Contains(matmul, []byte(stmt)) {
		t.Fatalf("testdata/matmul.f has no %s", stmt)
	}
	overflowSource := strings.Replace(string(matmul), stmt, "A(i,j) + B(i,k)*C(k,j)*B(i,k)*C(k,j)*B(i,k)*C(k,j)*B(i,k)*C(k,j)*B(i,k)", 1)
	_, ts, _ := newTestServer(t)
	for _, tc := range []struct {
		n      int
		status int
		total  float64
	}{
		{1, http.StatusUnprocessableEntity, 0},
		{4, http.StatusOK, 9 << 58},
	} {
		resp, raw := postJSON(t, ts.URL+"/compile", CompileRequest{Source: overflowSource, M: 16, N: tc.n})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("N=%d: POST /compile: %s: %s", tc.n, resp.Status, raw)
		}
		var cr CompileResponse
		if err := json.Unmarshal(raw, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.FitErr != "" || len(cr.Formulas) != 1 || !strings.Contains(cr.Formulas[0], "maxflops=") {
			t.Fatalf("N=%d: the plan is not fitted: %s", tc.n, raw)
		}
		resp, raw = getBody(t, fmt.Sprintf("%s/cost?key=%s&m=%d", ts.URL, cr.ID, MaxM))
		if resp.StatusCode != tc.status {
			t.Fatalf("N=%d: GET /cost at m=%d: %s: %s, want status %d", tc.n, MaxM, resp.Status, raw, tc.status)
		}
		if tc.status != http.StatusOK {
			if !strings.Contains(string(raw), "overflows int64") {
				t.Errorf("N=%d: the 422 does not say why: %s", tc.n, raw)
			}
			continue
		}
		var rep CostReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Total < tc.total || rep.Exec < tc.total {
			t.Errorf("N=%d: total %g, exec %g; want at least the flops %g", tc.n, rep.Total, rep.Exec, tc.total)
		}
	}
}

var trailingBodies = []string{
	`{"prog":"jacobi","m":8,"n":4} junk`,
	`{"prog":"jacobi","m":8,"n":4}}`,
	`{"prog":"jacobi","m":8,"n":4}{"prog":"sor","m":8,"n":4}`,
}

// Bytes after the request's JSON value are a malformed request, not
// something to ignore.
func TestTrailingBytesRejected(t *testing.T) {
	_, ts, _ := newTestServer(t)
	for _, body := range trailingBodies {
		for _, route := range []string{"/compile", "/plan"} {
			resp, err := http.Post(ts.URL+route, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s %q: status %d, want 400", route, body, resp.StatusCode)
			}
		}
	}
	resp, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(`{"prog":"jacobi","m":8,"n":4}`+" \n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing whitespace: status %d, want 200", resp.StatusCode)
	}
}

// TestPlanKeyDerivedOnce: a warm POST /compile prints and hashes its
// program once — the key is derived in the handler and handed to the
// store lookup, the plan id and the reply.
func TestPlanKeyDerivedOnce(t *testing.T) {
	_, ts, _ := newTestServer(t)
	compileProg(t, ts, "jacobi", 16, 4)
	before := core.ProgramHashCalls()
	if cr := compileProg(t, ts, "jacobi", 16, 4); !cr.Cached {
		t.Fatal("second compile was not a warm hit")
	}
	if got := core.ProgramHashCalls() - before; got != 1 {
		t.Fatalf("warm POST /compile hashed the program %d times, want 1", got)
	}
}

// writeRouteAllocBudgets is ~1.5x the allocations of each write route
// through the handler at m=256, N=16, measured when a builtin came to be
// its listing parsed once and copied per request: warm POST /compile 322
// (gauss) / 254 (jacobi) / 213 (sor), plan install 296 / 229 / 187. They
// were 438 / 301 / 259 and 413 / 276 / 233 with each builtin built by
// hand in Go on every request, 729 / 762 / 350 and 716 / 750 / 335 with
// the request decoded by encoding/json and each formula term a string of
// its own, 1 384 for the jacobi compile when every polynomial went
// through encoding/json's scanner and ir.Print through fmt, and 24 927
// when the formulas were expanded in big.Rat and the plan decoded by
// reflection. A trip is a per-piece allocation back in the render or
// decode path, not noise.
var writeRouteAllocBudgets = map[string]map[string]float64{
	"/compile": {"gauss": 480, "jacobi": 380, "sor": 320},
	"/plan":    {"gauss": 445, "jacobi": 340, "sor": 280},
}

func TestWriteRouteAllocBudget(t *testing.T) {
	for _, prog := range benchProgs {
		h, _, bodies := warmHandler(t, prog)
		for _, route := range []string{"/compile", "/plan"} {
			got := testing.AllocsPerRun(5, func() {
				if rec := serveDirect(h, "POST", route, bodies[route]); rec.Code != http.StatusOK {
					t.Fatalf("POST %s %s: %d: %s", route, prog, rec.Code, rec.Body)
				}
			})
			t.Logf("POST %s %s: %.0f allocations", route, prog, got)
			if budget := writeRouteAllocBudgets[route][prog]; got > budget {
				t.Errorf("POST %s (%s m=%d N=%d) made %.0f allocations, budget %.0f", route, prog, benchM, benchN, got, budget)
			}
		}
	}
}

// TestInstallRefusesAnotherProcessorCount: a plan fetched from a gauss
// compile at N = 16 and posted back with another n is a 422 that names
// the grid, and the plan live under that n keeps its id and its price.
// It used to install under the other n's id, replacing the live plan: at
// n = 8 it priced 743,712 where an n = 8 compile prices 1,470,304.
func TestInstallRefusesAnotherProcessorCount(t *testing.T) {
	_, ts, _ := newTestServer(t)
	const m = 256
	cr := compileProg(t, ts, "gauss", m, 16)
	_, planRaw := getBody(t, ts.URL+"/plan/"+cr.ID)
	for _, tc := range []struct{ n, total int }{{4, 0}, {8, 1470304}, {32, 0}} {
		live := compileProg(t, ts, "gauss", m, tc.n)
		if tc.total != 0 && live.Cost.Total != float64(tc.total) {
			t.Fatalf("gauss m=%d n=%d compiles to %g, want %d", m, tc.n, live.Cost.Total, tc.total)
		}
		body := fmt.Sprintf(`{"prog":"gauss","m":%d,"n":%d,"plan":%s}`, m, tc.n, planRaw)
		resp, err := http.Post(ts.URL+"/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(raw), "stale plan: core: frozen plan segment (1,") ||
			!strings.Contains(string(raw), fmt.Sprintf("the compiler has %d processors", tc.n)) {
			t.Errorf("n=%d: install of the N=16 plan: %s: %s", tc.n, resp.Status, raw)
		}
		resp, got := getBody(t, fmt.Sprintf("%s/cost?key=%s&m=%d", ts.URL, live.ID, m))
		var rep CostReport
		if resp.StatusCode != http.StatusOK || json.Unmarshal(got, &rep) != nil || rep.Total != live.Cost.Total {
			t.Errorf("n=%d: live plan after the refused install: %s: %s, want total %g", tc.n, resp.Status, got, live.Cost.Total)
		}
	}
}
