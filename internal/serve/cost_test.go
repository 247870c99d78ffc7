package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// costQueries is the query corpus: plain, repeated, escaped and broken
// pairs of the two parameters GET /cost reads.
var costQueries = []string{
	"", "key=abc&m=16", "m=16&key=abc", "key=abc", "m=16", "key=&m=", "key&m",
	"key=a&key=b&m=1&m=2", "&&key=abc&&m=16&", "key=abc;m=16", "key=abc&m=16;x", "x=1;y=2&m=3",
	"key=a%20b&m=1%36", "key=a+b&m=+16", "k%65y=abc&%6d=16", "key=%zz&key=ok&m=%&m=7",
	"key=%41%4a&m=%2B16", "key=abc%&m=16", "%=1&key=x", "key==abc&m==16", "m=16=17",
	"key=caf%C3%A9&m=0x10", "key=\x00&m=\xff", "KEY=abc&M=16", "key=abc&m=-16", "key=abc&m=99999999999999999999",
}

// checkCostQuery holds costQuery to url.ParseQuery's Get on raw.
func checkCostQuery(t *testing.T, raw string) {
	vals, _ := url.ParseQuery(raw)
	if key, m := costQuery(raw); key != vals.Get("key") || m != vals.Get("m") {
		t.Errorf("query %q: costQuery reads key %q, m %q; url.ParseQuery %q, %q", raw, key, m, vals.Get("key"), vals.Get("m"))
	}
}

func TestCostQueryMatchesParseQuery(t *testing.T) {
	for _, raw := range costQueries {
		checkCostQuery(t, raw)
	}
	if n := testing.AllocsPerRun(100, func() { costQuery("key=0123456789abcdef&m=4096") }); n != 0 {
		t.Errorf("a plain query allocates %v times", n)
	}
}

func FuzzCostQuery(f *testing.F) {
	for _, raw := range costQueries {
		f.Add(raw)
	}
	f.Fuzz(checkCostQuery)
}

// encodeJSON is what encoding/json's Encoder writes for v.
func encodeJSON(t *testing.T, v any) string {
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestCostReplyMatchesEncodingJSON: over seeded random reports and the
// edges of encoding/json's float form, the reply's bytes are the
// Encoder's.
func TestCostReplyMatchesEncodingJSON(t *testing.T) {
	edges := []float64{0, math.Copysign(0, -1), -1, 1, -2.5, 1e-7, -1e-7, 1e-6, 9.99e-7, 1e20, 1e21, -1e21, 123456789012,
		4096, 2.59e18, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1.5e-300, 0.1 + 0.2}
	rng := rand.New(rand.NewSource(20261019))
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return edges[rng.Intn(len(edges))]
		case 1:
			return float64(rng.Int63n(1 << 40)) // an integral count
		case 2:
			return math.Float64frombits(rng.Uint64()) // any bits, NaN and ±Inf skipped below
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
	for trial := 0; trial < 5000; trial++ {
		rep := CostReport{M: rng.Intn(MaxM) - rng.Intn(3), Exec: float(), Redist: float(), LoopCarried: float(), Total: float(), EvalNs: rng.Int63() - rng.Int63()}
		if trial < len(edges) {
			rep.Exec, rep.Total = edges[trial], -edges[trial]
		}
		if _, err := json.Marshal(rep); err != nil {
			continue // a NaN or ±Inf: TestNonFiniteReplyIs500
		}
		got, ok := rep.appendJSON(nil)
		if want := encodeJSON(t, rep); !ok || string(got) != want {
			t.Fatalf("%+v: appendJSON writes %q (ok %t), encoding/json %q", rep, got, ok, want)
		}
	}
}

// TestNonFiniteReplyIs500: a reply with a NaN or infinite field is a 500
// whose body says why, from writeJSON and from the /cost writer alike; it
// used to go out as a 200 with an empty body.
func TestNonFiniteReplyIs500(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rep := CostReport{M: 16, Exec: 1, Redist: f, Total: f}
		want := encodeJSON(t, map[string]string{"error": fmt.Sprintf("encoding reply: json: unsupported value: %v", f)})
		for name, write := range map[string]func(http.ResponseWriter){
			"writeJSON": func(w http.ResponseWriter) { writeJSON(w, rep) },
			"writeCost": func(w http.ResponseWriter) { writeCost(w, rep) },
		} {
			rec := httptest.NewRecorder()
			write(rec)
			if rec.Code != http.StatusInternalServerError || rec.Body.String() != want {
				t.Errorf("%s of %v: %d %q, want 500 %q", name, f, rec.Code, rec.Body, want)
			}
		}
	}
}

// costPath is GET /cost of the one plan live on s at size m, which its
// fit prices.
func costPath(tb testing.TB, s *Server, m int) string {
	tb.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, e := range s.plans {
		if !e.pe.FittedAt(m) {
			tb.Fatalf("plan %s does not fit m=%d", id, m)
		}
		return fmt.Sprintf("/cost?key=%s&m=%d", id, m)
	}
	tb.Fatal("no live plan")
	return ""
}

// costRouteAllocBudgets is about 10% over the allocations of one fitted
// GET /cost through the handler (httptest's request and recorder
// included) at m=1000 on the m=256, N=16 plan: 20 for each of gauss,
// jacobi and sor under -race (21 where the race detector's pool drops a
// wrapper or a reply buffer), 19 without. It made 23 and 22 while each
// request allocated its status wrapper, its Content-Type value and its
// reply buffer, and 30 (31-32 under -race) with the query read into
// url.Values and the reply through encoding/json's Encoder.
var costRouteAllocBudgets = map[string]float64{"gauss": 22, "jacobi": 22, "sor": 22}

func TestCostRouteAllocBudget(t *testing.T) {
	for _, prog := range benchProgs {
		h, s, _ := warmHandler(t, prog)
		path := costPath(t, s, 1000)
		got := testing.AllocsPerRun(20, func() {
			if rec := serveDirect(h, "GET", path, nil); rec.Code != http.StatusOK {
				t.Fatalf("GET %s %s: %d: %s", path, prog, rec.Code, rec.Body)
			}
		})
		t.Logf("GET /cost %s: %.0f allocations", prog, got)
		if budget := costRouteAllocBudgets[prog]; got > budget {
			t.Errorf("GET /cost (%s m=1000 on the m=%d N=%d plan) made %.0f allocations, budget %.0f", prog, benchM, benchN, got, budget)
		}
	}
}
