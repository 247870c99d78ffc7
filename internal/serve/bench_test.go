package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"dmcc/internal/artifact"
)

// The write-route benchmarks drive the handler through httptest with no
// wire: what they time is the daemon's own work on a warm POST /compile
// (store hit, decode, thaw, render, encode) and on a plan install.
const (
	benchM = 256
	benchN = 16
)

var benchProgs = []string{"gauss", "jacobi", "sor"}

// serveDirect runs one request through the handler without a socket.
func serveDirect(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// warmHandler returns a handler over a fresh store with prog compiled
// once, and the request body of each write route: the compile request,
// and the install request built from the served plan.
func warmHandler(tb testing.TB, prog string) (h http.Handler, bodies map[string][]byte) {
	tb.Helper()
	store, err := artifact.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New(Config{Store: store, Jobs: 1})
	if err != nil {
		tb.Fatal(err)
	}
	h = s.Handler()
	head := fmt.Sprintf(`{"prog":%q,"m":%d,"n":%d`, prog, benchM, benchN)
	compileBody := []byte(head + "}")
	rec := serveDirect(h, "POST", "/compile", compileBody)
	if rec.Code != http.StatusOK {
		tb.Fatalf("cold POST /compile %s: %d: %s", prog, rec.Code, rec.Body)
	}
	var cr CompileResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
		tb.Fatal(err)
	}
	plan := serveDirect(h, "GET", "/plan/"+cr.ID, nil)
	if plan.Code != http.StatusOK {
		tb.Fatalf("GET /plan %s: %d: %s", prog, plan.Code, plan.Body)
	}
	installBody := []byte(head + `,"plan":` + plan.Body.String() + "}")
	return h, map[string][]byte{"/compile": compileBody, "/plan": installBody}
}

func benchRoute(b *testing.B, path string) {
	for _, prog := range benchProgs {
		b.Run(prog, func(b *testing.B) {
			h, bodies := warmHandler(b, prog)
			body := bodies[path]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec := serveDirect(h, "POST", path, body); rec.Code != http.StatusOK {
					b.Fatalf("POST %s: %d: %s", path, rec.Code, rec.Body)
				}
			}
		})
	}
}

func BenchmarkWarmCompile(b *testing.B) { benchRoute(b, "/compile") }

func BenchmarkPlanInstall(b *testing.B) { benchRoute(b, "/plan") }
