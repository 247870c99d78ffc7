package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"dmcc/internal/artifact"
	"dmcc/internal/core"
	"dmcc/internal/sweep"
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
// once, the server behind it, and the request body of each write route:
// the compile request, and the install request built from the served
// plan.
func warmHandler(tb testing.TB, prog string) (h http.Handler, s *Server, bodies map[string][]byte) {
	tb.Helper()
	store, err := artifact.Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	s, err = New(Config{Store: store})
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
	return h, s, map[string][]byte{"/compile": compileBody, "/plan": installBody}
}

func benchRoute(b *testing.B, path string) {
	for _, prog := range benchProgs {
		b.Run(prog, func(b *testing.B) {
			h, _, bodies := warmHandler(b, prog)
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

// BenchmarkWriteStages times each stage of the write routes apart, on the
// bodies and the warm store of the route benchmarks: reading the request
// (an install's plan included), deriving the key, the store hit of a warm
// compile, reading its stored plan, thawing it, rendering the formulas
// and encoding the reply. The whole handler is BenchmarkWarmCompile and
// BenchmarkPlanInstall.
func BenchmarkWriteStages(b *testing.B) {
	for _, prog := range benchProgs {
		b.Run(prog, func(b *testing.B) {
			_, s, bodies := warmHandler(b, prog)
			req := CompileRequest{Prog: prog, M: benchM, N: benchN}
			c, err := s.compiler(&req)
			if err != nil {
				b.Fatal(err)
			}
			key := sweep.PlanKey(c, benchM)
			payload, ok := s.cfg.Store.Get(key)
			if !ok {
				b.Fatal("the compiled plan is not in the store")
			}
			var fp core.FrozenPlan
			if err := fp.UnmarshalJSON(payload); err != nil {
				b.Fatal(err)
			}
			pe, err := core.Thaw(c, &fp)
			if err != nil {
				b.Fatal(err)
			}
			resp := CompileResponse{ID: PlanID(key), Key: key, Cached: true, Prog: c.Program.Name, BaseM: benchM, N: benchN, Formulas: pe.Formulas()}
			if resp.Cost, err = s.evalEntry(newPlanEntry(key, "", pe), benchM); err != nil {
				b.Fatal(err)
			}
			readStage := func(route string, install bool) func(b *testing.B) {
				body := bodies[route]
				return func(b *testing.B) {
					var br bytes.Reader
					r := httptest.NewRequest("POST", route, nil)
					r.ContentLength = int64(len(body))
					w := httptest.NewRecorder()
					for i := 0; i < b.N; i++ {
						br.Reset(body)
						r.Body = io.NopCloser(&br)
						var got request
						if !readRequest(w, r, &got, install) {
							b.Fatalf("POST %s: %s", route, w.Body)
						}
					}
				}
			}
			for _, stage := range []struct {
				name string
				run  func(b *testing.B)
			}{
				{"request-compile", readStage("/compile", false)},
				{"request-plan", readStage("/plan", true)},
				{"key", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						sweep.PlanKey(c, benchM)
					}
				}},
				{"store-hit", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, cached, err := s.cfg.Store.GetOrCompute(key, nil); !cached || err != nil {
							b.Fatalf("store lookup: cached %t, %v", cached, err)
						}
					}
				}},
				{"plan-read", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						var fp core.FrozenPlan
						if err := fp.UnmarshalJSON(payload); err != nil {
							b.Fatal(err)
						}
					}
				}},
				{"thaw", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if _, err := core.Thaw(c, &fp); err != nil {
							b.Fatal(err)
						}
					}
				}},
				{"render", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						pe.Formulas()
					}
				}},
				{"reply-encode", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						writeJSON(httptest.NewRecorder(), resp)
					}
				}},
			} {
				b.Run(stage.name, func(b *testing.B) {
					b.ReportAllocs()
					stage.run(b)
				})
			}
		})
	}
}

// BenchmarkCostRoute times one fitted GET /cost through the handler, no
// wire, at a size that changes every request as dmbench's serve-cost
// asks them.
func BenchmarkCostRoute(b *testing.B) {
	for _, prog := range benchProgs {
		b.Run(prog, func(b *testing.B) {
			h, s, _ := warmHandler(b, prog)
			paths := make([]string, 64)
			for i := range paths {
				paths[i] = costPath(b, s, 1000+i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec := serveDirect(h, "GET", paths[i%len(paths)], nil); rec.Code != http.StatusOK {
					b.Fatalf("GET %s: %d: %s", paths[i%len(paths)], rec.Code, rec.Body)
				}
			}
		})
	}
}
