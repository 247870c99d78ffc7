package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dmcc/internal/artifact"
	"dmcc/internal/machine"
)

func openStore(t *testing.T) *artifact.Store {
	t.Helper()
	st, err := artifact.Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	st.Warnf = t.Logf
	return st
}

// A cold cached sweep, a warm cached sweep and an uncached sweep of the
// same grid must emit byte-identical JSON — the acceptance criterion
// that makes -cache transparent to consumers of -json.
func TestCompileSweepCachedJSONIdentical(t *testing.T) {
	mList, nList, sList := []int{16, 32}, []int{4}, []int{4}
	st := openStore(t)

	fresh, err := Compile(mList, nList, sList, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Compile(mList, nList, sList, Options{Cache: st, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cs := st.Stats()
	if cs.Misses == 0 || cs.Puts == 0 {
		t.Fatalf("cold sweep should miss and populate, got %s", cs)
	}
	if cs.Hits != 0 {
		t.Fatalf("cold sweep on empty store reported hits: %s", cs)
	}
	warm, err := Compile(mList, nList, sList, Options{Cache: st, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ws := st.Stats()
	if ws.Misses != cs.Misses {
		t.Fatalf("warm sweep missed: cold %s, after warm %s", cs, ws)
	}
	if wantHits := int64(len(warm.Rows)); ws.Hits != wantHits {
		t.Fatalf("warm sweep hits = %d, want %d (%s)", ws.Hits, wantHits, ws)
	}

	fj, _ := fresh.JSON()
	cj, _ := cold.JSON()
	wj, _ := warm.JSON()
	if !bytes.Equal(fj, cj) {
		t.Errorf("uncached and cold-cached JSON differ:\n%s\n---\n%s", fj, cj)
	}
	if !bytes.Equal(cj, wj) {
		t.Errorf("cold and warm JSON differ:\n%s\n---\n%s", cj, wj)
	}
}

// The symbolic sweep's frozen-plan path: a warm run thaws the plan
// instead of recompiling and must price every m identically.
func TestSymbolicSweepCachedMatchesFresh(t *testing.T) {
	mList, nList := []int{16, 32, 64}, []int{4}
	st := openStore(t)
	fresh, err := Symbolic(mList, nList, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Symbolic(mList, nList, Options{Cache: st}); err != nil {
		t.Fatal(err) // cold: populates the store
	}
	warm, err := Symbolic(mList, nList, Options{Cache: st})
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Hits == 0 {
		t.Fatalf("warm symbolic sweep never hit the cache: %s", s)
	}
	fj, _ := fresh.JSON()
	wj, _ := warm.JSON()
	if !bytes.Equal(fj, wj) {
		t.Errorf("thawed symbolic sweep differs from fresh:\n%s\n---\n%s", fj, wj)
	}
	// Formula comments survive the thaw too (they come from the fits).
	if len(fresh.Comments) != len(warm.Comments) {
		t.Fatalf("comments: fresh %d, warm %d", len(fresh.Comments), len(warm.Comments))
	}
	for i := range fresh.Comments {
		if fresh.Comments[i] != warm.Comments[i] {
			t.Errorf("comment %d: fresh %q, warm %q", i, fresh.Comments[i], warm.Comments[i])
		}
	}
}

// TestExecSweepKeysMoveWithTheirRows: a row may not change under an
// unchanged key. When exec.Run began reporting the run it executed
// instead of a replayed per-element model, the batched exec rows and the
// scale rows lost the retired "redist=collective" literal; when exec.Case
// began running the compiled plan's segments instead of the whole-program
// scheme set, every exec and scale key gained "run=dp". A store
// populated under the older keys — here with a poisoned simtime — must
// serve no arm, and one point's key is pinned as text.
func TestExecSweepKeysMoveWithTheirRows(t *testing.T) {
	const (
		prog = "prog=9ca8cf06568cb8e28e75ba2e19a9166f1f66945d0e89afcf1e3e3326d5f2b287" // ir.Jacobi
		size = "m=8;n=2;iters=2;omega=0;machine=tf=1;tc=1;alpha=0;overlap=false;synccoll=true"
	)
	if got, want := execKey("exec", "exact", execProgs[0], 8, 2, machine.DefaultConfig()),
		"kind=exec;"+prog+";engine=exact;"+size+";run=dp"; got != want {
		t.Fatalf("jacobi/exact m=8 n=2 key\n %s\nwant\n %s", got, want)
	}
	st := openStore(t)
	for _, key := range []string{
		"kind=exec;" + prog + ";engine=exact;" + size,
		"kind=exec;" + prog + ";engine=batched;" + size,
		"kind=scale;" + prog + ";" + size,
		"kind=exec;" + prog + ";engine=batched;" + size + ";redist=collective",
		"kind=scale;" + prog + ";" + size + ";redist=collective",
	} {
		if err := st.Put(key, []byte(`{"simtime":-1}`)); err != nil {
			t.Fatal(err)
		}
	}
	ex, err := Exec([]int{8}, []int{2}, Options{Cache: st})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Scale([]int{8}, []int{2}, Options{Cache: st})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range append(ex.Rows, sc.Rows...) {
		if r.Metrics["simtime"] == -1 {
			t.Errorf("%s m=%d n=%d was served from a key of the whole-program run", r.Variant, r.M, r.N)
		}
	}
}

// Rows come back sorted regardless of worker interleaving.
func TestRowsCanonicallyOrdered(t *testing.T) {
	res, err := Compile([]int{32, 16}, []int{4}, []int{4}, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rows); i++ {
		a, b := res.Rows[i-1], res.Rows[i]
		if a.Variant > b.Variant ||
			(a.Variant == b.Variant && a.M > b.M) ||
			(a.Variant == b.Variant && a.M == b.M && a.N > b.N) ||
			(a.Variant == b.Variant && a.M == b.M && a.N == b.N && a.S > b.S) {
			t.Fatalf("rows out of order at %d: %+v then %+v", i, a, b)
		}
	}
}

func writeBaseline(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Compare against a baseline in dmsweep -json shape: identical metrics
// pass, inflated current metrics regress, a baseline metric the sweep
// does not produce is skipped, and every metric the two share is compared
// whatever its name — "hit_ratio" was silently dropped by the name filter
// this gate used to apply.
func TestCompareSweepJSONBaseline(t *testing.T) {
	res := &Result{Kind: "compile", Rows: []Row{
		{Variant: "analytic", M: 16, N: 4, S: 4,
			Metrics: map[string]float64{"mincost": 28, "segments": 4, "hit_ratio": 2}},
	}}
	base := `{"sweep":"compile","rows":[
	  {"variant":"analytic","m":16,"n":4,"s":4,
	   "metrics":{"mincost":28,"segments":4,"hit_ratio":2,"not_emitted":1}},
	  {"variant":"analytic","m":999,"n":4,"s":4,"metrics":{"mincost":1}}
	]}`
	path := writeBaseline(t, base)

	regs, notes, err := Compare(path, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("clean run flagged: %v", regs)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "m=999") {
		t.Fatalf("expected one skipped-row note for m=999, got %v", notes)
	}

	res.Rows[0].Metrics["mincost"] = 29 // worse than 28
	regs, _, err = Compare(path, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "mincost" {
		t.Fatalf("expected one mincost regression, got %v", regs)
	}

	res.Rows[0].Metrics["mincost"] = 28
	res.Rows[0].Metrics["hit_ratio"] = 3
	regs, _, _ = Compare(path, res)
	if len(regs) != 1 || regs[0].Metric != "hit_ratio" {
		t.Fatalf("expected a hit_ratio regression, got %v", regs)
	}
}

// TestCompareOrdersARowsRegressions: several regressions in one row come
// back by metric name, the same every call (they followed map order).
func TestCompareOrdersARowsRegressions(t *testing.T) {
	res := &Result{Kind: "compile", Rows: []Row{{Variant: "analytic", M: 16, N: 4, S: 4,
		Metrics: map[string]float64{"a": 2, "b": 2, "c": 2, "d": 2, "e": 2, "f": 2}}}}
	path := writeBaseline(t, `{"sweep":"compile","rows":[{"variant":"analytic","m":16,"n":4,"s":4,
	   "metrics":{"f":1,"e":1,"d":1,"c":1,"b":1,"a":1}}]}`)
	for range 20 {
		regs, _, err := Compare(path, res)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range regs {
			got = append(got, r.Metric)
		}
		if strings.Join(got, ",") != "a,b,c,d,e,f" {
			t.Fatalf("regressions in order %v, want a..f", got)
		}
	}
}

// committedBaseline loads a BENCH_*.json from the repository root as the
// sweep it records. The committed baselines are plain dmsweep -json
// documents: nothing but the tool's own fields decodes, no key is a
// wall-clock or provenance field, and the document is byte for byte what
// Result.JSON emits for its rows (CI compares a fresh sweep to it with
// cmp as well as with -baseline).
func committedBaseline(t *testing.T, name, kind string) (string, *Result) {
	t.Helper()
	path := filepath.Join("..", "..", name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc JSONOutput
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("%s is not a plain -json document: %v", name, err)
	}
	if doc.Sweep != kind || len(doc.Rows) == 0 {
		t.Fatalf("%s: sweep %q with %d rows, want %q", name, doc.Sweep, len(doc.Rows), kind)
	}
	res := &Result{Kind: doc.Sweep}
	ephemeral := regexp.MustCompile(`_ns|wall|speedup|date|cpu`)
	for _, r := range doc.Rows {
		for k := range r.Metrics {
			if ephemeral.MatchString(k) {
				t.Errorf("%s: row %s carries the non-deterministic key %q", name, rowID(r.Variant, r.M, r.N, r.S), k)
			}
		}
		res.Rows = append(res.Rows, Row{Variant: r.Variant, M: r.M, N: r.N, S: r.S, Metrics: r.Metrics})
	}
	again, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, raw) {
		t.Errorf("%s is not canonical: re-emitting its rows changes its bytes", name)
	}
	return path, res
}

// gatesCommitted checks Compare on a committed baseline: the sweep it
// records passes at tolerance 0 with every row matched, and one unit more
// on the named metric of the named row is exactly one regression.
func gatesCommitted(t *testing.T, name, kind, variant string, n int, metric string) {
	t.Helper()
	path, res := committedBaseline(t, name, kind)
	regs, notes, err := Compare(path, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 || len(notes) != 0 {
		t.Fatalf("%s against itself: regressions %v, notes %v", name, regs, notes)
	}
	for i, row := range res.Rows {
		if row.Variant != variant || row.N != n {
			continue
		}
		bumped := map[string]float64{}
		for k, v := range row.Metrics {
			bumped[k] = v
		}
		if _, ok := bumped[metric]; !ok {
			t.Fatalf("%s: row %s has no %s", name, variant, metric)
		}
		bumped[metric]++
		res.Rows[i].Metrics = bumped
		regs, _, _ = Compare(path, res)
		if len(regs) != 1 || regs[0].Metric != metric || !strings.Contains(regs[0].Row, fmt.Sprintf("%s m=64 n=%d", variant, n)) {
			t.Fatalf("expected one %s regression on %s n=%d, got %v", metric, variant, n, regs)
		}
		return
	}
	t.Fatalf("%s has no row %s n=%d", name, variant, n)
}

// The committed BENCH_compile.json gates both engines of the compile
// sweep at m=64, N=16 on mincost and segments.
func TestCompareBenchCompileBaseline(t *testing.T) {
	gatesCommitted(t, "BENCH_compile.json", "compile", "analytic", 16, "segments")
	gatesCommitted(t, "BENCH_compile.json", "compile", "exact", 16, "mincost")
}

// The committed BENCH_exec.json gates the batched arm and the per-element
// oracle of the exec sweep at m=64, N=16.
func TestCompareBenchExecBaseline(t *testing.T) {
	gatesCommitted(t, "BENCH_exec.json", "exec", "jacobi/batched", 16, "simtime")
	gatesCommitted(t, "BENCH_exec.json", "exec", "gauss/exact", 16, "messages")
}

// The committed BENCH_scale.json gates the scale sweep per program and N,
// through N=4096.
func TestCompareBenchScaleBaseline(t *testing.T) {
	gatesCommitted(t, "BENCH_scale.json", "scale", "jacobi", 64, "transport_words")
	gatesCommitted(t, "BENCH_scale.json", "scale", "gauss", 4096, "max_pair_words")
}

// The committed BENCH_layouts.json gates the layouts table per program,
// layout and N: a whole-program row and a dp row.
func TestCompareBenchLayoutsBaseline(t *testing.T) {
	gatesCommitted(t, "BENCH_layouts.json", "layouts", "sor/2x8", 16, "makespan")
	gatesCommitted(t, "BENCH_layouts.json", "layouts", "gauss/dp", 64, "modelled")
}

// A baseline whose grid shares nothing with the sweep is an error, not
// a silent pass.
func TestCompareRejectsDisjointBaseline(t *testing.T) {
	path := writeBaseline(t, `{"sweep":"compile","rows":[
	  {"variant":"analytic","m":999,"n":999,"metrics":{"mincost":1}}]}`)
	res := &Result{Kind: "compile", Rows: []Row{
		{Variant: "analytic", M: 16, N: 4, S: 4, Metrics: map[string]float64{"mincost": 28}},
	}}
	if _, _, err := Compare(path, res); err == nil {
		t.Fatal("disjoint baseline should be an error")
	}
}

// A document without "rows" is an error — the hand-shaped
// {"bench", "results"} files this gate once parsed included.
func TestCompareRejectsUnknownShape(t *testing.T) {
	res := &Result{Kind: "compile", Rows: []Row{{Variant: "x", M: 1, N: 1}}}
	for _, doc := range []string{
		`{"something":"else"}`,
		`{"bench":"BenchmarkCompileScaling","config":{"m":1,"n":1},"results":[{"name":"synth/s=4","dpcost":28}]}`,
	} {
		if _, _, err := Compare(writeBaseline(t, doc), res); err == nil {
			t.Fatalf("baseline %s should be an error", doc)
		}
	}
}

// The symbolic sweep's (program, N) units share the worker pool; rows
// and the formula comments come out in the same order at any width.
func TestSymbolicSweepWorkersIdentical(t *testing.T) {
	mList, nList := []int{16, 32}, []int{4, 8}
	serial, err := Symbolic(mList, nList, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Symbolic(mList, nList, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sj, _ := serial.JSON()
	wj, _ := wide.JSON()
	if !bytes.Equal(sj, wj) {
		t.Errorf("-workers 4 JSON differs from -workers 1:\n%s\n---\n%s", wj, sj)
	}
	if !reflect.DeepEqual(serial.Comments, wide.Comments) {
		t.Errorf("-workers 4 comments differ from -workers 1:\n%q\n---\n%q", wide.Comments, serial.Comments)
	}
}

// A sweep through a cache whose store has a peer daemon behaves like a
// local cache: a second worker hits what the first computed, through
// the peer.
func TestSweepThroughTieredCache(t *testing.T) {
	upstream := openStore(t)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /artifact/{id}", func(w http.ResponseWriter, r *http.Request) { artifact.ServeGet(upstream, w, r) })
	mux.HandleFunc("PUT /artifact/{id}", func(w http.ResponseWriter, r *http.Request) { artifact.ServePut(upstream, w, r) })
	ts := httptest.NewServer(mux)
	defer ts.Close()

	mList, nList, sList := []int{16}, []int{4}, []int{4}
	// Worker A: cold, writes through to the peer.
	a := openPeeredStore(t, ts.URL)
	cold, err := Compile(mList, nList, sList, Options{Cache: a})
	if err != nil {
		t.Fatal(err)
	}
	if upstream.Stats().Puts == 0 {
		t.Fatal("worker A never wrote through to the peer store")
	}
	// Worker B: separate local dir, warm entirely from the peer.
	b := openPeeredStore(t, ts.URL)
	warm, err := Compile(mList, nList, sList, Options{Cache: b})
	if err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.RemoteHits == 0 || st.Misses != 0 {
		t.Fatalf("worker B should warm from the peer: %s", st)
	}
	cj, _ := cold.JSON()
	wj, _ := warm.JSON()
	if !bytes.Equal(cj, wj) {
		t.Errorf("peer-warmed sweep differs from cold sweep:\n%s\n---\n%s", cj, wj)
	}
}

// openPeeredStore opens a store over a fresh local dir with the given
// peer URL.
func openPeeredStore(t *testing.T, peer string) *artifact.Store {
	t.Helper()
	st, err := artifact.OpenWithPeer(filepath.Join(t.TempDir(), "cache"), peer)
	if err != nil {
		t.Fatal(err)
	}
	st.Warnf = t.Logf
	return st
}
