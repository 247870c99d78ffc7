package sweep

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmcc/internal/artifact"
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
// pass, inflated current metrics regress, and wall-clock columns are
// ignored even if present in the baseline.
func TestCompareSweepJSONBaseline(t *testing.T) {
	res := &Result{Kind: "compile", Rows: []Row{
		{Variant: "analytic", M: 16, N: 4, S: 4,
			Metrics: map[string]float64{"mincost": 28, "segments": 4}},
	}}
	base := `{"sweep":"compile","rows":[
	  {"variant":"analytic","m":16,"n":4,"s":4,
	   "metrics":{"mincost":28,"segments":4,"compile_ns":12345}},
	  {"variant":"analytic","m":999,"n":4,"s":4,"metrics":{"mincost":1}}
	]}`
	path := writeBaseline(t, base)

	regs, notes, err := Compare(path, res, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("clean run flagged: %v", regs)
	}
	if len(notes) != 1 || !strings.Contains(notes[0], "m=999") {
		t.Fatalf("expected one skipped-row note for m=999, got %v", notes)
	}

	res.Rows[0].Metrics["mincost"] = 30 // worse than 28
	regs, _, err = Compare(path, res, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "mincost" {
		t.Fatalf("expected one mincost regression, got %v", regs)
	}
	// A generous tolerance absorbs it.
	regs, _, _ = Compare(path, res, 0.10)
	if len(regs) != 0 {
		t.Fatalf("7%% increase flagged at 10%% tolerance: %v", regs)
	}
}

// Compare understands the committed BENCH_compile.json shape: synth/s=K
// entries gate the analytic engine's rows at the config's (m, n) on
// dpcost and segments; wall-clock fields and non-synth entries are
// ignored.
func TestCompareBenchCompileBaseline(t *testing.T) {
	base := `{
	  "bench": "BenchmarkCompileScaling",
	  "config": {"m": 64, "n": 16},
	  "results": [
	    {"name": "synth/s=4", "fast_ns": 100, "pr1_ns": 200, "prechange_ns": null,
	     "dpcost": 28, "segments": 4},
	    {"name": "gauss", "fast_ns": 999, "dpcost": 14024, "segments": 1}
	  ]
	}`
	path := writeBaseline(t, base)
	res := &Result{Kind: "compile", Rows: []Row{
		{Variant: "analytic", M: 64, N: 16, S: 4,
			Metrics: map[string]float64{"mincost": 28, "segments": 4}},
		{Variant: "exact", M: 64, N: 16, S: 4,
			Metrics: map[string]float64{"mincost": 9999, "segments": 9}},
	}}
	regs, notes, err := Compare(path, res, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("matching run flagged: %v", regs)
	}
	if len(notes) != 0 {
		t.Fatalf("unexpected notes: %v", notes)
	}
	res.Rows[0].Metrics["segments"] = 5
	regs, _, _ = Compare(path, res, 0)
	if len(regs) != 1 || regs[0].Metric != "segments" {
		t.Fatalf("expected a segments regression, got %v", regs)
	}
}

// Compare understands the committed BENCH_exec.json shape: prog entries
// gate the batched arm, with naive_messages renamed to messages.
func TestCompareBenchExecBaseline(t *testing.T) {
	base := `{
	  "bench": "dmsweep -sweep exec (batched engine)",
	  "config": {"m": 64, "n": 16},
	  "results": [
	    {"prog": "jacobi", "wall_ns": 123, "simtime": 1634,
	     "naive_messages": 1536, "transport_messages": 810,
	     "words": 1536, "max_msg_words": 32}
	  ]
	}`
	path := writeBaseline(t, base)
	res := &Result{Kind: "exec", Rows: []Row{
		{Variant: "jacobi/batched", M: 64, N: 16,
			Metrics: map[string]float64{"simtime": 1634, "messages": 1536,
				"transport_messages": 810, "words": 1536, "max_msg_words": 32}},
		{Variant: "jacobi/exact", M: 64, N: 16,
			Metrics: map[string]float64{"simtime": 99999}},
	}}
	regs, _, err := Compare(path, res, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("matching run flagged: %v", regs)
	}
	res.Rows[0].Metrics["simtime"] = 2000
	regs, _, _ = Compare(path, res, 0.01)
	if len(regs) != 1 || regs[0].Metric != "simtime" {
		t.Fatalf("expected a simtime regression, got %v", regs)
	}
}

// Compare understands the committed BENCH_scale.json shape: each entry
// carries its own prog and n, the variant is the program name, and the
// sim_ns wall-clock field is ignored.
func TestCompareBenchScaleBaseline(t *testing.T) {
	base := `{
	  "bench": "dmsweep -sweep scale -m 64 -n 16,64",
	  "config": {"m": 64},
	  "results": [
	    {"prog": "jacobi", "n": 16, "sim_ns": 7148345, "simtime": 1634, "transport_words": 1248},
	    {"prog": "jacobi", "n": 64, "sim_ns": 9759490, "simtime": 874, "transport_words": 2800}
	  ]
	}`
	path := writeBaseline(t, base)
	res := &Result{Kind: "scale", Rows: []Row{
		{Variant: "jacobi", M: 64, N: 16, Metrics: map[string]float64{"simtime": 1634, "transport_words": 1248}},
		{Variant: "jacobi", M: 64, N: 64, Metrics: map[string]float64{"simtime": 874, "transport_words": 2800}},
	}}
	regs, _, err := Compare(path, res, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("matching run flagged: %v", regs)
	}
	res.Rows[1].Metrics["transport_words"] = 2801
	regs, _, _ = Compare(path, res, 0)
	if len(regs) != 1 || regs[0].Metric != "transport_words" || !strings.Contains(regs[0].Row, "jacobi m=64 n=64") {
		t.Fatalf("expected a transport_words regression at n=64, got %v", regs)
	}
}

// A baseline whose grid shares nothing with the sweep is an error, not
// a silent pass.
func TestCompareRejectsDisjointBaseline(t *testing.T) {
	path := writeBaseline(t, `{"sweep":"compile","rows":[
	  {"variant":"analytic","m":999,"n":999,"metrics":{"mincost":1}}]}`)
	res := &Result{Kind: "compile", Rows: []Row{
		{Variant: "analytic", M: 16, N: 4, S: 4, Metrics: map[string]float64{"mincost": 28}},
	}}
	if _, _, err := Compare(path, res, 0); err == nil {
		t.Fatal("disjoint baseline should be an error")
	}
}

func TestCompareRejectsUnknownShape(t *testing.T) {
	path := writeBaseline(t, `{"something":"else"}`)
	res := &Result{Kind: "compile", Rows: []Row{{Variant: "x", M: 1, N: 1}}}
	if _, _, err := Compare(path, res, 0); err == nil {
		t.Fatal("unknown baseline shape should be an error")
	}
}

// Sharded sweeps partition the canonical point order; merging the
// shards' JSON outputs reproduces the unsharded document byte for byte.
func TestShardedCompileSweepMergesIdentical(t *testing.T) {
	mList, nList, sList := []int{16, 32}, []int{4}, []int{4}
	full, err := Compile(mList, nList, sList, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	total := 0
	for k := 0; k < 2; k++ {
		part, err := Compile(mList, nList, sList, Options{Shard: k, ShardCount: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(part.Rows) == 0 || len(part.Rows) >= len(full.Rows) {
			t.Fatalf("shard %d has %d of %d rows — not a proper split", k, len(part.Rows), len(full.Rows))
		}
		total += len(part.Rows)
		pj, err := part.JSON()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "shard"+string(rune('0'+k))+".json")
		if err := os.WriteFile(path, pj, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	if total != len(full.Rows) {
		t.Fatalf("shards cover %d rows, full sweep has %d", total, len(full.Rows))
	}
	merged, err := MergeFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	fj, _ := full.JSON()
	mj, _ := merged.JSON()
	if !bytes.Equal(fj, mj) {
		t.Errorf("merged shards differ from unsharded sweep:\n%s\n---\n%s", fj, mj)
	}
}

// Symbolic sweeps shard over (program, N) units and merge identically.
func TestShardedSymbolicSweepMergesIdentical(t *testing.T) {
	mList, nList := []int{16, 32}, []int{4}
	full, err := Symbolic(mList, nList, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	for k := 0; k < 2; k++ {
		part, err := Symbolic(mList, nList, Options{Shard: k, ShardCount: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(part.Rows) == 0 {
			t.Fatalf("shard %d is empty", k)
		}
		pj, err := part.JSON()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "sym"+string(rune('0'+k))+".json")
		if err := os.WriteFile(path, pj, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	merged, err := MergeFiles(paths)
	if err != nil {
		t.Fatal(err)
	}
	fj, _ := full.JSON()
	mj, _ := merged.JSON()
	if !bytes.Equal(fj, mj) {
		t.Errorf("merged symbolic shards differ from unsharded sweep:\n%s\n---\n%s", fj, mj)
	}
}

// Overlapping inputs are not shards of one sweep: the merge refuses
// them instead of silently overwriting rows.
func TestMergeRejectsDuplicateRows(t *testing.T) {
	res, err := Compile([]int{16}, []int{4}, []int{4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rj, _ := res.JSON()
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	for _, p := range []string{a, b} {
		if err := os.WriteFile(p, rj, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := MergeFiles([]string{a, b}); err == nil {
		t.Fatal("duplicate rows should fail the merge")
	}
}

// MergeFiles refuses mixed sweep kinds and empty input lists.
func TestMergeRejectsMixedKinds(t *testing.T) {
	if _, err := MergeFiles(nil); err == nil {
		t.Fatal("empty merge should fail")
	}
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	if err := os.WriteFile(a, []byte(`{"sweep":"compile","rows":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte(`{"sweep":"exec","rows":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeFiles([]string{a, b}); err == nil {
		t.Fatal("mixed-kind merge should fail")
	}
}

// A sweep through a tiered cache over a peer daemon's store behaves
// like a local cache: the second shard worker hits what the first
// computed, through the peer.
func TestSweepThroughTieredCache(t *testing.T) {
	upstream := openStore(t)
	ts := httptest.NewServer(artifact.Handler(upstream))
	defer ts.Close()

	mList, nList, sList := []int{16}, []int{4}, []int{4}
	// Worker A: cold, writes through to the peer.
	a := NewTieredCache(t, ts.URL)
	cold, err := Compile(mList, nList, sList, Options{Cache: a})
	if err != nil {
		t.Fatal(err)
	}
	if upstream.Stats().Puts == 0 {
		t.Fatal("worker A never wrote through to the peer store")
	}
	// Worker B: separate local dir, warm entirely from the peer.
	b := NewTieredCache(t, ts.URL)
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

// NewTieredCache builds a tiered backend over a fresh local dir and the
// given peer URL (test helper).
func NewTieredCache(t *testing.T, peer string) *artifact.Tiered {
	t.Helper()
	local := openStore(t)
	tr := artifact.NewTiered(local, artifact.OpenRemote(peer, artifact.RemoteOptions{}))
	tr.Warnf = t.Logf
	return tr
}
