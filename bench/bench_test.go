package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
	"dmcc/internal/serve"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go")

func TestPercentile(t *testing.T) {
	asc := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {1, 50}, {0.25, 20}, {0.9, 46}} {
		if got := percentile(asc, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{5, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
}

// The reported tail percentile must have at least ten samples beyond
// it: p90 needs 92 ops, p99 some 990.
func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
	}{{91, 0.9, 9}, {92, 0.9, 10}, {101, 0.9, 10}, {120, 0.9, 12}, {1001, 0.99, 10}, {900, 0.99, 9}} {
		if got := samplesBeyond(c.n, c.q); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %v) = %d, want %d", c.n, c.q, got, c.beyond)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0.5}, {91, 0.5}, {92, 0.9}, {900, 0.9}, {1001, 0.99}, {120000, 0.999}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestNormalise(t *testing.T) {
	// A host at half the reference speed doubles both the op and the
	// yardstick: the normalised time is the reference-host time.
	if got := normalise(200, 2*yardRefMS, 2*yardRefMS); math.Abs(got-100) > 1e-12 {
		t.Errorf("normalise on a half-speed host = %v, want 100", got)
	}
	// The speed is the mean of the two adjacent yardsticks.
	if got := normalise(90, 6, 12); math.Abs(got-90*yardRefMS/9) > 1e-12 {
		t.Errorf("normalise between unequal yardsticks = %v", got)
	}
	// Ops of batch b lie between yards[b] and yards[b+1].
	raw := []float64{10, 10, 10, 10, 10}
	got := normaliseWindow(raw, []float64{7, 7, 14, 14}, 2)
	want := []float64{10, 10, 10 * 7 / 10.5, 10 * 7 / 10.5, 5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("normaliseWindow = %v, want %v", got, want)
		}
	}
	if tp := throughput([]float64{100, 100, 50}); math.Abs(tp-12) > 1e-12 {
		t.Errorf("throughput = %v ops/s, want 12", tp)
	}
}

// quartiles must be the cut points of Python's
// statistics.quantiles(v, n=4), which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{3.1, 2.9, 3.0, 3.4, 2.8, 3.2, 3.05, 2.95, 3.3, 3.15}
	q1, q2, q3 := quartiles(v)
	// statistics.quantiles([...], n=4) -> [2.9375, 3.075, 3.225]
	for i, c := range [][2]float64{{q1, 2.9375}, {q2, 3.075}, {q3, 3.225}} {
		if math.Abs(c[0]-c[1]) > 1e-9 {
			t.Errorf("quartile %d = %v, want %v", i+1, c[0], c[1])
		}
	}
	if got := iqrShare(v); math.Abs(got-(3.225-2.9375)/3.075) > 1e-9 {
		t.Errorf("iqrShare = %v", got)
	}
	if got := relRange([]float64{9, 10, 12}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("relRange = %v, want 0.3", got)
	}
}

// The yardstick must do the same work every call: same checksum, and
// no allocation, so the collector never runs on its account.
func TestYardstickDeterministic(t *testing.T) {
	for i := 0; i < 3; i++ {
		if got := yardstick(); got != yardChecksum {
			t.Fatalf("call %d: checksum %#x, want %#x", i, got, yardChecksum)
		}
	}
	if allocs := testing.AllocsPerRun(3, func() { yardstick() }); allocs != 0 {
		t.Errorf("yardstick allocates %v times per call, want 0", allocs)
	}
}

func TestGeneratorsSeeded(t *testing.T) {
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	gens := map[string]func(seed int64) []byte{
		"synth":   func(seed int64) []byte { return marshal(genSynthOps(seed, 60)) },
		"kernels": func(seed int64) []byte { return marshal(genKernelOps(seed, 60)) },
		"exec":    func(seed int64) []byte { return marshal(genExecInput(ir.Gauss(), 8, false, seed)) },
		"serve":   func(seed int64) []byte { return marshal(newBlockOrder(seed, 50).next()) },
	}
	for name, gen := range gens {
		if !bytes.Equal(gen(7), gen(7)) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if bytes.Equal(gen(7), gen(8)) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
	// Whatever the seed, every cycle of sizes visits each size once, so
	// the set of compiled inputs (and their summed cost) is fixed.
	for seed := int64(1); seed <= 5; seed++ {
		ops := genSynthOps(seed, 4*len(synthSizes))
		for c := 0; c < len(ops); c += len(synthSizes) {
			seen := map[int]bool{}
			for _, o := range ops[c : c+len(synthSizes)] {
				seen[o.M] = true
			}
			if len(seen) != len(synthSizes) {
				t.Fatalf("seed %d cycle %d visits sizes %v", seed, c, seen)
			}
		}
	}
	// The first block of either serve sequence asks the same requests
	// for every seed, in a different order.
	a, b := newBlockOrder(1, costBlock).next(), newBlockOrder(2, costBlock).next()
	if reflect.DeepEqual(a, b) {
		t.Error("serve blocks of different seeds are in the same order")
	}
	seen := make([]bool, costBlock)
	for _, idx := range a {
		seen[idx] = true
	}
	for idx, ok := range seen {
		if !ok {
			t.Fatalf("block order misses position %d", idx)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{OpID: 1, SpanID: 1, ParentID: 0, Name: "op", StartNS: 0, EndNS: 100},
		// Two children that overlap each other (30..60 and 50..80): they
		// cover 30..80 of the root, not 60 ns.
		{OpID: 1, SpanID: 2, ParentID: 1, Name: "a.x", StartNS: 30, EndNS: 60},
		{OpID: 1, SpanID: 3, ParentID: 1, Name: "b.y", StartNS: 50, EndNS: 80},
		// A grandchild is subtracted from its parent only.
		{OpID: 1, SpanID: 4, ParentID: 2, Name: "a.z", StartNS: 35, EndNS: 45},
		// A child that runs past its parent is clipped to it.
		{OpID: 1, SpanID: 5, ParentID: 3, Name: "c.late", StartNS: 70, EndNS: 95},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 50, 2: 20, 3: 20, 4: 10, 5: 25}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	rows := stageTable(spans, layerOf)
	byName := map[string]stageRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if r := byName["a"]; r.Calls != 2 || math.Abs(r.SelfMS-30e-6) > 1e-15 || math.Abs(r.Share-0.3) > 1e-12 {
		t.Errorf("layer a = %+v", r)
	}
	if layerOf("core.compile_ms.s4") != "core" || layerOf("op") != "op" {
		t.Error("layerOf splits at the wrong dot")
	}
}

func TestTracerStack(t *testing.T) {
	tr := newTracer()
	if tr.under("server") != 0 {
		t.Error("a span was opened with no op in flight")
	}
	tr.beginOp("op")
	tr.push("client.GET /cost")
	id := tr.under("serve.Handler GET /cost")
	tr.closeSpan(id)
	tr.count("bytes", 3)
	tr.pop()
	tr.endOp()
	if tr.active() {
		t.Error("op still open after endOp")
	}
	if len(tr.spans) != 3 || tr.spans[2].ParentID != tr.spans[1].SpanID || tr.spans[1].ParentID != tr.spans[0].SpanID {
		t.Fatalf("span tree = %+v", tr.spans)
	}
	if tr.spans[1].Counts["bytes"] != 3 || tr.spans[0].OpID != 1 {
		t.Errorf("counts or op id wrong: %+v", tr.spans)
	}
}

// Each checker must accept the program's real output and reject a
// corrupted one.
func TestCheckersFlip(t *testing.T) {
	// Executed values against the sequential interpreter.
	want := ir.Storage{"X": {"1": 1.5, "2": -2}}
	good := ir.Storage{"X": {"1": 1.5 + 1e-12, "2": -2}}
	if _, err := checkValues(good, want); err != nil {
		t.Errorf("values within tolerance rejected: %v", err)
	}
	bad := ir.Storage{"X": {"1": 1.5, "2": -2.001}}
	if _, err := checkValues(bad, want); err == nil {
		t.Error("a corrupted value passed")
	}
	if _, err := checkValues(ir.Storage{"X": {"1": math.NaN(), "2": -2}}, want); err == nil {
		t.Error("a NaN passed")
	}

	// A compiled plan against the enumeration oracle.
	p := ir.Synthetic(3)
	res, err := core.NewCompiler(p, cost.Unit(), map[string]int{"m": 16}, 4).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPlan(p, 4, 16, res); err != nil {
		t.Errorf("a real plan rejected: %v", err)
	}
	res.DP.Segments[0].M++
	if err := checkPlan(p, 4, 16, res); err == nil {
		t.Error("a plan with a corrupted segment cost passed")
	}
	res.DP.Segments[0].M--
	res.DP.MinimumCost = res.WholeProgramCost + 1
	if err := checkPlan(p, 4, 16, res); err == nil {
		t.Error("a plan dearer than the whole-program baseline passed")
	}

	// A /cost reply against an evaluator of the harness's own.
	pe, err := core.NewPlanEvaluator(core.NewCompiler(ir.Jacobi(), cost.Unit(), map[string]int{"m": 16}, 4))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := pe.EvalAt(24)
	if err != nil {
		t.Fatal(err)
	}
	rep := serve.CostReport{M: 24, Exec: pc.Exec, Redist: pc.Redist, LoopCarried: pc.LoopCarried, Total: pc.Total(), EvalNs: 123}
	if err := checkCostReply(pe, rep); err != nil {
		t.Errorf("a real reply rejected: %v", err)
	}
	rep.Total++
	if err := checkCostReply(pe, rep); err == nil {
		t.Error("a corrupted reply passed")
	}
}

// firstSeen is what nondeterministic_frac counts with.
func TestFirstSeen(t *testing.T) {
	var f firstSeen
	if !f.observe("k", 1) || f.observe("k", 1) || f.differ != 0 {
		t.Fatal("a repeated identical result counted as different")
	}
	f.observe("k", 2)
	if f.differ != 1 {
		t.Errorf("differ = %d, want 1", f.differ)
	}
}

// BENCHMARK.json at the root is generated from the tables in
// metrics.go; the two must not drift apart.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", manifest(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifest()) {
		t.Error("BENCHMARK.json differs from manifest(); regenerate it with: go test -run TestManifest -update")
	}
	names := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if names[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		names[d.name] = true
	}
	if _, err := withUnits(endToEnd, map[string]float64{"setup_s": 1}, false); err == nil {
		t.Error("an unmeasured end-to-end metric went unnoticed")
	}
}
