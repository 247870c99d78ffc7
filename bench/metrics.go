package main

import (
	"encoding/json"
	"fmt"
)

// metricDef declares one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change is a regression; per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// runSeconds is the nominal timed window of one run. Each workload's
// opsPerSecond turns it into a fixed op count, sized so that the window,
// yardsticks included, lasts about that long on the reference host
// (yardstick = yardRefMS).
const runSeconds = 10

// benchProcs is the GOMAXPROCS every measured process runs with. On a
// small shared host the availability of the second core moves by tens
// of percent over minutes, and a yardstick on one goroutine cannot see
// it: compile-synth, whose Compile fans out over all cores, repeated
// its median op time to 9-33% between runs with both cores and to 2-3%
// with one. The benchmark therefore measures what an op costs on one
// core; core.parallel_speedup in the traced run says what the others
// add.
const benchProcs = 1

// workloadDefs name the six loads and why each exists.
var workloadDefs = []struct{ name, why string }{
	{"compile-synth", "fresh Compile of three Synthetic(s) programs: DP volume (SegmentCost cells, ChangeCost pairs) on 1-D nests; core/cost/dist/align do the work"},
	{"compile-kernels", "parse, PlanFor, Freeze, JSON, Thaw, EvalAt on gauss/jacobi/sor: triangular closed forms and polynomial fits, a DP of 1-2 segments"},
	{"exec-gauss", "exec.Run of Gauss m=32 N=16: inspector and single-threaded replay dominate, the machine is the smaller part of the run"},
	{"exec-scale", "exec.Run of jacobi N=1024: the event machine is four fifths of the run, the opposite profile of exec-gauss"},
	{"serve-cost", "GET /cost at never-repeated sizes over loopback: the read path with EvalAt paid every time, the memo bypassed"},
	{"serve-mixed", "70% GET /cost (half memo-hot), 15% plan migration, 15% warm POST /compile: writes beside reads on the same daemon"},
}

// endToEnd are the metrics a user of dmcc, dmsweep or dmccd sees. The
// timing bounds are about three times the spread that ten runs of the
// same code showed on the host the benchmark was sized on (README,
// "Repeatability"); modelled_cost is exact, and its bound only has to be
// above floating-point summation order.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_norm_ms", "ms", "lower", 0.15},
	{"op_p90_norm_ms", "ms", "lower", 0.20},
	{"throughput_norm_ops_s", "ops/s", "higher", 0.15},
	{"rss_p90_mb", "MB", "lower", 0.10},
	{"modelled_cost", "cost", "lower", 1e-6},
}

// perLayer are the traced run's metrics, grouped by the module whose
// public functions the harness timed.
var perLayer = []metricDef{
	{name: "parse.parse_us", unit: "us", better: "lower"},
	{name: "parse.stmts", unit: "count", better: "lower"},
	{name: "ir.validate_us", unit: "us", better: "lower"},
	{name: "ir.eval_ms", unit: "ms", better: "lower"},
	{name: "align.graph_us", unit: "us", better: "lower"},
	{name: "align.exact_us", unit: "us", better: "lower"},
	{name: "dep.pipeline_us", unit: "us", better: "lower"},
	{name: "dist.redist_loads_us", unit: "us", better: "lower"},
	{name: "dist.redist_loads_calls", unit: "count", better: "lower"},
	{name: "dist.redist_scaled_us", unit: "us", better: "lower"},
	{name: "cost.count_nest_us", unit: "us", better: "lower"},
	{name: "cost.count_nest_exact_us", unit: "us", better: "lower"},
	{name: "cost.engine_analytic_hits", unit: "count", better: "higher"},
	{name: "cost.engine_fastwalk_fallbacks", unit: "count", better: "lower"},
	{name: "cost.engine_exact_fallbacks", unit: "count", better: "lower"},
	{name: "cost.analytic_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.segment_cost_ms", unit: "ms", better: "lower"},
	{name: "core.segment_cost_calls", unit: "count", better: "lower"},
	{name: "core.segment_cost_distinct", unit: "count", better: "lower"},
	{name: "core.change_cost_ms", unit: "ms", better: "lower"},
	{name: "core.change_cost_calls", unit: "count", better: "lower"},
	{name: "core.change_cost_distinct", unit: "count", better: "lower"},
	{name: "core.loop_carried_ms", unit: "ms", better: "lower"},
	{name: "core.dp_self_ms", unit: "ms", better: "lower"},
	{name: "core.compile_ms", unit: "ms", better: "lower"},
	{name: "core.compile_serial_ms", unit: "ms", better: "lower"},
	{name: "core.parallel_speedup", unit: "ratio", better: "higher"},
	{name: "core.compile_ms.s4", unit: "ms", better: "lower"},
	{name: "core.compile_ms.s8", unit: "ms", better: "lower"},
	{name: "core.compile_ms.s16", unit: "ms", better: "lower"},
	{name: "core.segments", unit: "count", better: "lower"},
	{name: "core.new_evaluator_ms", unit: "ms", better: "lower"},
	{name: "core.fit_ms", unit: "ms", better: "lower"},
	{name: "core.fit_floor_ratio", unit: "ratio", better: "lower"},
	{name: "core.freeze_us", unit: "us", better: "lower"},
	{name: "core.thaw_us", unit: "us", better: "lower"},
	{name: "core.plan_bytes", unit: "bytes", better: "lower"},
	{name: "core.evalat_ns", unit: "ns", better: "lower"},
	{name: "core.evalat_numeric_ms", unit: "ms", better: "lower"},
	{name: "sweep.planfor_cold_ms", unit: "ms", better: "lower"},
	{name: "sweep.planfor_warm_ms", unit: "ms", better: "lower"},
	{name: "exec.run_ms", unit: "ms", better: "lower"},
	{name: "exec.sim_ms", unit: "ms", better: "lower"},
	{name: "exec.outside_sim_ms", unit: "ms", better: "lower"},
	{name: "exec.outside_sim_share", unit: "ratio", better: "lower"},
	{name: "exec.naive_msgs", unit: "count", better: "lower"},
	{name: "exec.naive_words", unit: "count", better: "lower"},
	{name: "exec.transport_msgs", unit: "count", better: "lower"},
	{name: "exec.transport_words", unit: "count", better: "lower"},
	{name: "exec.max_pair_words", unit: "count", better: "lower"},
	{name: "exec.word_ratio", unit: "ratio", better: "lower"},
	{name: "exec.alloc_mb_per_run", unit: "MB", better: "lower"},
	{name: "machine.sim_time", unit: "cost", better: "lower"},
	{name: "machine.host_us_per_msg", unit: "us", better: "lower"},
	{name: "machine.event_ring_us_per_hop", unit: "us", better: "lower"},
	{name: "machine.goroutine_ring_us_per_hop", unit: "us", better: "lower"},
	{name: "artifact.put_us", unit: "us", better: "lower"},
	{name: "artifact.get_hit_us", unit: "us", better: "lower"},
	{name: "artifact.get_miss_us", unit: "us", better: "lower"},
	{name: "artifact.getorcompute_hit_us", unit: "us", better: "lower"},
	{name: "artifact.hits", unit: "count", better: "higher"},
	{name: "artifact.misses", unit: "count", better: "lower"},
	{name: "artifact.puts", unit: "count", better: "lower"},
	{name: "serve.healthz_rtt_us", unit: "us", better: "lower"},
	{name: "serve.cost_rtt_us", unit: "us", better: "lower"},
	{name: "serve.cost_rtt_p99_us", unit: "us", better: "lower"},
	{name: "serve.cost_handler_us", unit: "us", better: "lower"},
	{name: "serve.cost_server_p50_us", unit: "us", better: "lower"},
	{name: "serve.cost_evalns_p50", unit: "ns", better: "lower"},
	{name: "serve.compile_warm_us", unit: "us", better: "lower"},
	{name: "serve.compile_cold_ms", unit: "ms", better: "lower"},
	{name: "serve.plan_get_us", unit: "us", better: "lower"},
	{name: "serve.plan_install_us", unit: "us", better: "lower"},
	{name: "serve.reply_bytes", unit: "bytes", better: "lower"},
	{name: "serve.cost_evals", unit: "count", better: "lower"},
	{name: "serve.compiles", unit: "count", better: "lower"},
	{name: "serve.compile_hits", unit: "count", better: "higher"},
	{name: "serve.plan_thaws", unit: "count", better: "lower"},
	{name: "serve.non2xx", unit: "count", better: "lower"},
	{name: "host.yard_p50_ms", unit: "ms", better: "lower"},
	{name: "host.yard_p10_ms", unit: "ms", better: "lower"},
	{name: "host.yard_p90_ms", unit: "ms", better: "lower"},
	{name: "host.speed_factor", unit: "ratio", better: "higher"},
	{name: "host.op_p50_raw_ms", unit: "ms", better: "lower"},
	{name: "host.op_p90_raw_ms", unit: "ms", better: "lower"},
	{name: "host.throughput_raw_ops_s", unit: "ops/s", better: "higher"},
	{name: "host.cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "host.allocs_per_op", unit: "count", better: "lower"},
	{name: "host.alloc_kb_per_op", unit: "kB", better: "lower"},
	{name: "host.gc_cycles_per_op", unit: "count", better: "lower"},
	{name: "host.gc_pause_us_per_op", unit: "us", better: "lower"},
	{name: "host.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "host.ops", unit: "count", better: "higher"},
	{name: "host.traced_ops", unit: "count", better: "higher"},
	{name: "host.nproc", unit: "count", better: "higher"},
	{name: "host.setup_s", unit: "s", better: "lower"},
	{name: "host.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "host.failed_frac", unit: "ratio", better: "lower"},
	{name: "host.nondeterministic_frac", unit: "ratio", better: "lower"},
}

// perLayerNames is the set of declared per-layer metrics.
var perLayerNames = func() map[string]bool {
	names := make(map[string]bool, len(perLayer))
	for _, m := range perLayer {
		names[m.name] = true
	}
	return names
}()

// manifest renders BENCHMARK.json from the tables above, so the file at
// the repository root and the driver can never disagree (a unit test
// compares them byte for byte).
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(out, '\n')
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits pairs measured values with the declared units, and fails
// on a declared metric that was not measured.
func withUnits(defs []metricDef, values map[string]float64, allowMissing bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !allowMissing {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{v, d.unit}
	}
	return out, nil
}
