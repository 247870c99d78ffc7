// Baseline regression gate: diff a finished sweep against a committed
// baseline file and report every deterministic metric that regressed
// beyond a tolerance — the step that turns a CI "bench smoke" into a
// real gate.
//
// Three baseline shapes are understood:
//
//   - dmsweep -json output ({"sweep": ..., "rows": [...]}) — rows match
//     on (variant, m, n, s);
//   - BENCH_compile.json ({"bench": "BenchmarkCompileScaling",
//     "results": [{"name": "synth/s=4", "dpcost": ..., "segments":
//     ...}]}) — synth rows match the production-engine compile rows at
//     the config's (m, n);
//   - BENCH_exec.json ({"bench": "dmsweep -sweep exec ...", "results":
//     [{"prog": ..., "simtime": ...}]}) — rows match the batched arm at
//     the config's (m, n).
//
// Wall-clock metrics (anything named *_ns, *wall*, or speedup/ratio)
// are never compared: they are machine-dependent. Everything else in
// the simulator is deterministic, so the default tolerance can be
// tight.
package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Regression is one metric that got worse than the baseline allows.
type Regression struct {
	Row    string // "variant m=.. n=.. [s=..]"
	Metric string
	Base   float64
	Cur    float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s %s: %.6g -> %.6g", r.Row, r.Metric, r.Base, r.Cur)
}

// baseRow is one normalized baseline row.
type baseRow struct {
	variant string
	m, n, s int
	metrics map[string]float64
}

// Compare diffs the result against the baseline file. It returns the
// regressions (current > baseline*(1+tol)), plus notes for baseline
// rows the sweep did not produce (grid mismatch — reported, not fatal).
func Compare(baselinePath string, res *Result, tol float64) (regs []Regression, notes []string, err error) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, nil, fmt.Errorf("baseline: %w", err)
	}
	base, err := parseBaseline(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	cur := map[string]map[string]float64{}
	for _, row := range res.Rows {
		cur[rowID(row.Variant, row.M, row.N, row.S)] = row.Metrics
	}
	matched := 0
	for _, b := range base {
		id := rowID(b.variant, b.m, b.n, b.s)
		got, ok := cur[id]
		if !ok {
			notes = append(notes, fmt.Sprintf("baseline row %s not in this sweep's grid; skipped", id))
			continue
		}
		matched++
		for metric, baseVal := range b.metrics {
			curVal, ok := got[metric]
			if !ok {
				continue
			}
			if curVal > baseVal*(1+tol)+1e-9 {
				regs = append(regs, Regression{Row: id, Metric: metric, Base: baseVal, Cur: curVal})
			}
		}
	}
	if matched == 0 {
		return nil, notes, fmt.Errorf("baseline %s: no baseline row matches this sweep (kinds or grids disagree)", baselinePath)
	}
	return regs, notes, nil
}

func rowID(variant string, m, n, s int) string {
	id := fmt.Sprintf("%s m=%d n=%d", variant, m, n)
	if s != 0 {
		id += fmt.Sprintf(" s=%d", s)
	}
	return id
}

// comparable reports whether a metric is deterministic (gateable).
func comparable(name string) bool {
	l := strings.ToLower(name)
	if strings.HasSuffix(l, "_ns") || strings.Contains(l, "wall") ||
		strings.Contains(l, "speedup") || strings.Contains(l, "ratio") {
		return false
	}
	return true
}

func parseBaseline(raw []byte) ([]baseRow, error) {
	var probe struct {
		Sweep   string           `json:"sweep"`
		Bench   string           `json:"bench"`
		Rows    []JSONRow        `json:"rows"`
		Results []map[string]any `json:"results"`
		Config  struct {
			M int `json:"m"`
			N int `json:"n"`
		} `json:"config"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, fmt.Errorf("not a JSON baseline: %v", err)
	}
	switch {
	case probe.Rows != nil:
		var out []baseRow
		for _, r := range probe.Rows {
			metrics := map[string]float64{}
			for k, v := range r.Metrics {
				if comparable(k) {
					metrics[k] = v
				}
			}
			out = append(out, baseRow{variant: r.Variant, m: r.M, n: r.N, s: r.S, metrics: metrics})
		}
		return out, nil
	case strings.Contains(probe.Bench, "CompileScaling"):
		return parseBenchCompile(probe.Results, probe.Config.M, probe.Config.N)
	case strings.Contains(probe.Bench, "scale"):
		return parseBenchScale(probe.Results, probe.Config.M)
	case strings.Contains(probe.Bench, "exec"):
		return parseBenchExec(probe.Results, probe.Config.M, probe.Config.N)
	default:
		return nil, fmt.Errorf("unrecognized baseline shape (want dmsweep -json output, BENCH_compile.json, or BENCH_exec.json)")
	}
}

// parseBenchCompile maps BENCH_compile.json results onto compile-sweep
// rows: "synth/s=K" gates the production engine's (analytic) row at the
// config's (m, n) on dpcost (-> mincost) and segments. Non-synthetic
// entries (gauss/jacobi/sor compile timings) have no compile-sweep row
// and are dropped here; Compare never sees them.
func parseBenchCompile(results []map[string]any, m, n int) ([]baseRow, error) {
	var out []baseRow
	for _, r := range results {
		name, _ := r["name"].(string)
		var s int
		if _, err := fmt.Sscanf(name, "synth/s=%d", &s); err != nil {
			continue
		}
		metrics := map[string]float64{}
		if v, ok := num(r["dpcost"]); ok {
			metrics["mincost"] = v
		}
		if v, ok := num(r["segments"]); ok {
			metrics["segments"] = v
		}
		out = append(out, baseRow{variant: "analytic", m: m, n: n, s: s, metrics: metrics})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no synth/s=K entries in compile bench baseline")
	}
	return out, nil
}

// parseBenchExec maps BENCH_exec.json results onto the batched arm of
// the exec sweep at the config's (m, n).
func parseBenchExec(results []map[string]any, m, n int) ([]baseRow, error) {
	rename := map[string]string{
		"simtime":            "simtime",
		"naive_messages":     "messages",
		"words":              "words",
		"transport_messages": "transport_messages",
		"transport_words":    "transport_words",
		"max_msg_words":      "max_msg_words",
		"max_pair_messages":  "max_pair_messages",
		"max_pair_words":     "max_pair_words",
	}
	var out []baseRow
	for _, r := range results {
		prog, _ := r["prog"].(string)
		if prog == "" {
			continue
		}
		metrics := map[string]float64{}
		for from, to := range rename {
			if v, ok := num(r[from]); ok {
				metrics[to] = v
			}
		}
		out = append(out, baseRow{variant: prog + "/batched", m: m, n: n, metrics: metrics})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no prog entries in exec bench baseline")
	}
	return out, nil
}

// parseBenchScale maps BENCH_scale.json results onto scale-sweep rows:
// each result carries its own prog and n (the family spans many
// processor counts); m comes from the config. Wall-clock fields
// (wall_ns, sim_ns, speedup) are in the file for documentation but are
// filtered by comparable() like every other ephemeral column.
func parseBenchScale(results []map[string]any, m int) ([]baseRow, error) {
	var out []baseRow
	for _, r := range results {
		prog, _ := r["prog"].(string)
		nv, ok := num(r["n"])
		if prog == "" || !ok {
			continue
		}
		metrics := map[string]float64{}
		for k, v := range r {
			if k == "prog" || k == "n" || !comparable(k) {
				continue
			}
			if f, ok := num(v); ok {
				metrics[k] = f
			}
		}
		out = append(out, baseRow{variant: prog, m: m, n: int(nv), metrics: metrics})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no prog/n entries in scale bench baseline")
	}
	return out, nil
}

func num(v any) (float64, bool) {
	f, ok := v.(float64)
	return f, ok
}
