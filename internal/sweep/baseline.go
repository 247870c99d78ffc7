// Baseline regression gate: diff a finished sweep against a committed
// baseline file and report every metric that got worse — the step that
// turns a CI "bench smoke" into a real gate.
//
// A baseline is the document the tool emits: dmsweep -json / dmload
// -json output ({"sweep": ..., "rows": [...]}), rows matched on
// (variant, m, n, s). That document carries only deterministic metrics
// (wall-clock columns live in Row.Wall and are never serialized), so
// every metric in a baseline is compared, exactly.
package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
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

// Compare diffs the result against the baseline file. It returns the
// regressions (current above baseline), in baseline row order and by
// metric name within a row, plus notes for baseline
// rows the sweep did not produce (grid mismatch — reported, not fatal).
func Compare(baselinePath string, res *Result) (regs []Regression, notes []string, err error) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, nil, fmt.Errorf("baseline: %w", err)
	}
	var base JSONOutput
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, nil, fmt.Errorf("baseline %s: not a JSON baseline: %v", baselinePath, err)
	}
	if base.Rows == nil {
		return nil, nil, fmt.Errorf("baseline %s: no \"rows\" (want dmsweep -json / dmload -json output)", baselinePath)
	}
	cur := map[string]map[string]float64{}
	for _, row := range res.Rows {
		cur[rowID(row.Variant, row.M, row.N, row.S)] = row.Metrics
	}
	matched := 0
	for _, b := range base.Rows {
		id := rowID(b.Variant, b.M, b.N, b.S)
		got, ok := cur[id]
		if !ok {
			notes = append(notes, fmt.Sprintf("baseline row %s not in this sweep's grid; skipped", id))
			continue
		}
		matched++
		metrics := make([]string, 0, len(b.Metrics))
		for metric := range b.Metrics {
			metrics = append(metrics, metric)
		}
		sort.Strings(metrics) // a row's regressions in name order
		for _, metric := range metrics {
			curVal, ok := got[metric]
			if ok && curVal > b.Metrics[metric]+1e-9 {
				regs = append(regs, Regression{Row: id, Metric: metric, Base: b.Metrics[metric], Cur: curVal})
			}
		}
	}
	if matched == 0 {
		return nil, notes, fmt.Errorf("baseline %s: no baseline row matches this sweep (kinds or grids disagree)", baselinePath)
	}
	return regs, notes, nil
}

// Gate is the -baseline flag of dmsweep and dmload: Compare, with the
// notes and the verdict written to w under the command's name. ok is
// false when a metric regressed.
func Gate(w io.Writer, cmd, baselinePath string, res *Result) (ok bool, err error) {
	regs, notes, err := Compare(baselinePath, res)
	if err != nil {
		return false, err
	}
	for _, note := range notes {
		fmt.Fprintf(w, "%s: %s\n", cmd, note)
	}
	if len(regs) > 0 {
		fmt.Fprintf(w, "%s: %d regression(s) vs %s:\n", cmd, len(regs), baselinePath)
		for _, r := range regs {
			fmt.Fprintf(w, "%s:   %s\n", cmd, r)
		}
		return false, nil
	}
	fmt.Fprintf(w, "%s: baseline %s: no regressions\n", cmd, baselinePath)
	return true, nil
}

func rowID(variant string, m, n, s int) string {
	id := fmt.Sprintf("%s m=%d n=%d", variant, m, n)
	if s != 0 {
		id += fmt.Sprintf(" s=%d", s)
	}
	return id
}
