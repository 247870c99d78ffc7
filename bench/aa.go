package main

import (
	"fmt"
	"io"
)

// hostUnstableRatio is the yardstick p90/p10 ratio above which a run is
// not compared with the others: the host changed speed inside the run
// by more than the normalisation is trusted to cancel.
const hostUnstableRatio = 2.0

// runAA is the repeatability check: every workload runs k times in
// fresh processes of the same binary, seeds seed..seed+k-1 (what the
// acceptance procedure of the benchmark's contract does with ten), and
// each end-to-end metric's relative range over the runs is held against
// the metric's bound. The raw (not host-normalised) range is printed
// beside it, to show what the yardstick removes. A breach, a failed op
// or a truncated window is an error.
func runAA(o options, stdout, stderr io.Writer) error {
	breaches := 0
	for _, w := range workloadDefs {
		var reps []*runReport
		for i := 0; i < o.aa; i++ {
			rep, err := spawn(o, w.name, 0, o.seed+int64(i), nil, stderr)
			if err != nil {
				return err
			}
			ratio := rep.Yard[2] / rep.Yard[0]
			fmt.Fprintf(stdout, "%s run %d/%d seed %d: %d ops, yardstick p90/p10 %.2f", w.name, i+1, o.aa, rep.Seed, rep.Ops, ratio)
			switch {
			case rep.Result.Failed > 0 || rep.Truncated:
				breaches++
				fmt.Fprintf(stdout, "  FAILED (%d failed of %d, truncated=%v)\n", rep.Result.Failed, rep.Result.Attempted, rep.Truncated)
			case ratio > hostUnstableRatio:
				fmt.Fprintln(stdout, "  host unstable, run left out")
			default:
				fmt.Fprintln(stdout)
				reps = append(reps, rep)
			}
		}
		if len(reps) < 2 {
			breaches++
			fmt.Fprintf(stdout, "%s: fewer than two comparable runs\n", w.name)
			continue
		}
		fmt.Fprintf(stdout, "%-26s %12s %9s %9s %9s %7s\n", w.name, "median", "range", "IQR", "raw range", "bound")
		for _, d := range endToEnd {
			var norm, raw []float64
			for _, rep := range reps {
				norm = append(norm, rep.Result.Metrics[d.name].Value)
				if v, ok := rep.Raw[d.name]; ok {
					raw = append(raw, v)
				}
			}
			rawRange := "-"
			if len(raw) == len(norm) {
				rawRange = fmt.Sprintf("%.2f%%", 100*relRange(raw))
			}
			verdict := ""
			if relRange(norm) > d.bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Fprintf(stdout, "  %-24s %12s %8.2f%% %8.2f%% %9s %6.1f%%%s\n", d.name, formatValue(median(norm)),
				100*relRange(norm), 100*iqrShare(norm), rawRange, 100*d.bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d breaches", breaches)
	}
	return nil
}
