// Command bench is the repository's benchmark: six closed-loop
// workloads over the compile, exec and serve paths, measured end to end
// with tracing off and, in a separate traced run, layer by layer from
// outside the program. See README.md in this directory.
//
// It runs from the root of the checkout (bench/run.sh builds it and
// starts it there):
//
//	bash bench/run.sh                       every workload, untraced then traced
//	bash bench/run.sh -workload exec-gauss  one workload, end-to-end metrics
//	bash bench/run.sh -workload exec-gauss -trace 1
//	bash bench/run.sh -aa 5                 repeatability check
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	aa       int
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this workload in this process (default: every workload, a fresh process each)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "nominal length of the timed window")
	fs.IntVar(&o.trace, "trace", 0, "1: the traced run (per-layer metrics and stage tables); 0: end-to-end metrics")
	fs.IntVar(&o.aa, "aa", 0, "run every workload this many times in fresh processes and compare the runs with each other")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds <= 0 || o.trace < 0 || o.trace > 1 || o.aa < 0 || o.aa == 1 {
		fmt.Fprintln(stderr, "bench: bad arguments; -h lists the flags (-aa needs at least 2 runs)")
		return 2
	}
	var err error
	switch {
	case o.aa > 0:
		err = runAA(o, stdout, stderr)
	case o.workload == "":
		err = runAll(o, stdout, stderr)
	default:
		err = runOne(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// newWorkload builds a workload by name; tr is the traced run's
// recorder, nil for the untraced run.
func newWorkload(name string, tr *tracer) (workload, error) {
	switch name {
	case "compile-synth":
		return &compileSynth{}, nil
	case "compile-kernels":
		return &compileKernels{}, nil
	case "exec-gauss":
		return &execWorkload{suite: execGaussSuite, rate: 14}, nil
	case "exec-scale":
		return &execWorkload{suite: execScaleSuite, rate: 12}, nil
	case "serve-cost":
		return &serveCost{serveRun{tr: tr}}, nil
	case "serve-mixed":
		return &serveMixed{serveRun: serveRun{tr: tr}}, nil
	}
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// resultLine is the last line a single run prints: the verdict and the
// metrics of the run's kind.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runReport is everything a single run has to say; the parent process
// of an all-workloads or -aa run reads it from the "detail" line.
type runReport struct {
	Workload  string  `json:"workload"`
	Trace     int     `json:"trace"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Ops       int     `json:"ops"`
	Truncated bool    `json:"truncated,omitempty"`
	// TailQuantile is the highest quantile the op count supports with
	// ten samples beyond it, and SamplesBeyondP90 the samples beyond the
	// reported one.
	TailQuantile     float64 `json:"tail_quantile"`
	SamplesBeyondP90 int     `json:"samples_beyond_p90"`
	// Raw are the timings before host normalisation, and Yard the
	// yardstick's p10, p50 and p90 over the run.
	Raw       map[string]float64 `json:"raw"`
	Yard      [3]float64         `json:"yard_ms"`
	Notes     []string           `json:"notes,omitempty"`
	TracedOps int                `json:"traced_ops,omitempty"`
	Stages    []stageRow         `json:"stages,omitempty"`
	Layers    []stageRow         `json:"layers,omitempty"`
	Result    resultLine         `json:"result"`
}

// runOne measures one workload in this process and prints its metrics,
// the detail line and, last, the result line.
func runOne(o options, stdout, stderr io.Writer) error {
	runtime.GOMAXPROCS(benchProcs)
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	w, err := newWorkload(o.workload, tr)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var res *runResult
	if tr == nil {
		res, err = measure(w, o.seed, o.seconds)
	} else {
		res, err = measureTraced(w, tr, o.seed, o.seconds)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	rep, err := report(o, res)
	if err != nil {
		return err
	}
	if tr != nil {
		if err := writeSpans(filepath.Join(outDir, "trace-"+o.workload+".jsonl"), tr.spans); err != nil {
			return err
		}
	}
	if res.win.firstErr != nil {
		fmt.Fprintln(stderr, "bench: first failed op:", res.win.firstErr)
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(stderr, "bench:", n)
	}
	rep.print(stdout)
	for _, line := range []struct {
		prefix string
		v      any
	}{{"detail ", rep}, {"", rep.Result}} {
		blob, err := json.Marshal(line.v)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s%s\n", line.prefix, blob)
	}
	return nil
}

// report turns a run's measurements into its report.
func report(o options, res *runResult) (*runReport, error) {
	yards := sorted(res.win.yardsMS)
	raw := sorted(res.win.rawMS)
	rep := &runReport{
		Workload: o.workload, Trace: o.trace, Seed: o.seed, Seconds: o.seconds,
		Ops: res.win.ops, Truncated: res.win.truncated,
		TailQuantile: tailQuantile(res.win.ops), SamplesBeyondP90: samplesBeyond(res.win.ops, 0.9),
		Raw: map[string]float64{
			"setup_s":               res.setupRaw,
			"op_p50_norm_ms":        percentile(raw, 0.5),
			"op_p90_norm_ms":        percentile(raw, 0.9),
			"throughput_norm_ops_s": throughput(res.win.rawMS),
		},
		Yard:  [3]float64{percentile(yards, 0.1), percentile(yards, 0.5), percentile(yards, 0.9)},
		Notes: res.out.notes,
		Result: resultLine{
			Correct:   res.failedOps() == 0,
			Attempted: res.attempted(),
			Failed:    res.failedOps(),
		},
	}
	if res.win.truncated {
		rep.Notes = append(rep.Notes, fmt.Sprintf("the window was cut at %d ops by the wall cap of %.1f x %g s", res.win.ops, windowCapFactor, o.seconds))
	}
	var err error
	if res.tracer == nil {
		rep.Result.Metrics, err = withUnits(endToEnd, res.endToEndMetrics(), false)
		return rep, err
	}
	rep.TracedOps = res.tracedOps
	rep.Stages = stageTable(res.tracer.spans, func(n string) string { return n })
	rep.Layers = stageTable(res.tracer.spans, layerOf)
	// A layer the workload does not run has no value: it reads 0.
	rep.Result.Metrics, err = withUnits(perLayer, res.layers, true)
	return rep, err
}

// print writes every metric as "name value unit", then, for a traced
// run, the stage tables.
func (r *runReport) print(w io.Writer) {
	kind, defs := "end-to-end", endToEnd
	if r.Trace == 1 {
		kind, defs = "per-layer", perLayer
	}
	fmt.Fprintf(w, "== %s  %s  seed %d  %d ops", r.Workload, kind, r.Seed, r.Ops)
	if r.Trace == 0 {
		fmt.Fprintf(w, "  (%d samples beyond p90; yardstick p10/p50/p90 %.2f/%.2f/%.2f ms)", r.SamplesBeyondP90, r.Yard[0], r.Yard[1], r.Yard[2])
	} else {
		fmt.Fprintf(w, " untraced, %d traced", r.TracedOps)
	}
	fmt.Fprintln(w)
	for _, d := range defs {
		m := r.Result.Metrics[d.name]
		fmt.Fprintf(w, "%-34s %s %s", d.name, formatValue(m.Value), m.Unit)
		if raw, ok := r.Raw[d.name]; ok && r.Trace == 0 {
			fmt.Fprintf(w, "   (raw %s)", formatValue(raw))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-34s %d of %d\n", "failed", r.Result.Failed, r.Result.Attempted)
	if r.Trace == 1 {
		printStageTable(w, "stage table by span, "+r.Workload, r.Stages, r.TracedOps)
		printStageTable(w, "stage table by layer, "+r.Workload, r.Layers, r.TracedOps)
	}
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// ------------------------------------------------- fresh-process runs --

// fingerprint says where and on what a result document was measured.
type fingerprint struct {
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	YardRefMS  float64 `json:"yard_ref_ms"`
}

func newFingerprint(o options) fingerprint {
	fp := fingerprint{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: benchProcs,
		CPUModel: "unknown", Commit: "unknown", Seed: o.seed, Seconds: o.seconds, YardRefMS: yardRefMS,
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				fp.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	// The commit is what the Go toolchain stamped into the binary; a
	// checkout that is not a git repository has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					fp.Commit += "+modified"
				}
			}
		}
	}
	return fp
}

// spawn runs one workload in a fresh process of this binary, passes its
// output through and returns its report.
func spawn(o options, workload string, trace int, seed int64, stdout, stderr io.Writer) (*runReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	var rep *runReport
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "detail "); ok {
			rep = &runReport{}
			if err := json.Unmarshal([]byte(rest), rep); err != nil {
				return nil, fmt.Errorf("%s: reading the run's detail line: %w", workload, err)
			}
			continue
		}
		if stdout != nil && !strings.HasPrefix(line, "{") {
			fmt.Fprintln(stdout, line)
		}
	}
	if rep == nil {
		return nil, fmt.Errorf("%s: the run printed no detail line", workload)
	}
	return rep, nil
}

// runAll runs every workload, untraced and then traced, a fresh process
// each, prints every metric and writes the result document.
func runAll(o options, stdout, stderr io.Writer) error {
	doc := struct {
		Fingerprint fingerprint  `json:"fingerprint"`
		Runs        []*runReport `json:"runs"`
	}{Fingerprint: newFingerprint(o)}
	failed := 0
	for _, trace := range []int{0, 1} {
		if o.trace == 1 && trace == 0 {
			continue
		}
		for _, w := range workloadDefs {
			rep, err := spawn(o, w.name, trace, o.seed, stdout, stderr)
			if err != nil {
				return err
			}
			doc.Runs = append(doc.Runs, rep)
			failed += rep.Result.Failed
		}
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%s, %d cpus, %s, commit %s)\n", path, doc.Fingerprint.GoVersion, doc.Fingerprint.NProc, doc.Fingerprint.CPUModel, doc.Fingerprint.Commit)
	if failed > 0 {
		return fmt.Errorf("%d failed ops or checks", failed)
	}
	return nil
}
