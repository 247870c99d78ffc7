package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Load shape shared by every workload: one closed-loop caller, program
// options at their defaults, and a fixed op count per nominal second so
// two commits do identical work.
const (
	// setupReps is how often a run sets the workload up; setup_s is the
	// median, and the last set-up serves the timed window.
	setupReps = 5
	// warmupOps are run untimed at the end of every set-up.
	warmupOps = 5
	// windowCapFactor bounds the timed window at this multiple of the
	// nominal seconds: a host several times slower than the reference
	// reports the ops it finished instead of overrunning the driver.
	windowCapFactor = 2.2
	// opListLen is how many distinct op inputs a set-up generates; a
	// window longer than that cycles through them again.
	opListLen = 512
	// tracedWindowShare is the part of the nominal seconds the traced
	// run spends on its untraced reference window (the source of the
	// host.* counters and of the wall the traced ops are compared with).
	tracedWindowShare = 0.25
)

// workload is one closed-loop load. The runner owns timing and
// normalisation; the workload owns inputs, the op and its checks.
type workload interface {
	// setup derives every input from the seed and brings the system to
	// the state the first timed op expects, warm-up ops included. It is
	// called setupReps times with teardown in between.
	setup(seed int64) error
	teardown()
	// batch is the number of ops between two yardstick runs, and
	// opsPerSecond the op count that fills one nominal second.
	batch() int
	opsPerSecond() float64
	// op runs timed op i (0-based). after runs right behind it, outside
	// the timed interval: digests and bookkeeping the user of the
	// program would not pay for.
	op(i int) error
	after(i int)
	// finish runs behind the timed window of n ops: it totals the
	// modelled cost, compares repeated inputs' results and verifies
	// outputs against the independent oracles.
	finish(n int) (outcome, error)

	// tracedOps is how many ops the traced run decomposes, and tracedOp
	// runs op i as spans around the public calls it is made of; the
	// runner has opened the op's root span.
	tracedOps() int
	tracedOp(i int, tr *tracer) error
	// layers computes the workload's per-layer metrics from the recorded
	// spans and from probes of its own; metrics of layers the workload
	// does not run stay 0.
	layers(lc *layerContext) error
}

// outcome is what a workload found out about its own results.
type outcome struct {
	modelledCost     float64
	nondeterministic int // timed ops whose result differed from the first for that input
	verifyFailed     int // oracle checks that failed
	verifyChecked    int
	notes            []string
}

// hostCounters are process-wide counters sampled around the ops of a
// window (yardstick time excluded).
type hostCounters struct {
	cpuMS, mallocs, allocKB, gcCycles, gcPauseUS float64
}

func readHost() hostCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	cpu := float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
	return hostCounters{cpu, float64(ms.Mallocs), float64(ms.TotalAlloc) / 1024, float64(ms.NumGC), float64(ms.PauseTotalNs) / 1e3}
}

func (a *hostCounters) addDelta(before, after hostCounters) {
	a.cpuMS += after.cpuMS - before.cpuMS
	a.mallocs += after.mallocs - before.mallocs
	a.allocKB += after.allocKB - before.allocKB
	a.gcCycles += after.gcCycles - before.gcCycles
	a.gcPauseUS += after.gcPauseUS - before.gcPauseUS
}

// window is one measured sequence of ops.
type window struct {
	ops           int
	rawMS         []float64 // per op
	normMS        []float64 // per op, host-normalised
	yardsMS       []float64 // one per batch boundary: len = batches + 1
	rssMB, liveMB []float64
	errs          int
	firstErr      error
	host          hostCounters
	truncated     bool
}

// runWindow times n ops in batches bracketed by yardstick runs. run
// executes op i and whatever bookkeeping follows it untimed; it returns
// the op's wall time. With hostStats the process counters are sampled
// around every batch, which costs a stop-the-world each and is
// therefore left out of the run that reports end-to-end numbers.
func runWindow(n, batch int, capMS float64, hostStats bool, run func(i int) (rawMS float64, err error)) *window {
	win := &window{rawMS: make([]float64, 0, n)}
	start := time.Now()
	win.yardsMS = append(win.yardsMS, timeYard())
	for done := 0; done < n; {
		end := min(done+batch, n)
		var before hostCounters
		if hostStats {
			before = readHost()
		}
		for i := done; i < end; i++ {
			raw, err := run(i)
			win.rawMS = append(win.rawMS, raw)
			if err != nil {
				win.errs++
				if win.firstErr == nil {
					win.firstErr = fmt.Errorf("op %d: %w", i, err)
				}
			}
		}
		if hostStats {
			win.host.addDelta(before, readHost())
		}
		win.yardsMS = append(win.yardsMS, timeYard())
		win.rssMB = append(win.rssMB, residentMB())
		done = end
		if msSince(start) > capMS && done < n {
			win.truncated = true
			break
		}
	}
	win.ops = len(win.rawMS)
	win.normMS = normaliseWindow(win.rawMS, win.yardsMS, batch)
	return win
}

// untracedOp adapts a workload's op to runWindow.
func untracedOp(w workload) func(i int) (float64, error) {
	return func(i int) (float64, error) {
		t := time.Now()
		err := w.op(i)
		raw := msSince(t)
		w.after(i)
		return raw, err
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// throughput is ops per second of summed op time (yardstick excluded).
func throughput(opMS []float64) float64 {
	sum := 0.0
	for _, v := range opMS {
		sum += v
	}
	return float64(len(opMS)) / (sum / 1e3)
}

// runResult is everything one run measured. The traced fields are set
// by measureTraced only.
type runResult struct {
	win      *window
	setupS   float64 // median of setupReps host-normalised set-ups
	setupRaw float64
	// peakRSSMB is the resident high-water mark when the window ended.
	peakRSSMB float64
	out       outcome

	tracer    *tracer
	tracedOps int
	tracedErr int
	layers    map[string]float64
}

// attempted and failedOps are the run's verdict counts: ops that
// errored, were not reproduced, or failed an oracle check, against the
// ops and checks made.
func (r *runResult) attempted() int { return r.win.ops + r.tracedOps + r.out.verifyChecked }

func (r *runResult) failedOps() int {
	return r.win.errs + r.tracedErr + r.out.nondeterministic + r.out.verifyFailed
}

// timedSetup runs one set-up between yardsticks. A set-up is a single
// sample, so the host speed on either side of it is the median of three
// yardsticks, not one.
func timedSetup(w workload, seed int64) (normS, rawS float64, err error) {
	yards := func() float64 { return median([]float64{timeYard(), timeYard(), timeYard()}) }
	yb := yards()
	t := time.Now()
	err = w.setup(seed)
	raw := msSince(t)
	return normalise(raw, yb, yards()) / 1e3, raw / 1e3, err
}

// measure is the untraced run of one workload: set-ups, the timed
// window, peak memory, then the workload's own checks.
func measure(w workload, seed int64, seconds float64) (*runResult, error) {
	res := &runResult{}
	var norm, raw []float64
	for r := 0; r < setupReps; r++ {
		if r > 0 {
			w.teardown()
		}
		n, rw, err := timedSetup(w, seed)
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		norm, raw = append(norm, n), append(raw, rw)
	}
	defer w.teardown()
	res.setupS, res.setupRaw = median(norm), median(raw)

	res.win = runWindow(opCount(w, seconds), w.batch(), seconds*1e3*windowCapFactor, false, untracedOp(w))
	res.peakRSSMB = peakRSSMB()
	out, err := w.finish(res.win.ops)
	if err != nil {
		return nil, fmt.Errorf("checking results: %w", err)
	}
	res.out = out
	return res, nil
}

// opCount is the fixed number of timed ops for a nominal window, a
// whole number of batches.
func opCount(w workload, seconds float64) int {
	b := w.batch()
	n := int(math.Ceil(seconds * w.opsPerSecond()))
	return max((n+b-1)/b, 1) * b
}

// residentMB reads the process's current resident set size.
func residentMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	if f := strings.Fields(string(raw)); len(f) > 1 {
		pages, _ := strconv.ParseFloat(f[1], 64) // a malformed field reads as 0, like an unreadable file
		return pages * float64(os.Getpagesize()) / (1 << 20)
	}
	return 0
}

// peakRSSMB reads the process's resident high-water mark. It is set by
// whichever moment of the process had the collector furthest behind,
// often in the first set-up, and moves by a quarter between runs of the
// same code; the end-to-end memory metric is therefore the 90th
// percentile of residentMB over the timed window, and this one is
// reported beside it in the host layer.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// endToEndMetrics derives the reported end-to-end numbers.
func (r *runResult) endToEndMetrics() map[string]float64 {
	asc := sorted(r.win.normMS)
	return map[string]float64{
		"setup_s":               r.setupS,
		"op_p50_norm_ms":        percentile(asc, 0.5),
		"op_p90_norm_ms":        percentile(asc, 0.9),
		"throughput_norm_ops_s": throughput(r.win.normMS),
		"rss_p90_mb":            percentile(sorted(r.win.rssMB), 0.9),
		"modelled_cost":         r.out.modelledCost,
	}
}

// ------------------------------------------------------------ traced --

// layerContext is what a workload's layers method works with: the
// recorded spans, the host speed each traced op saw, and the metric map
// it fills.
type layerContext struct {
	spans   []span
	self    map[int]int64
	ops     int       // traced ops
	speed   []float64 // per traced op (index op_id-1): yardRefMS / local yardstick
	metrics map[string]float64
	// windowOps counts the ops of both windows, the untraced reference
	// one and the traced one; setupSpeed is the host speed the set-up saw.
	windowOps  int
	setupSpeed float64
}

// set records a per-layer metric; an undeclared name is a bug.
func (lc *layerContext) set(name string, v float64) {
	if !perLayerNames[name] {
		panic("bench: undeclared per-layer metric " + name)
	}
	lc.metrics[name] = v
}

// perOp sums, per op, the normalised time in ms of the spans of that
// name: their self time, or their whole duration.
func (lc *layerContext) perOp(name string, selfOnly bool) []float64 {
	sums := make([]float64, lc.ops)
	for i := range lc.spans {
		s := &lc.spans[i]
		if s.Name != name {
			continue
		}
		ns := s.durNS()
		if selfOnly {
			ns = lc.self[s.SpanID]
		}
		sums[s.OpID-1] += float64(ns) / 1e6 * lc.speed[s.OpID-1]
	}
	return sums
}

// opMedianMS is the median over ops of the time spent in spans of that
// name, selfMedianMS of their self time.
func (lc *layerContext) opMedianMS(name string) float64 { return median(lc.perOp(name, false)) }

func (lc *layerContext) selfMedianMS(name string) float64 { return median(lc.perOp(name, true)) }

// callsPerOp is the mean number of spans of that name per op.
func (lc *layerContext) callsPerOp(name string) float64 {
	n := 0
	for i := range lc.spans {
		if lc.spans[i].Name == name {
			n++
		}
	}
	return float64(n) / float64(lc.ops)
}

// countPerOp is the mean per op of a counter recorded on spans.
func (lc *layerContext) countPerOp(name, key string) float64 {
	var n int64
	for i := range lc.spans {
		if lc.spans[i].Name == name {
			n += lc.spans[i].Counts[key]
		}
	}
	return float64(n) / float64(lc.ops)
}

// probe times f reps times, each between two yardsticks, after one
// untimed call, and returns the median host-normalised time in ms.
func probe(reps int, f func() error) (float64, error) {
	if err := f(); err != nil {
		return 0, err
	}
	norm := make([]float64, 0, reps)
	yb := timeYard()
	for i := 0; i < reps; i++ {
		t := time.Now()
		err := f()
		raw := msSince(t)
		if err != nil {
			return 0, err
		}
		ya := timeYard()
		norm = append(norm, normalise(raw, yb, ya))
		yb = ya
	}
	return median(norm), nil
}

// measureTraced is the traced run: one set-up, a short untraced window
// with the process counters on, the decomposed ops, the workload's
// probes and its checks.
func measureTraced(w workload, tr *tracer, seed int64, seconds float64) (*runResult, error) {
	res := &runResult{tracer: tr}
	var err error
	if res.setupS, res.setupRaw, err = timedSetup(w, seed); err != nil {
		w.teardown()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer w.teardown()

	res.win = runWindow(opCount(w, seconds*tracedWindowShare), w.batch(), seconds*1e3*windowCapFactor, true, untracedOp(w))
	first := res.win.ops
	traced := runWindow(w.tracedOps(), w.batch(), seconds*1e3*windowCapFactor, false, func(i int) (float64, error) {
		tr.beginOp("op")
		err := w.tracedOp(first+i, tr)
		raw := tr.endOp()
		w.after(first + i)
		return raw, err
	})
	res.tracedOps, res.tracedErr = traced.ops, traced.errs
	if traced.firstErr != nil && res.win.firstErr == nil {
		res.win.firstErr = traced.firstErr
	}
	res.peakRSSMB = peakRSSMB()

	lc := &layerContext{spans: tr.spans, self: selfTimes(tr.spans), ops: traced.ops, metrics: map[string]float64{},
		windowOps: first + traced.ops, setupSpeed: res.setupS / res.setupRaw}
	for i := range traced.rawMS {
		lc.speed = append(lc.speed, traced.normMS[i]/traced.rawMS[i])
	}
	if err := w.layers(lc); err != nil {
		return nil, fmt.Errorf("per-layer probes: %w", err)
	}
	out, err := w.finish(first + traced.ops)
	if err != nil {
		return nil, fmt.Errorf("checking results: %w", err)
	}
	res.out = out
	res.hostLayer(lc, traced)
	res.layers = lc.metrics
	return res, nil
}

// hostLayer fills the host.* metrics: what the harness saw of the
// machine and of the process during the untraced reference window.
func (r *runResult) hostLayer(lc *layerContext, traced *window) {
	yards := sorted(append(append([]float64(nil), r.win.yardsMS...), traced.yardsMS...))
	ops := float64(r.win.ops)
	raw := sorted(r.win.rawMS)
	untraced, withSpans := median(r.win.normMS), median(traced.normMS)
	lc.set("host.yard_p10_ms", percentile(yards, 0.1))
	lc.set("host.yard_p50_ms", percentile(yards, 0.5))
	lc.set("host.yard_p90_ms", percentile(yards, 0.9))
	lc.set("host.speed_factor", yardRefMS/percentile(yards, 0.5))
	lc.set("host.op_p50_raw_ms", percentile(raw, 0.5))
	lc.set("host.op_p90_raw_ms", percentile(raw, 0.9))
	lc.set("host.throughput_raw_ops_s", throughput(r.win.rawMS))
	lc.set("host.cpu_ms_per_op", r.win.host.cpuMS/ops)
	lc.set("host.allocs_per_op", r.win.host.mallocs/ops)
	lc.set("host.alloc_kb_per_op", r.win.host.allocKB/ops)
	lc.set("host.gc_cycles_per_op", r.win.host.gcCycles/ops)
	lc.set("host.gc_pause_us_per_op", r.win.host.gcPauseUS/ops)
	lc.set("host.trace_overhead_pct", 100*(withSpans-untraced)/untraced)
	lc.set("host.ops", ops)
	lc.set("host.traced_ops", float64(traced.ops))
	lc.set("host.nproc", float64(runtime.NumCPU()))
	lc.set("host.setup_s", r.setupS)
	lc.set("host.peak_rss_mb", r.peakRSSMB)
	lc.set("host.failed_frac", float64(r.failedOps()-r.out.nondeterministic)/float64(r.attempted()))
	lc.set("host.nondeterministic_frac", float64(r.out.nondeterministic)/float64(r.win.ops+traced.ops))
}

// outDir holds everything a run leaves behind: trace files, result
// documents and the serve workloads' temporary stores. The benchmark
// runs from the root of the checkout.
const outDir = "bench/out"
