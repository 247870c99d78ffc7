package exec

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
)

// warmCase is one plan the workspace tests run: a program, its segments,
// and what it runs on.
type warmCase struct {
	label   string
	lw      *ir.Lowered
	segs    []core.Segment
	scalars map[string]float64
	iters   int
	input   ir.Storage
}

// warmRun is what a run of a warmCase must reproduce: its result without
// the wall-clock stages, and its trace.
type warmRun struct {
	res   Result
	trace []machine.Event
}

// eventLog is a tracer that keeps every event of one run.
type eventLog struct{ events []machine.Event }

func (l *eventLog) Record(e machine.Event) { l.events = append(l.events, e) }

// run runs c, in ws, or through Run's pool when ws is nil.
func (c warmCase) run(ws *workspace) (warmRun, error) {
	var log eventLog
	cfg := machine.DefaultConfig()
	cfg.Tracer = &log
	engine := run
	if ws != nil {
		engine = ws.execute
	}
	res, err := engine(c.lw, c.segs, c.scalars, c.iters, cfg, c.input)
	res.InspectWall, res.SimWall, res.AssembleWall = 0, 0, 0
	return warmRun{res, log.events}, err
}

// warmCases are the four builtins, the stencil and manyarrays as
// compiled cases — jacobi and gauss also at exec-scale's and exec-gauss's
// sizes — and the first seeded programs of TestExecDifferentialFuzz and
// TestBatchedMatchesExactFuzz, whole and as a random segmentation. Large
// and small machines alternate: jacobi N = 1,024 comes first and last, and
// gauss N = 16 before it.
func warmCases(t *testing.T) []warmCase {
	t.Helper()
	var cases []warmCase
	compiled := func(name string, p *ir.Program, m, n, iters int) {
		c := Case{Prog: p, M: m, N: n, Iters: iters, Scalars: map[string]float64{"OMEGA": 1.2}, Seed: 7}
		plan, err := c.Plan()
		if err != nil {
			t.Fatal(err)
		}
		input, err := c.Input()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, warmCase{fmt.Sprintf("%s m=%d N=%d", name, m, n), c.an.Lowered(), plan.DP.Segments, c.Scalars, iters, input})
	}
	compiled("jacobi", ir.Jacobi(), 32, 1024, 2)
	progs := casePrograms(t)
	for _, name := range []string{"gauss", "jacobi", "sor", "matmul", "manyarrays.f"} {
		compiled(name, progs[name], 16, 8, 3)
		compiled(name, progs[name], 16, 64, 2)
	}
	compiled("stencil", ir.Stencil(), 16, 16, 3)
	const m = 8
	for _, gen := range []func(*rand.Rand) *ir.Program{randomProgram, randomReduceProgram} {
		for _, seed := range fuzzSeeds {
			rng := rand.New(rand.NewSource(seed))
			for trial := range 3 { // the fuzzer's draws, in its order
				p := gen(rng)
				input, iters := randomInput(p, m, rng), 1+rng.Intn(2)
				for _, n := range []int{2, 4} {
					if ss := fuzzSchemes(t, p, m, n); ss != nil {
						segs, label := randomPlan(t, seed, trial, m, n, p)
						lw := mustLower(t, p, map[string]int{"m": m})
						cases = append(cases, warmCase{fuzzCase(seed, trial, n, p), lw, wholeProgram(p, ss), nil, iters, input},
							warmCase{label, lw, segs, nil, iters, input})
					}
				}
			}
		}
	}
	compiled("gauss", ir.Gauss(), 32, 16, 1)
	return append(cases, cases[0])
}

// coldRuns runs every case on a fresh workspace after two collections,
// which empty the machine's table pool too.
func coldRuns(t *testing.T, cases []warmCase) []warmRun {
	t.Helper()
	runs := make([]warmRun, len(cases))
	for i, c := range cases {
		runtime.GC()
		runtime.GC()
		var err error
		if runs[i], err = c.run(&workspace{}); err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
	}
	return runs
}

// TestWarmRunMatchesCold: a run on a workspace and machine tables that an
// earlier run of another program and machine size left behind equals,
// DeepEqual — Values, Stats with the makespan, NestCounts, Segments and
// the trace — a run on empty ones. Every case runs on one workspace in
// order, each after a different one, on one P so the machine reuses the
// tables the run before put back.
func TestWarmRunMatchesCold(t *testing.T) {
	cases := warmCases(t)
	cold := coldRuns(t, cases)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ws := &workspace{}
	for i, c := range cases {
		warm, err := c.run(ws)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if !reflect.DeepEqual(warm, cold[i]) {
			t.Fatalf("%s: the warm run differs from the cold one (after %s)", c.label, cases[max(i-1, 0)].label)
		}
	}
}

// TestConcurrentRunsMatchSerial: four goroutines run every case through
// Run's pools at once, each in its own rotation of the list, and every
// run equals the case's serial cold run. CI runs it under -race.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	cases := warmCases(t)
	cold := coldRuns(t, cases)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range cases {
				i := (k + g*len(cases)/len(errs)) % len(cases)
				got, err := cases[i].run(nil)
				if err == nil && !reflect.DeepEqual(got, cold[i]) {
					err = fmt.Errorf("differs from its serial run")
				}
				if err != nil {
					errs[g] = fmt.Errorf("goroutine %d, %s: %w", g, cases[i].label, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestRunTraceGolden pins the schedule message by message: every run of
// warmCases, in order, hashes to its line of testdata/trace.golden — the
// sha256 of the machine's event list (cfg.Tracer) followed by the result
// without its walls (renderRun), labelled by its index and the first line
// of its label. run.golden pins what a run computes and
// counts; this pins the order, size and timing of every send and wait
// that produced it. -update rewrites the file, for a deliberate change to
// the schedule only.
func TestRunTraceGolden(t *testing.T) {
	const path = "testdata/trace.golden"
	cases := warmCases(t)
	var b strings.Builder
	for i, c := range cases {
		r, err := c.run(nil)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		h := sha256.New()
		for _, e := range r.trace {
			fmt.Fprintf(h, "%+v\n", e)
		}
		io.WriteString(h, renderRun(r.res))
		label, _, _ := strings.Cut(c.label, "\n")
		fmt.Fprintf(&b, "%x %03d %s\n", h.Sum(nil), i, label)
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d runs, %s has %d", len(got)-1, path, len(wantLines)-1)
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("run %d: got %q, %s has %q", i, got[i], path, wantLines[i])
		}
	}
}
