package exec

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/ir"
	"dmcc/internal/machine"
)

// casePrograms is every program a tool can name: the builtins and the
// sources under testdata/.
func casePrograms(t *testing.T) map[string]*ir.Program {
	t.Helper()
	progs := map[string]*ir.Program{}
	for _, name := range ir.BuiltinNames() {
		progs[name], _ = ir.Builtin(name)
	}
	files, err := filepath.Glob("../../testdata/*.f")
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata sources: %v, %v", files, err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		progs[filepath.Base(f)] = p
	}
	return progs
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/run.golden and testdata/runexact.golden from this tree")

// resultGolden is one golden file of TestCaseRunsEveryProgram: for every
// label, the sha256 of one engine's result rendered by render.
// testdata/runexact.golden pins RunExact, the per-element oracle the
// batched engine is held to, and testdata/run.golden pins Run, so both are
// held bit for bit.
type resultGolden struct {
	path    string
	render  func(Result) string
	mu      sync.Mutex
	digests map[string]string
}

// caseGoldens are the two goldens checkCase holds a corpus case to.
type caseGoldens struct{ run, exact *resultGolden }

// loadCaseGoldens reads both goldens, or under -update starts empty ones
// that t's cleanup writes once every case has recorded its digests.
func loadCaseGoldens(t *testing.T, ncases int) *caseGoldens {
	t.Helper()
	return &caseGoldens{
		run:   loadGolden(t, "testdata/run.golden", renderRun, ncases),
		exact: loadGolden(t, "testdata/runexact.golden", renderResult, ncases),
	}
}

func loadGolden(t *testing.T, path string, render func(Result) string, ncases int) *resultGolden {
	t.Helper()
	g := &resultGolden{path: path, render: render, digests: map[string]string{}}
	if *updateGolden {
		t.Cleanup(func() {
			if len(g.digests) != ncases {
				t.Errorf("-update recorded %d of %d cases; run every case to rewrite %s", len(g.digests), ncases, path)
				return
			}
			labels := make([]string, 0, len(g.digests))
			for label := range g.digests {
				labels = append(labels, label)
			}
			sort.Strings(labels)
			var b strings.Builder
			for _, label := range labels {
				fmt.Fprintf(&b, "%s %s\n", g.digests[label], label)
			}
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		})
		return g
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		digest, label, _ := strings.Cut(line, " ")
		g.digests[label] = digest
	}
	return g
}

// check compares res's digest with label's line, or records it under
// -update.
func (g *resultGolden) check(t *testing.T, label string, res Result) {
	t.Helper()
	got := fmt.Sprintf("%x", sha256.Sum256([]byte(g.render(res))))
	g.mu.Lock()
	defer g.mu.Unlock()
	if *updateGolden {
		g.digests[label] = got
		return
	}
	if want, ok := g.digests[label]; !ok {
		t.Errorf("%s: no line in %s", label, g.path)
	} else if got != want {
		t.Errorf("%s: the result hashes to %s, %s has %s", label, got, g.path, want)
	}
}

// renderResult is a canonical text of a result: fmt prints maps with
// sorted keys and a float64 in its shortest exact form, so this is Values
// (arrays and keys sorted), then Stats and Transport with every
// processor's counters and peers.
func renderResult(res Result) string {
	return fmt.Sprintf("%v\n%+v\n%+v\n", res.Values, res.Stats, res.Transport)
}

// renderRun is renderResult followed by what only Run reports: the
// segments it executed, each with its grid, change words and nest counts,
// and its store words. No wall-clock field is rendered.
func renderRun(res Result) string {
	return renderResult(res) + fmt.Sprintf("%+v\n%d %d\n", res.Segments, res.StoreWords, res.MaxProcStoreWords)
}

// checkCase runs the case through both engines and requires each to
// match the sequential interpreter and the two to execute the same flops;
// with goldens, Run's and RunExact's results must also hash to label's
// lines. It returns Run's result.
func checkCase(t *testing.T, label string, c *Case, plan []core.Segment, goldens *caseGoldens) Result {
	t.Helper()
	var res [2]Result
	for i, run := range []func([]core.Segment, machine.Config) (Result, error){c.Run, c.RunExact} {
		var err error
		if res[i], err = run(plan, machine.DefaultConfig()); err != nil {
			t.Fatalf("%s engine %d: %v", label, i, err)
		}
		diff, err := c.Check(res[i])
		if err != nil {
			t.Fatalf("%s engine %d: check: %v", label, i, err)
		}
		if !(diff <= 1e-9) {
			t.Errorf("%s engine %d: max |Values - EvalProgram| = %g", label, i, diff)
		}
	}
	if res[0].Stats.Flops != res[1].Stats.Flops {
		t.Errorf("%s: Run executed %d flops, RunExact %d", label, res[0].Stats.Flops, res[1].Stats.Flops)
	}
	if goldens != nil {
		goldens.run.check(t, label, res[0])
		goldens.exact.check(t, label, res[1])
	}
	return res[0]
}

// casePlan is c's compiled plan's segments.
func casePlan(t *testing.T, c *Case) []core.Segment {
	t.Helper()
	plan, err := c.Plan()
	if err != nil {
		t.Fatal(err)
	}
	return plan.DP.Segments
}

// TestCaseRunsEveryProgram: both engines execute the compiled plan — its
// Algorithm 1 segments in order, each on its own grid, joined by scheme
// changes — and match the sequential interpreter, over every testdata/*.f
// (the builtins are four of them) at m ∈ {16, 64} and Synthetic(4..16),
// whose plans have one segment per nest, at m = 16, each on 4, 8, 16 and
// 64 processors. Input is deterministic, the run executes Iterations
// iterations' flops, Run's result is run.golden's and RunExact's
// runexact.golden's. The subtests run in parallel; every case runs under
// the race detector too.
func TestCaseRunsEveryProgram(t *testing.T) {
	type kase struct {
		name string
		p    *ir.Program
		m    int
	}
	var cases []kase
	progs := casePrograms(t)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, builtin := ir.Builtin(name); builtin {
			continue // its listing is testdata/<name>.f
		}
		for _, m := range []int{16, 64} {
			cases = append(cases, kase{name, progs[name], m})
		}
	}
	for s := 4; s <= 16; s++ {
		cases = append(cases, kase{fmt.Sprintf("Synthetic(%d)", s), ir.Synthetic(s), 16})
	}
	ns := []int{4, 8, 16, 64}
	goldens := loadCaseGoldens(t, len(cases)*len(ns))
	for _, k := range cases {
		for _, n := range ns {
			label := fmt.Sprintf("%s m=%d N=%d", k.name, k.m, n)
			t.Run(label, func(t *testing.T) {
				t.Parallel()
				c := Case{Prog: k.p, M: k.m, N: n, Iters: 3, Scalars: map[string]float64{"OMEGA": 1.2}, Seed: 7}
				in1, err := c.Input()
				if err != nil {
					t.Fatal(err)
				}
				if in2, _ := c.Input(); !reflect.DeepEqual(in1, in2) {
					t.Fatal("two calls of Input differ")
				}
				plan := casePlan(t, &c)
				res := checkCase(t, label, &c, plan, goldens)
				var want []Segment
				for _, seg := range plan {
					want = append(want, Segment{Start: seg.Start, Len: seg.Len, Grid: seg.Schemes.Grid})
				}
				got := slices.Clone(res.Segments)
				for i := range got {
					got[i].ChangeWords, got[i].Nests = 0, nil
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("ran segments %v, the plan's are %v", got, want)
				}
				if strings.HasPrefix(k.name, "Synthetic") && len(want) != len(k.p.Nests) {
					t.Errorf("the plan has %d segments over %d nests", len(want), len(k.p.Nests))
				}
				// Iterations is the count the run executed: its flops are that
				// many single iterations' (a non-iterative program runs once).
				once := c
				once.Iters = 1
				one, err := once.Run(plan, machine.DefaultConfig())
				if err != nil {
					t.Fatalf("one iteration: %v", err)
				}
				if got := int64(c.Iterations()) * one.Stats.Flops; got != res.Stats.Flops {
					t.Errorf("%d iteration(s) of %d flops is %d, the run executed %d", c.Iterations(), one.Stats.Flops, got, res.Stats.Flops)
				}
			})
		}
	}
}

// TestCaseInputFillsLoweredExtents pins the input to each array's own
// extents, not 1..m: at m = 8, C(4) holds four elements and A(m+4)
// twelve, and both programs run.
func TestCaseInputFillsLoweredExtents(t *testing.T) {
	for _, decl := range []string{"A(m)", "A(m+4)"} {
		src := "PROGRAM small\nPARAM m\nREAL " + decl + ", C(4)\nDO 10 i = 1, 4\n1 C(i) = A(i) + 1.0\n10 CONTINUE\nEND\n"
		p, err := ir.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		c := Case{Prog: p, M: 8, N: 4, Iters: 3, Seed: 7}
		in, err := c.Input()
		if err != nil {
			t.Fatal(err)
		}
		lw := c.an.Lowered() // Input analysed the program
		for k, name := range lw.Names {
			if got, want := len(in[name]), lw.Shapes[k][0]; got != want {
				t.Errorf("REAL %s: input holds %d elements of %s, its extent is %d", decl, got, name, want)
			}
		}
		checkCase(t, "REAL "+decl, &c, casePlan(t, &c), nil)
	}
}

// TestCaseBindsTheProgramsParam: M binds a program's one PARAM whatever
// its name, a program with none binds nothing, and one with two is an
// error naming both.
func TestCaseBindsTheProgramsParam(t *testing.T) {
	for src, elems := range map[string]int{
		"PROGRAM pn\nPARAM n\nREAL A(n), B(n)\nDO 2 i = 1, n\n1 A(i) = B(i) + 1.0\n2 CONTINUE\nEND\n": 16,
		"PROGRAM p0\nREAL A(8), B(8)\nDO 2 i = 1, 8\n1 A(i) = B(i) + 1.0\n2 CONTINUE\nEND\n":          8,
	} {
		p, err := ir.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		c := Case{Prog: p, M: 16, N: 4, Iters: 1, Seed: 7}
		in, err := c.Input()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if len(in["A"]) != elems {
			t.Errorf("%s: A holds %d elements, want %d", p.Name, len(in["A"]), elems)
		}
		checkCase(t, p.Name, &c, casePlan(t, &c), nil)
	}
	p, err := ir.Parse("PROGRAM pmn\nPARAM m, n\nREAL A(m), B(n)\nDO 2 i = 1, 4\n1 A(i) = B(i) + 1.0\n2 CONTINUE\nEND\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Case{Prog: p, M: 16, N: 4}).Plan(); err == nil || !strings.Contains(err.Error(), "size parameters m, n") {
		t.Fatalf("two size parameters: got %v, want an error naming m and n", err)
	}
}

// TestMissingSchemeNamesFirstArray requires the error for a scheme set
// lacking two arrays to name the first of them by name, every time.
func TestMissingSchemeNamesFirstArray(t *testing.T) {
	c := Case{Prog: ir.Jacobi(), M: 8, N: 4, Iters: 1, Seed: 7}
	ss := wholeProgramSchemes(t, c.Prog, c.M, c.N)
	input, err := c.Input()
	if err != nil {
		t.Fatal(err)
	}
	// The set is a discarded compiler's own; nothing else reads it.
	delete(ss.Schemes, "X")
	delete(ss.Schemes, "B")
	for i := 0; i < 20; i++ {
		_, err := Run(c.Prog, ss, map[string]int{"m": 8}, nil, 1, machine.DefaultConfig(), input)
		if err == nil || !strings.HasSuffix(err.Error(), "no scheme for array B") {
			t.Fatalf("run %d: got %v, want the error naming B", i, err)
		}
	}
}

// TestTriangularRangeIsAccepted: a nest whose inner loop is empty at the
// top of its outer range — at k = m, DO i = k+1, m runs nothing, so B(i+k)
// reaches 2m-1, within B(2*m-1) — compiles at m = 4 and 16 (the bounding
// box charged 2m and refused it), and both engines match EvalProgram.
func TestTriangularRangeIsAccepted(t *testing.T) {
	p, err := ir.Parse("PROGRAM triangular\nPARAM m\nREAL B(2*m-1), C(m)\nDO 9 k = 1, m\n  DO 9 i = k + 1, m\n7   C(k) = B(i+k)\n9 CONTINUE\nEND\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{4, 16} {
		c := Case{Prog: p, M: m, N: 4, Seed: 7}
		checkCase(t, fmt.Sprintf("triangular m=%d", m), &c, casePlan(t, &c), nil)
	}
}
