package exec

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dmcc/internal/ir"
	"dmcc/internal/machine"
	"dmcc/internal/parse"
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
		p, err := parse.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		progs[filepath.Base(f)] = p
	}
	return progs
}

// checkCase runs the case through both engines and requires each to
// match the sequential interpreter and the two to execute the same flops,
// which it returns.
func checkCase(t *testing.T, label string, c Case) int64 {
	t.Helper()
	var flops [2]int64
	for i, run := range []func(machine.Config) (Result, error){c.Run, c.RunExact} {
		res, err := run(machine.DefaultConfig())
		if err != nil {
			t.Fatalf("%s engine %d: %v", label, i, err)
		}
		diff, err := c.Check(res)
		if err != nil {
			t.Fatalf("%s engine %d: check: %v", label, i, err)
		}
		if !(diff <= 1e-9) {
			t.Errorf("%s engine %d: max |Values - EvalProgram| = %g", label, i, diff)
		}
		flops[i] = res.Stats.Flops
	}
	if flops[0] != flops[1] {
		t.Errorf("%s: Run executed %d flops, RunExact %d", label, flops[0], flops[1])
	}
	return flops[0]
}

// TestCaseRunsEveryProgram runs every builtin and testdata program through
// the harness on both engines at two processor counts.
func TestCaseRunsEveryProgram(t *testing.T) {
	for name, p := range casePrograms(t) {
		for _, n := range []int{4, 16} {
			c := Case{Prog: p, M: 16, N: n, Iters: 3, Scalars: map[string]float64{"OMEGA": 1.2}, Seed: 7}
			label := fmt.Sprintf("%s m=16 N=%d", name, n)
			in1, err := c.Input()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			in2, _ := c.Input()
			if !reflect.DeepEqual(in1, in2) {
				t.Fatalf("%s: two calls of Input differ", label)
			}
			flops := checkCase(t, label, c)
			// Iterations is the count the run executed: its flops are that
			// many single iterations' (a non-iterative program runs once).
			once := c
			once.Iters = 1
			res, err := once.Run(machine.DefaultConfig())
			if err != nil {
				t.Fatalf("%s one iteration: %v", label, err)
			}
			if got := int64(c.Iterations()) * res.Stats.Flops; got != flops {
				t.Errorf("%s: %d iteration(s) of %d flops is %d, the run executed %d", label, c.Iterations(), res.Stats.Flops, got, flops)
			}
		}
	}
}

// TestCaseInputFillsLoweredExtents pins the input to each array's own
// extents, not 1..m: at m = 8, C(4) holds four elements and A(m+4)
// twelve, and both programs run.
func TestCaseInputFillsLoweredExtents(t *testing.T) {
	for _, decl := range []string{"A(m)", "A(m+4)"} {
		src := "PROGRAM small\nPARAM m\nREAL " + decl + ", C(4)\nDO 10 i = 1, 4\n1 C(i) = A(i) + 1.0\n10 CONTINUE\nEND\n"
		p, err := parse.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		c := Case{Prog: p, M: 8, N: 4, Iters: 3, Seed: 7}
		in, err := c.Input()
		if err != nil {
			t.Fatal(err)
		}
		lw, err := p.Lower(c.bind())
		if err != nil {
			t.Fatal(err)
		}
		for k, name := range lw.Names {
			if got, want := len(in[name]), lw.Shapes[k][0]; got != want {
				t.Errorf("REAL %s: input holds %d elements of %s, its extent is %d", decl, got, name, want)
			}
		}
		checkCase(t, "REAL "+decl, c)
	}
}

// TestMissingSchemeNamesFirstArray requires the error for a scheme set
// lacking two arrays to name the first of them by name, every time.
func TestMissingSchemeNamesFirstArray(t *testing.T) {
	c := Case{Prog: ir.Jacobi(), M: 8, N: 4, Iters: 1, Seed: 7}
	ss, err := c.Schemes()
	if err != nil {
		t.Fatal(err)
	}
	input, err := c.Input()
	if err != nil {
		t.Fatal(err)
	}
	// The set is the discarded compiler's own; nothing else reads it.
	delete(ss.Schemes, "X")
	delete(ss.Schemes, "B")
	for i := 0; i < 20; i++ {
		_, err := Run(c.Prog, ss, c.bind(), nil, 1, machine.DefaultConfig(), input)
		if err == nil || !strings.HasSuffix(err.Error(), "no scheme for array B") {
			t.Fatalf("run %d: got %v, want the error naming B", i, err)
		}
	}
}
