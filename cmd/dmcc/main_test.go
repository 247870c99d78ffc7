package main

import (
	"io"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/ir"
)

// TestSkipLineNamesTheNest: at N = 1 no nest of a builtin has a
// distributed array, and dmcc's skip line says so for the first nest.
func TestSkipLineNamesTheNest(t *testing.T) {
	for _, name := range []string{"jacobi", "sor", "gauss", "matmul"} {
		p, _ := ir.Builtin(name)
		out := captureStdout(t, func() error { _, err := run(caseOf(p, 16, 1)); return err })
		want := "-- SPMD program skipped: codegen: nest " + p.Nests[0].Label + " has no distributed array under the chosen plan --\n"
		if !strings.HasSuffix(out, want) {
			t.Errorf("%s -n 1 ends\n%s\nwant the line\n%s", name, out[max(len(out)-200, 0):], want)
		}
	}
}

// TestExecRunsTheAlgorithm1Plan: -exec executes the plan the Algorithm 1
// section prints — the same segments, loop for loop, on the same grids —
// for jacobi and gauss at m = 64, N = 16, where both plans have two
// segments.
func TestExecRunsTheAlgorithm1Plan(t *testing.T) {
	planned := regexp.MustCompile(`(?m)^  loops (L\d+\.\.L\d+): \S+ on (.+ grid \(\d+ processors\)), segment cost`)
	executed := regexp.MustCompile(`(?m)^  loops (L\d+\.\.L\d+) on (.+ grid \(\d+ processors\))`)
	for _, name := range []string{"jacobi", "gauss"} {
		p, _ := ir.Builtin(name)
		c := caseOf(p, 64, 16)
		var plan *core.CompileResult
		compiled := captureStdout(t, func() (err error) { plan, err = run(c); return err })
		ran := captureStdout(t, func() error { return execute(c, plan, false) })
		segments := func(re *regexp.Regexp, out string) (segs [][2]string) {
			for _, m := range re.FindAllStringSubmatch(out, -1) {
				segs = append(segs, [2]string{m[1], m[2]})
			}
			return segs
		}
		want, got := segments(planned, compiled), segments(executed, ran)
		if len(want) != 2 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: executed %q, the Algorithm 1 section plans %q\n%s", name, got, want, ran)
		}
	}
}

// TestExecWordsDecompose: the words -exec prints per nest and per scheme
// change account for every word the machine moved — each nest's wire
// words once per iteration, each entry change once per iteration and the
// iteration-boundary change as often as it is crossed — for every builtin
// at m = 64 on 4 and 16 processors.
func TestExecWordsDecompose(t *testing.T) {
	header := regexp.MustCompile(`\((\d+) segment\(s\), (\d+) iteration\(s\)\)`)
	nest := regexp.MustCompile(`(?m)^    \S+: .*, (\d+) on the wire$`)
	entry := regexp.MustCompile(`(?m)entry change (\d+) words$`)
	boundary := regexp.MustCompile(`change of (\d+) words, crossed (\d+) time`)
	machine := regexp.MustCompile(`simulated makespan \S+, \d+ messages, (\d+) words`)
	atoi := func(s string) int {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, name := range ir.BuiltinNames() {
		for _, n := range []int{4, 16} {
			p, _ := ir.Builtin(name)
			c := caseOf(p, 64, n)
			plan, err := c.Plan()
			if err != nil {
				t.Fatal(err)
			}
			out := captureStdout(t, func() error { return execute(c, plan, false) })
			h, ran := header.FindStringSubmatch(out), machine.FindStringSubmatch(out)
			if h == nil || ran == nil {
				t.Fatalf("%s N=%d: no header or machine line in\n%s", name, n, out)
			}
			iters, sum := atoi(h[2]), 0
			for _, m := range nest.FindAllStringSubmatch(out, -1) {
				sum += iters * atoi(m[1])
			}
			for _, m := range entry.FindAllStringSubmatch(out, -1) {
				sum += iters * atoi(m[1])
			}
			if m := boundary.FindStringSubmatch(out); m != nil {
				sum += atoi(m[1]) * atoi(m[2])
			}
			if nests := len(nest.FindAllString(out, -1)); nests != len(p.Nests) || sum != atoi(ran[1]) {
				t.Errorf("%s N=%d: %d nest lines account for %d words, the machine moved %s\n%s", name, n, nests, sum, ran[1], out)
			}
		}
	}
}

// TestRunLowersOnce: dmcc lowers its program once, into the case's
// analysis, which the compile, the affinity graph it prints and the -exec
// run all read.
func TestRunLowersOnce(t *testing.T) {
	for _, name := range ir.BuiltinNames() {
		p, _ := ir.Builtin(name)
		c := caseOf(p, 16, 4)
		before := ir.LowerCalls()
		captureStdout(t, func() error {
			plan, err := run(c)
			if err != nil {
				return err
			}
			return execute(c, plan, false)
		})
		if got := ir.LowerCalls() - before; got != 1 {
			t.Errorf("%s: dmcc -exec lowered its program %d times, want 1", name, got)
		}
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it printed.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	err = f()
	os.Stdout = stdout
	w.Close()
	out := <-done
	if err != nil {
		t.Fatal(err)
	}
	return out
}
