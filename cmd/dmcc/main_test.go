package main

import (
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dmcc/internal/ir"
)

// TestSkipLineNamesTheNest: at N = 1 no nest of a builtin has a
// distributed array, and dmcc's skip line says so for the first nest.
func TestSkipLineNamesTheNest(t *testing.T) {
	for _, name := range []string{"jacobi", "sor", "gauss", "matmul"} {
		p, _ := ir.Builtin(name)
		out := captureStdout(t, func() error { return run(p, 16, 1) })
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
		compiled := captureStdout(t, func() error { return run(p, 64, 16) })
		ran := captureStdout(t, func() error { return execute(p, 64, 16) })
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
