package main

import (
	"io"
	"os"
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
