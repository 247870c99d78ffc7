// Package cli holds the exit-code convention shared by every binary in
// cmd/: usage errors (bad flag values, unknown subcommand arguments)
// exit 2 — matching flag.ExitOnError — and runtime failures (compile
// errors, I/O, regressions, divergence) exit 1. Before ISSUE 8 the
// binaries disagreed (dmcc exited 2 on usage, dmrun/dmsweep exited 1,
// dmtables mixed both), which made scripted callers misclassify
// operator typos as system failures.
package cli

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Exit codes of the cmd/ binaries.
const (
	ExitFailure = 1 // runtime failure: the requested work could not be done
	ExitUsage   = 2 // usage error: the request itself was malformed
)

// Usage reports a usage error for the named binary and exits 2.
func Usage(cmd string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	os.Exit(ExitUsage)
}

// Fail reports a runtime failure for the named binary and exits 1.
func Fail(cmd string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
	os.Exit(ExitFailure)
}

// StartProfiles starts CPU profiling (when cpu != "") and returns the
// function that stops it and writes the heap profile (when mem != "").
func StartProfiles(cpu, mem string) (func(), error) {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		}
	}, nil
}
