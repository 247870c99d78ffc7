// Command dmsweep runs parameter sweeps over the kernels and compiler
// and prints CSV series — the raw data behind EXPERIMENTS.md's figures.
// The sweep engine lives in internal/sweep; this command parses grids,
// attaches the artifact cache, picks the output format and applies the
// baseline gate.
//
// Usage:
//
//	dmsweep -sweep sor     -m 32,64,128 -n 4,8
//	dmsweep -sweep gauss   -m 64,128    -n 4,8,16
//	dmsweep -sweep jacobi  -m 64,128    -n 16
//	dmsweep -sweep stencil -m 64,256    -n 16
//	dmsweep -sweep chunks  -m 64        -n 4   (SOR chunk-size x alpha)
//	dmsweep -sweep compile -m 64 -n 16 -s 4,8,16 -j 4
//	                                           (compile-time scaling of
//	                                            Algorithm 1 over synthetic
//	                                            nest sequences of length s)
//	dmsweep -sweep symbolic -m 64,128,256,1024 -n 4,8
//	                                           (compile once per (program,
//	                                            N), fit piecewise-
//	                                            polynomial cost formulas,
//	                                            evaluate every m
//	                                            symbolically — no
//	                                            recompile per point)
//	dmsweep -sweep compile -workers 4          (compute four points, or
//	                                            four symbolic (program, N)
//	                                            plans, at a time; output
//	                                            identical to -workers 1)
//	dmsweep -sweep exec -m 32,64 -n 16         (batched exec backend vs the
//	                                            per-element RunExact oracle)
//	dmsweep -sweep scale -m 64 -n 256,1024,4096 (large-N scaling of the
//	                                            batched backend on the
//	                                            discrete-event runtime;
//	                                            wall_ns/sim_ns columns show
//	                                            where the time goes)
//
// Profiling: -cpuprofile prof.cpu / -memprofile prof.mem write pprof
// profiles of the sweep itself.
//
// Caching and gating:
//
//	dmsweep -sweep compile -cache              reuse cached point results
//	                                           (content-addressed on the
//	                                            program, binding and engine
//	                                            flags; stats on stderr)
//	dmsweep -sweep compile -json               deterministic JSON instead of
//	                                           CSV (no wall-clock columns;
//	                                            cached and fresh runs emit
//	                                            byte-identical documents)
//	dmsweep -sweep exec -json -baseline BENCH_exec.json
//	                                           diff this sweep against a
//	                                           committed baseline and exit
//	                                           nonzero on regressions
//	dmsweep -sweep compile -store-remote http://host:8077
//	                                           give the cache a peer: a
//	                                           daemon's /artifact store
//	                                           (implies -cache). Warm
//	                                           points are pulled from the
//	                                           peer, computed points are
//	                                           written through
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dmcc/internal/artifact"
	"dmcc/internal/cli"
	"dmcc/internal/sweep"
)

func main() {
	kind := flag.String("sweep", "sor", "sor, gauss, jacobi, stencil, chunks, compile, symbolic, exec, scale")
	ms := flag.String("m", "32,64,128", "comma-separated problem sizes")
	ns := flag.String("n", "4,8", "comma-separated processor counts")
	ss := flag.String("s", "4,8,16", "comma-separated nest-sequence lengths (compile sweep)")
	jobs := flag.Int("j", 0, "cost-engine worker count (0 = all CPUs, 1 = serial)")
	workers := flag.Int("workers", 1, "sweep points computed concurrently")
	useCache := flag.Bool("cache", false, "memoize point results in the artifact cache")
	cacheDir := flag.String("cache-dir", ".dmcc-cache", "artifact cache directory")
	cacheMax := flag.Int64("cache-max-bytes", 256<<20, "GC the cache down to this size after the sweep (0 = unbounded)")
	jsonOut := flag.Bool("json", false, "emit deterministic JSON instead of CSV")
	baseline := flag.String("baseline", "", "baseline JSON file to diff against; regressions exit nonzero")
	baselineTol := flag.Float64("baseline-tol", 0, "relative tolerance for -baseline (0.05 = 5%)")
	storeRemote := flag.String("store-remote", "", "peer daemon URL behind the cache (implies -cache)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// Malformed grids or an unknown sweep family are usage errors
	// (exit 2); failures while sweeping exit 1.
	switch *kind {
	case "sor", "gauss", "jacobi", "stencil", "chunks", "compile", "symbolic", "exec", "scale":
	default:
		cli.Usage("dmsweep", fmt.Errorf("unknown sweep %q", *kind))
	}
	mList, err := parseInts("-m", *ms)
	if err != nil {
		cli.Usage("dmsweep", err)
	}
	nList, err := parseInts("-n", *ns)
	if err != nil {
		cli.Usage("dmsweep", err)
	}
	sList, err := parseInts("-s", *ss)
	if err != nil {
		cli.Usage("dmsweep", err)
	}

	stopProf, err := cli.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fail(err)
	}
	defer stopProf()

	opt := sweep.Options{
		Jobs:    *jobs,
		Workers: *workers,
		Warnf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "dmsweep: "+format+"\n", args...)
		},
	}
	var store *artifact.Store
	if *useCache || *storeRemote != "" {
		store, err = artifact.OpenWithPeer(*cacheDir, *storeRemote)
		if err != nil {
			fail(err)
		}
		store.Warnf = opt.Warnf
		opt.Cache = store
	}

	var res *sweep.Result
	switch *kind {
	case "compile":
		res, err = sweep.Compile(mList, nList, sList, opt)
	case "symbolic":
		res, err = sweep.Symbolic(mList, nList, opt)
	case "exec":
		res, err = sweep.Exec(mList, nList, opt)
	case "scale":
		res, err = sweep.Scale(mList, nList, opt)
	default:
		res, err = sweep.Kernel(*kind, mList, nList, opt)
	}
	if err != nil {
		fail(err)
	}

	if *jsonOut {
		err = res.WriteJSON(os.Stdout)
	} else {
		err = res.WriteCSV(os.Stdout)
	}
	if err != nil {
		fail(err)
	}

	if store != nil {
		fmt.Fprintf(os.Stderr, "dmsweep: cache %s (dir %s)\n", store.Stats(), store.Dir())
		if *cacheMax > 0 {
			removed, err := store.GC(*cacheMax)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dmsweep: cache gc: %v\n", err)
			} else if removed > 0 {
				fmt.Fprintf(os.Stderr, "dmsweep: cache gc removed %d entries\n", removed)
			}
		}
	}

	gate(res, *baseline, *baselineTol)
}

// gate applies the baseline diff, exiting nonzero on regressions. A
// no-op with no baseline file.
func gate(res *sweep.Result, baseline string, tol float64) {
	if baseline == "" {
		return
	}
	ok, err := sweep.Gate(os.Stderr, "dmsweep", baseline, res, tol)
	if err != nil {
		fail(err)
	}
	if !ok {
		os.Exit(cli.ExitFailure)
	}
}

func fail(err error) {
	cli.Fail("dmsweep", err)
}

// parseInts reads a comma-separated list of sizes, processor counts or
// lengths, each at least 1.
func parseInts(name, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		if v < 1 {
			return nil, fmt.Errorf("%s %d: a size, processor count or length below 1", name, v)
		}
		out = append(out, v)
	}
	return out, nil
}
