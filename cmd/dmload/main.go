// dmload drives GET /cost load against a plan-serving daemon (dmccd)
// and reports tail latencies plus the counter deltas that prove the
// warm path stayed warm. With -self it spins up an in-process daemon
// over a throwaway cache — the hermetic mode CI gates on.
//
// Usage:
//
//	dmload -self -json > BENCH_serve.json       hermetic baseline capture
//	dmload -self -json -baseline BENCH_serve.json
//	                                            gate: regressions exit 1
//	dmload -addr http://127.0.0.1:8077          load a running daemon
//	dmload -self -dist hotkey -requests 20000 -conc 16 -min-rps 500
//	                                            throughput floor: exit 1 below it
//
// Each -dist runs after one warm-up pass over -progs; the summary goes
// to stderr, the sweep-shaped rows (kind "serve") to stdout. The
// deterministic columns (requests, errors, misses_after_warm) are the
// -json document and what -baseline gates; latency and throughput are
// wall-clock columns, in the CSV and the summary only. Exit codes:
// 2 = bad usage, 1 = runtime failure or a failed gate.
//
// The remote-warm distribution (requires -self) measures the shared
// fleet store end to end: an upstream daemon cold-compiles the key set
// (the only DP runs in the whole arm), then a fresh front daemon —
// whose store has the upstream's /artifact store as its peer — prewarms
// its cache and plan registry from the peer inventory and serves the
// entire load without compiling anything. Its row gates compiles=0,
// remote_errors=0 and prewarmed_keys alongside misses_after_warm=0.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"

	"dmcc/internal/artifact"
	"dmcc/internal/cli"
	"dmcc/internal/serve"
	"dmcc/internal/sweep"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8077", "daemon base URL")
	self := flag.Bool("self", false, "load an in-process daemon over a temp cache (hermetic)")
	dists := flag.String("dist", "hotkey,uniform", "comma-separated request distributions (hotkey, uniform, coldm)")
	progs := flag.String("progs", "jacobi,sor,gauss", "comma-separated builtin programs to warm")
	m := flag.Int("m", 64, "base problem size each plan is compiled at")
	n := flag.Int("n", 8, "processor count each plan is compiled at")
	requests := flag.Int("requests", 2000, "GET /cost requests per distribution")
	conc := flag.Int("conc", 8, "client workers")
	hotFrac := flag.Float64("hot-frac", 0.9, "hotkey distribution: fraction aimed at the first plan")
	seed := flag.Int64("seed", 1, "request-schedule seed")
	jsonOut := flag.Bool("json", false, "emit deterministic JSON instead of CSV")
	baseline := flag.String("baseline", "", "baseline JSON file to diff against; regressions exit nonzero")
	minRPS := flag.Float64("min-rps", 0, "fail (exit 1) if any distribution falls below this throughput")
	flag.Parse()
	if flag.NArg() > 0 {
		cli.Usage("dmload", fmt.Errorf("unexpected arguments: %v", flag.Args()))
	}
	if *m < 1 || *n < 1 || *requests < 1 || *conc < 1 {
		cli.Usage("dmload", fmt.Errorf("-m %d -n %d -requests %d -conc %d: a count below 1", *m, *n, *requests, *conc))
	}
	if !(*hotFrac > 0 && *hotFrac <= 1) {
		cli.Usage("dmload", fmt.Errorf("-hot-frac %g: outside (0, 1]", *hotFrac))
	}
	distList := splitList(*dists)
	progList := splitList(*progs)
	if len(distList) == 0 || len(progList) == 0 {
		cli.Usage("dmload", fmt.Errorf("-dist and -progs must be non-empty"))
	}
	remoteWarm := false
	stdDists := distList[:0:0]
	for _, d := range distList {
		switch d {
		case "hotkey", "uniform", "coldm":
			stdDists = append(stdDists, d)
		case "remote-warm":
			if !*self {
				cli.Usage("dmload", fmt.Errorf("-dist remote-warm requires -self (it builds its own daemon pair)"))
			}
			remoteWarm = true
		default:
			cli.Usage("dmload", fmt.Errorf("unknown distribution %q (want hotkey, uniform, coldm or remote-warm)", d))
		}
	}

	base := *addr
	if *self {
		dir, err := os.MkdirTemp("", "dmload-cache-")
		if err != nil {
			cli.Fail("dmload", err)
		}
		defer os.RemoveAll(dir)
		store, err := artifact.Open(dir)
		if err != nil {
			cli.Fail("dmload", err)
		}
		srv, err := serve.New(serve.Config{Store: store})
		if err != nil {
			cli.Fail("dmload", err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		base = ts.URL
		fmt.Fprintf(os.Stderr, "dmload: hermetic daemon on %s (cache %s)\n", base, dir)
	}

	cfg := serve.LoadConfig{
		BaseURL: base, Progs: progList, M: *m, N: *n,
		Requests: *requests, Concurrency: *conc,
		HotFrac: *hotFrac, Seed: *seed,
	}
	res, sums, err := serve.Harness(cfg, stdDists)
	if err != nil {
		cli.Fail("dmload", err)
	}
	if remoteWarm {
		sum, err := runRemoteWarm(cfg)
		if err != nil {
			cli.Fail("dmload", fmt.Errorf("load remote-warm: %w", err))
		}
		sums = append(sums, sum)
		res.Rows = append(res.Rows, serve.Row(sum, cfg))
		sweep.SortRows(res.Rows)
	}
	for _, sum := range sums {
		fmt.Fprintf(os.Stderr, "dmload: %s\n", sum)
	}

	if *jsonOut {
		err = res.WriteJSON(os.Stdout)
	} else {
		err = res.WriteCSV(os.Stdout)
	}
	if err != nil {
		cli.Fail("dmload", err)
	}

	failed := false
	if *minRPS > 0 {
		for _, sum := range sums {
			if sum.RPS < *minRPS {
				fmt.Fprintf(os.Stderr, "dmload: %s throughput %.0f req/s below floor %.0f\n", sum.Dist, sum.RPS, *minRPS)
				failed = true
			}
		}
	}
	if *baseline != "" {
		ok, err := sweep.Gate(os.Stderr, "dmload", *baseline, res)
		if err != nil {
			cli.Fail("dmload", err)
		}
		failed = failed || !ok
	}
	if failed {
		os.Exit(cli.ExitFailure)
	}
}

// runRemoteWarm builds the two-daemon pair of the remote-warm arm and
// drives the load against the prewarmed front. The returned summary
// carries the fleet counters (compiles, remote_errors, prewarmed_keys)
// as extra deterministic metrics.
func runRemoteWarm(cfg serve.LoadConfig) (*serve.LoadSummary, error) {
	// The upstream daemon owns the fleet's only cold compiles.
	upDir, err := os.MkdirTemp("", "dmload-upstream-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(upDir)
	upStore, err := artifact.Open(upDir)
	if err != nil {
		return nil, err
	}
	upSrv, err := serve.New(serve.Config{Store: upStore})
	if err != nil {
		return nil, err
	}
	upTS := httptest.NewServer(upSrv.Handler())
	defer upTS.Close()
	for _, prog := range cfg.Progs {
		body, err := json.Marshal(serve.CompileRequest{Prog: prog, M: cfg.M, N: cfg.N})
		if err != nil {
			return nil, err
		}
		resp, err := http.Post(upTS.URL+"/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("upstream compile %s: %w", prog, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("upstream compile %s: %s", prog, resp.Status)
		}
	}

	// The front daemon starts empty, with the upstream's /artifact store
	// as its peer, and comes up warm from the peer inventory.
	frontDir, err := os.MkdirTemp("", "dmload-front-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(frontDir)
	frontStore, err := artifact.OpenWithPeer(frontDir, upTS.URL)
	if err != nil {
		return nil, err
	}
	frontSrv, err := serve.New(serve.Config{Store: frontStore})
	if err != nil {
		return nil, err
	}
	keys, pulled, err := frontStore.Prewarm()
	if err != nil {
		return nil, fmt.Errorf("prewarm: %w", err)
	}
	plans := frontSrv.PrewarmPlans(keys)
	fmt.Fprintf(os.Stderr, "dmload: remote-warm front prewarmed %d artifacts, %d plans from %s\n",
		pulled, plans, upTS.URL)
	frontTS := httptest.NewServer(frontSrv.Handler())
	defer frontTS.Close()

	cfg.BaseURL = frontTS.URL
	sum, err := serve.Load(cfg, "remote-warm")
	if err != nil {
		return nil, err
	}
	ms := frontSrv.Metrics()
	sum.Extra = map[string]float64{
		"compiles":       float64(ms.Server.Compiles),
		"remote_errors":  float64(ms.Store.RemoteErrors),
		"prewarmed_keys": float64(ms.Store.PrewarmedKeys),
	}
	return sum, nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
