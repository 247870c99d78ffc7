// dmccd is the plan-serving compile daemon: an HTTP/JSON front end
// over the artifact cache and the symbolic plan evaluator
// (internal/serve). One cold POST /compile runs alignment, the shape
// search and the DP; every repeat of that configuration — across
// requests and across daemon restarts — is a content-addressed cache
// hit, and GET /cost re-prices any registered plan at any size without
// ever re-running the DP.
//
// Usage:
//
//	dmccd                                     serve on :8077, cache in .dmcc-cache
//	dmccd -addr :9000 -cache-dir /var/dmcc    custom bind and cache
//	dmccd -cache-max-bytes 67108864 -gc-every 30s
//	                                          byte-budget LRU GC online
//	                                          against live traffic
//	dmccd -compile-timeout 10s                bound one /compile request;
//	                                          the compile finishes in its
//	                                          flight and a retry hits warm
//	dmccd -store-remote http://peerhost:8077  give the local cache a peer:
//	                                          another daemon's /artifact
//	                                          store. Local misses read
//	                                          through to the peer, computed
//	                                          plans are written through,
//	                                          and startup prewarms the
//	                                          local disk and the plan
//	                                          registry from the peer's
//	                                          inventory
//
// Every daemon also *serves* its store (GET/PUT /artifact/{id},
// GET /keys), so fleets need no separate storage service: point any
// daemon's -store-remote at any other.
//
// SIGINT/SIGTERM drain in-flight requests and exit 0. Exit codes:
// 2 = bad usage, 1 = runtime failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dmcc/internal/artifact"
	"dmcc/internal/cli"
	"dmcc/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	cacheDir := flag.String("cache-dir", ".dmcc-cache", "artifact cache directory")
	cacheMax := flag.Int64("cache-max-bytes", 256<<20, "byte budget for the online cache GC (0 = never collect)")
	gcEvery := flag.Duration("gc-every", time.Minute, "online GC interval")
	compileTimeout := flag.Duration("compile-timeout", 30*time.Second, "per-request /compile bound (0 = none); timed-out compiles finish in the background and stay cached")
	storeRemote := flag.String("store-remote", "", "peer daemon URL behind the cache (e.g. http://host:8077); empty = local only")
	flag.Parse()
	if flag.NArg() > 0 {
		cli.Usage("dmccd", fmt.Errorf("unexpected arguments: %v", flag.Args()))
	}
	if *gcEvery <= 0 {
		cli.Usage("dmccd", fmt.Errorf("-gc-every must be positive, got %v", *gcEvery))
	}

	store, err := artifact.OpenWithPeer(*cacheDir, *storeRemote)
	if err != nil {
		cli.Fail("dmccd", err)
	}
	warnf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "dmccd: "+format+"\n", args...)
	}
	store.Warnf = warnf
	srv, err := serve.New(serve.Config{
		Store: store, CompileTimeout: *compileTimeout, Warnf: warnf,
	})
	if err != nil {
		cli.Fail("dmccd", err)
	}
	if *storeRemote != "" {
		// Best-effort: an unreachable peer means a cold start, never a
		// failed one.
		if keys, pulled, err := store.Prewarm(); err != nil {
			warnf("prewarm: %v (starting cold)", err)
		} else {
			plans := srv.PrewarmPlans(keys)
			fmt.Fprintf(os.Stderr, "dmccd: prewarmed %d artifacts, %d plans from %s\n",
				pulled, plans, *storeRemote)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go srv.GCLoop(ctx, *gcEvery, *cacheMax)

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "dmccd: serving on %s (cache %s, gc %v/%dB)\n",
		*addr, store.Dir(), *gcEvery, *cacheMax)

	select {
	case err := <-errc:
		cli.Fail("dmccd", err)
	case <-ctx.Done():
	}
	// Drain in-flight requests, bounded so a stuck handler cannot wedge
	// shutdown forever.
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		cli.Fail("dmccd", fmt.Errorf("shutdown: %w", err))
	}
	ms := srv.Metrics()
	fmt.Fprintf(os.Stderr, "dmccd: drained; compiles=%d hits=%d cost_evals=%d cache{%s}\n",
		ms.Server.Compiles, ms.Server.CompileHits, ms.Server.CostEvals, store.Stats())
}
