// Serving observability: lock-free counters and log2-bucketed latency
// histograms, snapshotted as the GET /metrics JSON document. The
// numbers answer the two questions a plan-serving cache lives or dies
// by — is the warm path actually warm (hits vs compiles vs thaws), and
// what are the tails (per-endpoint p50/p99)?
package serve

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets bounds the latency histogram: bucket b counts durations
// in [2^(b-1), 2^b) nanoseconds, so 64 buckets cover any int64.
const histBuckets = 64

// hist is a fixed log2-bucketed latency histogram, safe for concurrent
// observers.
type hist struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

func (h *hist) observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.buckets[bits.Len64(uint64(ns))].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// quantile returns the upper bound (in nanoseconds) of the bucket
// containing the q-th observation — an upper estimate within 2x, which
// is what a log2 histogram buys.
func (h *hist) quantile(q float64) int64 {
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	target := int64(q * float64(count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b := 0; b < histBuckets-1; b++ {
		cum += h.buckets[b].Load()
		if cum >= target {
			return int64(1) << b
		}
	}
	return 1<<63 - 1
}

// endpoint aggregates one route's request metrics.
type endpoint struct {
	requests     atomic.Int64
	clientErrors atomic.Int64 // 4xx: the request was wrong
	serverErrors atomic.Int64 // 5xx: we were wrong
	lat          hist
}

func (e *endpoint) observe(status int, d time.Duration) {
	e.requests.Add(1)
	switch {
	case status >= 500:
		e.serverErrors.Add(1)
	case status >= 400:
		e.clientErrors.Add(1)
	}
	e.lat.observe(d)
}

// EndpointSnapshot is one route's slice of the /metrics document.
type EndpointSnapshot struct {
	Requests     int64   `json:"requests"`
	ClientErrors int64   `json:"client_errors"`
	ServerErrors int64   `json:"server_errors"`
	P50us        float64 `json:"p50_us"`
	P99us        float64 `json:"p99_us"`
	MeanUs       float64 `json:"mean_us"`
}

func (e *endpoint) snapshot() EndpointSnapshot {
	s := EndpointSnapshot{
		Requests:     e.requests.Load(),
		ClientErrors: e.clientErrors.Load(),
		ServerErrors: e.serverErrors.Load(),
		P50us:        float64(e.lat.quantile(0.50)) / 1e3,
		P99us:        float64(e.lat.quantile(0.99)) / 1e3,
	}
	if c := e.lat.count.Load(); c > 0 {
		s.MeanUs = float64(e.lat.sum.Load()) / float64(c) / 1e3
	}
	return s
}

// StoreSnapshot is the artifact store's slice of the /metrics document:
// its cumulative Stats plus the in-flight single-flight gauge. The
// per-tier fields are zero for a store without a peer and split the
// traffic of one with a peer: LocalHits+RemoteHits == Hits, RemoteErrors
// counts degraded peer calls, PrewarmedKeys counts startup pulls.
type StoreSnapshot struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Puts          int64 `json:"puts"`
	TouchFails    int64 `json:"touch_fails"`
	Evictions     int64 `json:"evictions"`
	InFlight      int   `json:"in_flight"`
	LocalHits     int64 `json:"local_hits"`
	RemoteHits    int64 `json:"remote_hits"`
	RemoteErrors  int64 `json:"remote_errors"`
	PrewarmedKeys int64 `json:"prewarmed_keys"`
}

// ServerSnapshot is the serving-layer slice of the /metrics document.
type ServerSnapshot struct {
	// Compiles counts cold plan builds (the DP actually ran);
	// CompileHits counts POST /compile requests served from the store or
	// another request's flight. CostEvals counts GET /cost polynomial
	// re-pricings — the sub-microsecond path that never runs the DP.
	Compiles    int64 `json:"compiles"`
	CompileHits int64 `json:"compile_hits"`
	// CompilePanics counts POST /compile requests answered 500 because
	// the compile panicked (recovered; the daemon keeps serving).
	CompilePanics int64 `json:"compile_panics"`
	PlanThaws     int64 `json:"plan_thaws"`
	CostEvals     int64 `json:"cost_evals"`
	PlansLive     int   `json:"plans_live"`
	// PrewarmedPlans counts evaluators registered from a peer's frozen
	// plans at startup — live before the first request ever arrives.
	PrewarmedPlans int64 `json:"prewarmed_plans"`
	// Engines counts which nest-counting engine priced each compile-time
	// query across every compile this daemon ran: analytic_hits is the
	// closed-form path, exact_fallbacks the reference enumerator behind
	// it, nest_pricings the engine invocations behind both (the rest were
	// memo hits). A nonzero fallback count on the builtin programs is a
	// counting-engine regression.
	Engines map[string]int64 `json:"engines"`
}

// MetricsSnapshot is the GET /metrics document.
type MetricsSnapshot struct {
	Store     StoreSnapshot               `json:"store"`
	Server    ServerSnapshot              `json:"server"`
	Endpoints map[string]EndpointSnapshot `json:"endpoints"`
}
