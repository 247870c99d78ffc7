// Load harness for the plan-serving daemon (cmd/dmload): warm a key
// set through POST /compile, then drive GET /cost traffic under a
// chosen plan-key distribution and report tail latencies plus the
// counter deltas that prove the warm path stayed warm (zero compile
// misses after warm-up). Results are emitted as a sweep.Result so the
// existing -json / -baseline machinery gates serving regressions the
// same way it gates compile and exec regressions.
//
// Three distributions, modeled on hotkey/uniform cache benchmarking:
//
//   - hotkey: HotFrac of requests hit one plan (the "one program,
//     millions of bindings" serving shape);
//   - uniform: requests spread evenly over the key set;
//   - coldm: uniform over the key set with a fresh, never-seen size m
//     on every request — the per-plan (plan, m) memo never hits, so
//     every request pays a full polynomial evaluation. This is the
//     honest measure of the fitted evaluator itself (an m-sweep client
//     never repeats a size).
//
// Deterministic row metrics (requests, errors, misses_after_warm) are
// baseline-gated; latency and throughput are the row's wall-clock
// columns (sweep.Row.Wall: CSV only, never in a -json document).
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"dmcc/internal/sweep"
)

// LoadConfig configures one load run.
type LoadConfig struct {
	// BaseURL is the daemon, e.g. "http://127.0.0.1:8077".
	BaseURL string
	// Progs are the builtin programs warmed into the key set.
	Progs []string
	// M and N bind every warmed plan.
	M, N int
	// Requests is the exact number of GET /cost requests fired.
	Requests int
	// Concurrency is the number of client workers.
	Concurrency int
	// HotFrac is the fraction of hotkey-distribution requests aimed at
	// the first warmed plan. 0 defaults to 0.9.
	HotFrac float64
	// CostMs are the sizes re-priced during load; empty defaults to
	// {M, 2M, 4M}.
	CostMs []int
	// Seed makes the request schedule reproducible.
	Seed int64
	// Client overrides the HTTP client (nil = a 30s-timeout default).
	Client *http.Client
}

func (c *LoadConfig) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// LoadSummary is one distribution's measured run.
type LoadSummary struct {
	Dist            string
	Keys            int
	Requests        int
	Errors          int   // non-200 responses and transport failures
	MissesAfterWarm int64 // store misses + cold compiles during the load phase
	P50, P99, Max   time.Duration
	Elapsed         time.Duration
	RPS             float64
	// Extra carries additional deterministic metrics into the sweep row
	// (the remote-warm arm's fleet counters); nil for the plain arms.
	Extra map[string]float64
}

func (s *LoadSummary) String() string {
	out := fmt.Sprintf("%s: %d reqs over %d keys in %v (%.0f req/s), p50=%v p99=%v max=%v, errors=%d, misses_after_warm=%d",
		s.Dist, s.Requests, s.Keys, s.Elapsed.Round(time.Millisecond), s.RPS,
		s.P50, s.P99, s.Max, s.Errors, s.MissesAfterWarm)
	extras := make([]string, 0, len(s.Extra))
	for k := range s.Extra {
		extras = append(extras, k)
	}
	sort.Strings(extras)
	for _, k := range extras {
		out += fmt.Sprintf(", %s=%g", k, s.Extra[k])
	}
	return out
}

// warmup registers every (prog, M, N) plan and returns the plan ids in
// Progs order — ids[0] is the hotkey.
func warmup(cfg *LoadConfig) ([]string, error) {
	ids := make([]string, 0, len(cfg.Progs))
	for _, prog := range cfg.Progs {
		body, err := json.Marshal(CompileRequest{Prog: prog, M: cfg.M, N: cfg.N})
		if err != nil {
			return nil, err
		}
		resp, err := cfg.client().Post(cfg.BaseURL+"/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("warmup %s: %w", prog, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("warmup %s: %w", prog, err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("warmup %s: %s: %s", prog, resp.Status, bytes.TrimSpace(raw))
		}
		var cr CompileResponse
		if err := json.Unmarshal(raw, &cr); err != nil {
			return nil, fmt.Errorf("warmup %s: decoding response: %w", prog, err)
		}
		ids = append(ids, cr.ID)
	}
	return ids, nil
}

func fetchMetrics(cfg *LoadConfig) (MetricsSnapshot, error) {
	var ms MetricsSnapshot
	resp, err := cfg.client().Get(cfg.BaseURL + "/metrics")
	if err != nil {
		return ms, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return ms, fmt.Errorf("metrics: %s", resp.Status)
	}
	return ms, json.NewDecoder(resp.Body).Decode(&ms)
}

// Load runs one distribution against a warmed daemon and measures it.
func Load(cfg LoadConfig, dist string) (*LoadSummary, error) {
	if cfg.Requests < 1 {
		return nil, fmt.Errorf("load: requests=%d", cfg.Requests)
	}
	conc := cfg.Concurrency
	if conc < 1 {
		conc = 1
	}
	hot := cfg.HotFrac
	if hot == 0 {
		hot = 0.9
	}
	costMs := cfg.CostMs
	if len(costMs) == 0 {
		costMs = []int{cfg.M, 2 * cfg.M, 4 * cfg.M}
	}
	ids, err := warmup(&cfg)
	if err != nil {
		return nil, err
	}
	// Prime every (plan, m) the run will request: the first pricing of an
	// unfitted plan runs the analytic engine, which belongs to warm-up,
	// not to the measured distribution.
	client := cfg.client()
	for _, id := range ids {
		for _, m := range costMs {
			resp, err := client.Get(fmt.Sprintf("%s/cost?key=%s&m=%d", cfg.BaseURL, id, m))
			if err != nil {
				return nil, fmt.Errorf("priming %s m=%d: %w", id, m, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("priming %s m=%d: %s", id, m, resp.Status)
			}
		}
	}
	before, err := fetchMetrics(&cfg)
	if err != nil {
		return nil, err
	}

	lat := make([]time.Duration, cfg.Requests)
	errCount := make([]int, conc)
	var next int64
	var mu sync.Mutex
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= int64(cfg.Requests) {
			return 0, false
		}
		next++
		return int(next - 1), true
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			for {
				i, ok := take()
				if !ok {
					return
				}
				id := ids[rng.Intn(len(ids))]
				if dist == "hotkey" && rng.Float64() < hot {
					id = ids[0]
				}
				m := costMs[i%len(costMs)]
				if dist == "coldm" {
					// A unique size per request, beyond every primed value,
					// so no (plan, m) memo entry can serve it.
					m = 5*cfg.M + i
				}
				url := fmt.Sprintf("%s/cost?key=%s&m=%d", cfg.BaseURL, id, m)
				t0 := time.Now()
				resp, err := client.Get(url)
				lat[i] = time.Since(t0)
				if err != nil {
					errCount[w]++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCount[w]++
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := fetchMetrics(&cfg)
	if err != nil {
		return nil, err
	}
	sum := &LoadSummary{
		Dist: dist, Keys: len(ids), Requests: cfg.Requests,
		Elapsed: elapsed,
		RPS:     float64(cfg.Requests) / elapsed.Seconds(),
		MissesAfterWarm: (after.Store.Misses - before.Store.Misses) +
			(after.Server.Compiles - before.Server.Compiles),
	}
	for _, e := range errCount {
		sum.Errors += e
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	sum.P50 = lat[len(lat)/2]
	sum.P99 = lat[len(lat)*99/100]
	sum.Max = lat[len(lat)-1]
	return sum, nil
}

// Harness runs every distribution and packs the summaries into a
// sweep.Result (kind "serve") for -json emission and -baseline gating.
func Harness(cfg LoadConfig, dists []string) (*sweep.Result, []*LoadSummary, error) {
	res := &sweep.Result{Kind: "serve"}
	var sums []*LoadSummary
	for _, dist := range dists {
		sum, err := Load(cfg, dist)
		if err != nil {
			return nil, nil, fmt.Errorf("load %s: %w", dist, err)
		}
		sums = append(sums, sum)
		res.Rows = append(res.Rows, Row(sum, cfg))
	}
	sweep.SortRows(res.Rows)
	return res, sums, nil
}

// Row renders one summary as a sweep row: requests, errors and
// misses_after_warm are the deterministic, baseline-gated metrics;
// latency and throughput are wall-clock columns.
func Row(sum *LoadSummary, cfg LoadConfig) sweep.Row {
	row := sweep.Row{
		Variant: sum.Dist, M: cfg.M, N: cfg.N, S: sum.Keys,
		Metrics: map[string]float64{
			"requests":          float64(sum.Requests),
			"errors":            float64(sum.Errors),
			"misses_after_warm": float64(sum.MissesAfterWarm),
		},
		Wall: map[string]float64{
			"p50_ns": float64(sum.P50.Nanoseconds()),
			"p99_ns": float64(sum.P99.Nanoseconds()),
			"max_ns": float64(sum.Max.Nanoseconds()),
			"rps":    sum.RPS,
		},
	}
	for k, v := range sum.Extra {
		row.Metrics[k] = v
	}
	return row
}
