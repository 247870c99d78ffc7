// Package serve is the plan-serving layer behind cmd/dmccd: an
// HTTP/JSON daemon over the artifact store and the symbolic plan
// evaluator. One cold POST /compile pays for alignment, the shape
// search and the DP once; every further request for that configuration
// is a content-addressed cache hit, and GET /cost re-prices the frozen
// plan at any problem size by evaluating its fitted piecewise
// polynomials — the DP never runs again. Concurrent cold requests for
// one key collapse into a single compile through the store's
// single-flight layer.
//
// Routes:
//
//	POST /compile    program (builtin name or Do-loop source) + binding
//	                 -> plan id, cost report, fitted formulas
//	POST /plan       install a previously fetched frozen plan without
//	                 compiling (daemon restart, plan migration); a
//	                 malformed or stale plan is a 422, never a panic
//	GET  /plan/{id}  the frozen plan, O(1) from the store
//	GET  /cost?key=&m=  re-price the plan at size m (polynomial eval)
//	GET  /metrics    counters + per-endpoint latency histograms
//	GET  /healthz    liveness
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dmcc/internal/artifact"
	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
	"dmcc/internal/sweep"
)

// Request size caps: a binding beyond these is a client error, not a
// denial-of-service vector. They are far beyond anything the simulator
// itself handles in reasonable time.
const (
	MaxM      = 1 << 20
	MaxN      = 1 << 16
	maxBodyKB = 256
)

// Config configures a Server.
type Config struct {
	// Store is the artifact store the daemon serves from, with or without
	// a peer daemon behind it. Required.
	Store *artifact.Store
	// Jobs is the within-compile worker count (Compiler.Jobs).
	Jobs int
	// CompileTimeout bounds one POST /compile request. The underlying
	// compile keeps running in its flight (the result is still cached);
	// only the HTTP request gives up. 0 means no timeout.
	CompileTimeout time.Duration
	// Warnf receives non-fatal diagnostics; nil silences them.
	Warnf func(format string, args ...any)
}

// planForKey builds or fetches a plan for POST /compile; a test seam.
var planForKey = sweep.PlanForKey

// planEntry is one live plan: its store key, a thawed evaluator with
// the fit diagnostic its payload carried, and the memo of sizes priced
// numerically. A plan whose fit was declined, or a size below the fit's
// floor, re-prices through the analytic engine, which is superlinear in
// m, so each such (plan, m) result is computed once and served from the
// memo thereafter. A fitted size evaluates in under a microsecond and is
// never stored: the memo grows with what is expensive, not with how many
// sizes were asked. mu serializes pricing per plan, so concurrent GET
// /cost callers never share a re-pricing in flight; the other fields are
// fixed once the entry is built.
type planEntry struct {
	key    string
	fitErr string
	pe     *core.PlanEvaluator
	mu     sync.Mutex
	memo   map[int]CostReport
}

func newPlanEntry(key, fitErr string, pe *core.PlanEvaluator) *planEntry {
	return &planEntry{key: key, fitErr: fitErr, pe: pe, memo: map[int]CostReport{}}
}

// Server implements the routes. Create with New; it is safe for
// concurrent use.
type Server struct {
	cfg Config

	compiles, compileHits, compilePanics, planThaws, costEvals, prewarmedPlans atomic.Int64

	engines core.EngineStats // shared by every compiler this server builds

	epCompile, epPlan, epCost, epArtifact endpoint

	mu    sync.Mutex
	plans map[string]*planEntry // plan id -> entry
}

// New returns a Server over the store in cfg.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("serve: Config.Store is required")
	}
	return &Server{cfg: cfg, plans: map[string]*planEntry{}}, nil
}

func (s *Server) warnf(format string, args ...any) {
	if s.cfg.Warnf != nil {
		s.cfg.Warnf(format, args...)
	}
}

// PlanID is the public handle of a plan: the sha-256 (hex) of its
// artifact-store key text — the same digest the store shards record
// paths by and the /artifact routes address records with.
func PlanID(key string) string { return artifact.KeyID(key) }

// Handler returns the daemon's routing table. The /artifact and /keys
// routes expose the store itself, so any daemon can be another daemon's
// peer.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", s.instrument(&s.epCompile, s.handleCompile))
	mux.HandleFunc("POST /plan", s.instrument(&s.epPlan, s.handleInstall))
	mux.HandleFunc("GET /plan/{id}", s.instrument(&s.epPlan, s.handlePlan))
	mux.HandleFunc("GET /cost", s.instrument(&s.epCost, s.handleCost))
	mux.HandleFunc("GET /artifact/{id}", s.instrument(&s.epArtifact, func(w http.ResponseWriter, r *http.Request) {
		artifact.ServeGet(s.cfg.Store, w, r)
	}))
	mux.HandleFunc("PUT /artifact/{id}", s.instrument(&s.epArtifact, func(w http.ResponseWriter, r *http.Request) {
		artifact.ServePut(s.cfg.Store, w, r)
	}))
	mux.HandleFunc("GET /keys", s.instrument(&s.epArtifact, func(w http.ResponseWriter, r *http.Request) {
		artifact.ServeKeys(s.cfg.Store, w, r)
	}))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

// statusWriter captures the response status for endpoint metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (s *Server) instrument(ep *endpoint, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		ep.observe(sw.status, time.Since(start))
	}
}

// httpError is the uniform JSON error body.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// ---------------------------------------------------------- /compile --

// CompileRequest is the POST /compile (and the program half of the
// POST /plan) body.
type CompileRequest struct {
	// Prog names a builtin program: jacobi, sor, gauss, matmul.
	Prog string `json:"prog,omitempty"`
	// Source is Do-loop source text; it takes precedence over Prog.
	Source string `json:"source,omitempty"`
	M      int    `json:"m"`
	N      int    `json:"n"`
}

// CostReport is the re-priced plan at one size.
type CostReport struct {
	M           int     `json:"m"`
	Exec        float64 `json:"exec"`
	Redist      float64 `json:"redist"`
	LoopCarried float64 `json:"loopCarried"`
	Total       float64 `json:"total"`
	EvalNs      int64   `json:"evalNs"`
}

// CompileResponse is the POST /compile (and POST /plan) reply.
type CompileResponse struct {
	ID       string     `json:"id"`
	Key      string     `json:"key"`
	Cached   bool       `json:"cached"`
	Prog     string     `json:"prog"`
	BaseM    int        `json:"baseM"`
	N        int        `json:"n"`
	FitErr   string     `json:"fitErr,omitempty"`
	Formulas []string   `json:"formulas,omitempty"`
	Cost     CostReport `json:"cost"`
}

// program builds the IR program a request names.
func program(req *CompileRequest) (*ir.Program, error) {
	if req.Source != "" {
		p, err := ir.Parse(req.Source)
		if err != nil {
			return nil, fmt.Errorf("parsing source: %w", err)
		}
		return p, nil
	}
	if req.Prog == "" {
		return nil, errors.New("one of prog or source is required")
	}
	if p, ok := ir.Builtin(req.Prog); ok {
		return p, nil
	}
	return nil, fmt.Errorf("unknown program %q (want jacobi, sor, gauss or matmul)", req.Prog)
}

// compiler builds the compiler for a validated request — the same
// configuration the cache key is derived from, so request and key can
// never disagree. The daemon serves the production cost engine only: the
// exact-everything oracle is minutes per request at sizes MaxM admits and
// has no caller that is not a test (dmcc -engine prechange runs it).
func (s *Server) compiler(req *CompileRequest, p *ir.Program) (*core.Compiler, error) {
	if len(p.Params) != 1 {
		// The evaluator sweeps exactly one size parameter; reject here so
		// the binding below is well-defined.
		return nil, fmt.Errorf("program %s binds %d size parameters, the daemon serves exactly 1", p.Name, len(p.Params))
	}
	c := core.NewCompiler(p, cost.Unit(), map[string]int{p.Params[0]: req.M}, req.N)
	c.Jobs = s.cfg.Jobs
	c.Engines = &s.engines
	return c, nil
}

func validateBinding(w http.ResponseWriter, req *CompileRequest) bool {
	if req.M < 1 || req.M > MaxM {
		httpError(w, http.StatusBadRequest, "m=%d out of range [1, %d]", req.M, MaxM)
		return false
	}
	if req.N < 1 || req.N > MaxN {
		httpError(w, http.StatusBadRequest, "n=%d out of range [1, %d]", req.N, MaxN)
		return false
	}
	return true
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var body request
	if !readRequest(w, r, &body, false) {
		return
	}
	req := &body.CompileRequest
	if !validateBinding(w, req) {
		return
	}
	p, err := program(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c, err := s.compiler(req, p)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := sweep.PlanKey(c, req.M) // derived once: store address, plan id and reply

	type built struct {
		pe     *core.PlanEvaluator
		fitErr string
		cached bool
		err    error
	}
	done := make(chan built, 1)
	go func() {
		var b built
		// net/http's per-request recover cannot see this goroutine: an
		// unrecovered panic here would take the daemon down.
		b.err = core.Guard(func() (err error) {
			b.pe, b.fitErr, b.cached, err = planForKey(c, key, req.M, sweep.Options{
				Cache: s.cfg.Store, Jobs: s.cfg.Jobs, Warnf: s.cfg.Warnf,
			})
			return err
		})
		done <- b
	}()
	ctx := r.Context()
	if s.cfg.CompileTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.CompileTimeout)
		defer cancel()
	}
	var b built
	select {
	case b = <-done:
	case <-ctx.Done():
		// The compile keeps running in its single-flight; a retry of the
		// same request will find the finished artifact.
		httpError(w, http.StatusServiceUnavailable, "compile still running after %v; retry", s.cfg.CompileTimeout)
		return
	}
	if errors.Is(b.err, core.ErrPanic) {
		s.compilePanics.Add(1)
		httpError(w, http.StatusInternalServerError, "compile: %v", b.err)
		return
	}
	var outOfRange *ir.RangeError
	if errors.As(b.err, &outOfRange) {
		httpError(w, http.StatusBadRequest, "%v", b.err)
		return
	}
	if b.err != nil {
		httpError(w, http.StatusUnprocessableEntity, "compile: %v", b.err)
		return
	}
	if b.cached {
		s.compileHits.Add(1)
	} else {
		s.compiles.Add(1)
	}

	resp := CompileResponse{
		ID: PlanID(key), Key: key, Cached: b.cached,
		Prog: p.Name, BaseM: req.M, N: req.N,
		FitErr: b.fitErr, Formulas: b.pe.Formulas(),
	}
	entry := newPlanEntry(key, b.fitErr, b.pe)
	resp.Cost, err = s.evalEntry(entry, req.M)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "pricing plan: %v", err)
		return
	}
	s.register(resp.ID, entry)
	writeJSON(w, resp)
}

// register makes e the live plan under id, replacing any earlier entry;
// requests still holding the old entry finish on its evaluator. Callers
// price e first, so a plan that cannot be priced is never installed.
func (s *Server) register(id string, e *planEntry) {
	s.mu.Lock()
	s.plans[id] = e
	s.mu.Unlock()
}

func (s *Server) lookup(id string) *planEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plans[id]
}

// evalEntry re-prices the entry's plan at size m under the entry lock.
// Sizes the evaluator prices numerically are served from the per-plan
// memo on repeats — EvalNs records the original evaluation's cost, memo
// hits return it unchanged; fitted sizes evaluate every time.
func (s *Server) evalEntry(e *planEntry, m int) (CostReport, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s.costEvals.Add(1)
	numeric := !e.pe.FittedAt(m)
	if numeric {
		if rep, ok := e.memo[m]; ok {
			return rep, nil
		}
	}
	start := time.Now()
	pc, err := e.pe.EvalAt(m)
	if err != nil {
		return CostReport{}, err
	}
	rep := CostReport{
		M: m, Exec: pc.Exec, Redist: pc.Redist, LoopCarried: pc.LoopCarried,
		Total: pc.Total(), EvalNs: time.Since(start).Nanoseconds(),
	}
	if numeric {
		e.memo[m] = rep
	}
	return rep, nil
}

// ------------------------------------------------------------- /plan --

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e := s.lookup(id)
	if e == nil {
		httpError(w, http.StatusNotFound, "unknown plan %q (POST /compile to register it)", id)
		return
	}
	if payload, ok := s.cfg.Store.Get(e.key); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Write(payload)
		return
	}
	// Evicted from disk but still live in memory: re-freeze into the bytes
	// the store held. A thawed evaluator freezes back to the same plan
	// (decisions + fits), the entry supplies the fit diagnostic.
	payload, err := sweep.PlanPayload(e.pe, e.fitErr)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "re-freezing plan: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(payload)
}

// InstallRequest is the POST /plan body: a program configuration plus a
// frozen plan previously fetched from GET /plan/{id}.
type InstallRequest struct {
	CompileRequest
	Plan json.RawMessage `json:"plan"`
}

// handleInstall thaws a client-supplied frozen plan and registers it,
// skipping the compile entirely. Malformed and stale plans are client
// errors (422) — the daemon must survive any payload here.
func (s *Server) handleInstall(w http.ResponseWriter, r *http.Request) {
	var body request
	if !readRequest(w, r, &body, true) {
		return
	}
	req := &body.CompileRequest
	if !validateBinding(w, req) {
		return
	}
	if len(body.Plan) == 0 {
		httpError(w, http.StatusBadRequest, "plan is required")
		return
	}
	p, err := program(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c, err := s.compiler(req, p)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fp, err := body.frozenPlan()
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "malformed plan: %v", err)
		return
	}
	if fp.BaseM != req.M {
		httpError(w, http.StatusUnprocessableEntity, "plan baseM=%d does not match m=%d", fp.BaseM, req.M)
		return
	}
	pe, err := core.Thaw(c, fp)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "stale plan: %v", err)
		return
	}
	s.planThaws.Add(1)
	key := sweep.PlanKey(c, req.M)
	resp := CompileResponse{
		ID: PlanID(key), Key: key, Cached: true,
		Prog: p.Name, BaseM: req.M, N: req.N,
		FitErr: fp.FitErr, Formulas: pe.Formulas(),
	}
	entry := newPlanEntry(key, fp.FitErr, pe)
	resp.Cost, err = s.evalEntry(entry, req.M)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "pricing installed plan: %v", err)
		return
	}
	s.register(resp.ID, entry)
	writeJSON(w, resp)
}

// ------------------------------------------------------------- /cost --

func (s *Server) handleCost(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("key")
	if id == "" {
		httpError(w, http.StatusBadRequest, "key is required")
		return
	}
	mStr := r.URL.Query().Get("m")
	m, err := strconv.Atoi(mStr)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad m %q: %v", mStr, err)
		return
	}
	if m < 1 || m > MaxM {
		httpError(w, http.StatusBadRequest, "m=%d out of range [1, %d]", m, MaxM)
		return
	}
	e := s.lookup(id)
	if e == nil {
		httpError(w, http.StatusNotFound, "unknown plan %q (POST /compile to register it)", id)
		return
	}
	report, err := s.evalEntry(e, m)
	if err != nil {
		// A plan that cannot be priced at this size is the client's m,
		// not a daemon fault.
		httpError(w, http.StatusUnprocessableEntity, "pricing at m=%d: %v", m, err)
		return
	}
	writeJSON(w, report)
}

// ---------------------------------------------------------- /metrics --

// Metrics returns the current snapshot (also served as GET /metrics).
func (s *Server) Metrics() MetricsSnapshot {
	st := s.cfg.Store.Stats()
	s.mu.Lock()
	live := len(s.plans)
	s.mu.Unlock()
	return MetricsSnapshot{
		Store: StoreSnapshot{
			Hits: st.Hits, Misses: st.Misses, Puts: st.Puts,
			TouchFails: st.TouchFails, Evictions: st.Evictions,
			InFlight:      s.cfg.Store.InFlight(),
			LocalHits:     st.LocalHits,
			RemoteHits:    st.RemoteHits,
			RemoteErrors:  st.RemoteErrors,
			PrewarmedKeys: st.Prewarmed,
		},
		Server: ServerSnapshot{
			Compiles:       s.compiles.Load(),
			CompileHits:    s.compileHits.Load(),
			CompilePanics:  s.compilePanics.Load(),
			PlanThaws:      s.planThaws.Load(),
			CostEvals:      s.costEvals.Load(),
			PlansLive:      live,
			PrewarmedPlans: s.prewarmedPlans.Load(),
			Engines:        s.engines.Snapshot(),
		},
		Endpoints: map[string]EndpointSnapshot{
			"compile":  s.epCompile.snapshot(),
			"plan":     s.epPlan.snapshot(),
			"cost":     s.epCost.snapshot(),
			"artifact": s.epArtifact.snapshot(),
		},
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Metrics())
}

// ----------------------------------------------------------- online GC --

// GCLoop runs the store's byte-budget GC every interval until ctx is
// done — the online eviction loop the daemon runs against live
// GetOrCompute traffic. Safe because GC skips keys with active flights
// and the in-process recency index protects just-put records.
func (s *Server) GCLoop(ctx context.Context, every time.Duration, maxBytes int64) {
	if maxBytes <= 0 || every <= 0 {
		return
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := s.cfg.Store.GC(maxBytes); err != nil {
				s.warnf("serve: gc: %v", err)
			}
		}
	}
}
