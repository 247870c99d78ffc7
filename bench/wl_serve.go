package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"dmcc/internal/artifact"
	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
	"dmcc/internal/serve"
	"dmcc/internal/sweep"
)

// The serve workloads drive an in-process dmccd (serve.New over a
// temporary disk store) through a real loopback listener with one
// keep-alive connection: one closed-loop client, as a program calling
// the daemon would be.
const (
	serveN     = 16
	serveBaseM = 256
	// serveBatch requests run between two yardsticks: at 50-60 µs each
	// the batch is about four yardsticks long, short enough to follow
	// the host's speed states.
	serveBatch = 500
	// Sizes requested start at serveFirstM = 5·baseM, past every plan's
	// fit floor, so a re-pricing is always a polynomial evaluation.
	serveFirstM = 5 * serveBaseM
	// sampleEvery-th replies are kept and checked against an evaluator
	// thawed in the harness.
	sampleEvery = 97
)

// servePlans are the plans every serve workload warms, with the
// constructors the harness thaws them over.
var servePlans = []struct {
	prog string
	mk   func() *ir.Program
}{
	{"gauss", ir.Gauss}, {"jacobi", ir.Jacobi}, {"sor", ir.SOR},
}

// daemon is one running in-process dmccd and its client.
type daemon struct {
	dir     string
	store   *artifact.Store
	srv     *serve.Server
	handler http.Handler
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	ids     []string // plan id per servePlans entry
	coldMS  []float64
	body    bytes.Buffer // the last reply, reused
	non2xx  int
	tr      *tracer // the traced run's recorder, or nil
}

// routeOf names the route a request path belongs to.
func routeOf(path string) string {
	switch {
	case strings.HasPrefix(path, "/plan/"):
		return "/plan/{id}"
	case strings.HasPrefix(path, "/artifact/"):
		return "/artifact/{id}"
	}
	return path
}

// spanHandler records a server-side span around the daemon's handler
// for every request that arrives while a traced op is open; the span
// hangs under the client-side span of the same request.
func spanHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := tr.under("serve.Handler " + r.Method + " " + routeOf(r.URL.Path))
		h.ServeHTTP(w, r)
		if id != 0 {
			tr.closeSpan(id)
		}
	})
}

// startDaemon opens a fresh store under out/, serves it on a loopback
// port and compiles the plans cold. With a tracer the daemon's handler
// is wrapped in the server-side span recorder.
func startDaemon(tr *tracer) (*daemon, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "store-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, served: make(chan error, 1), tr: tr}
	fail := func(err error) (*daemon, error) {
		d.stop()
		return nil, err
	}
	if d.store, err = artifact.Open(dir); err != nil {
		return fail(err)
	}
	if d.srv, err = serve.New(serve.Config{Store: d.store}); err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	d.handler = d.srv.Handler()
	if tr != nil {
		d.handler = spanHandler(tr, d.handler)
	}
	d.hs = &http.Server{Handler: d.handler}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.base = "http://" + ln.Addr().String()
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	for _, pl := range servePlans {
		start := time.Now()
		var cr serve.CompileResponse
		if err := d.postJSON("/compile", compileBody(pl.prog), &cr); err != nil {
			return fail(fmt.Errorf("warming %s: %w", pl.prog, err))
		}
		d.coldMS = append(d.coldMS, msSince(start))
		d.ids = append(d.ids, cr.ID)
	}
	return d, nil
}

// stop shuts the listener, waits for the serving goroutine and removes
// the store.
func (d *daemon) stop() {
	if d.hs != nil {
		d.hs.Close()
		<-d.served
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	os.RemoveAll(d.dir)
}

func compileBody(prog string) []byte {
	return []byte(fmt.Sprintf(`{"prog":%q,"m":%d,"n":%d}`, prog, serveBaseM, serveN))
}

// do sends one request and leaves the reply in d.body. While a traced
// op is open the round trip is a span: its self time is the client, the
// loopback wire and net/http's server side around the daemon's handler.
func (d *daemon) do(method, path string, body []byte) error {
	if d.tr != nil && d.tr.active() {
		d.tr.push("client." + method + " " + routeOf(strings.SplitN(path, "?", 2)[0]))
		defer d.tr.pop()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	d.body.Reset()
	_, err = d.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		d.non2xx++
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(d.body.Bytes()))
	}
	return nil
}

func (d *daemon) postJSON(path string, body []byte, into any) error {
	if err := d.do("POST", path, body); err != nil {
		return err
	}
	return json.Unmarshal(d.body.Bytes(), into)
}

func (d *daemon) getCost(plan, m int) error {
	return d.do("GET", "/cost?key="+d.ids[plan]+"&m="+strconv.Itoa(m), nil)
}

// migrate moves a plan the way a restarting daemon or a peer would:
// fetch the frozen plan, install it back without compiling.
func (d *daemon) migrate(plan int) error {
	if err := d.do("GET", "/plan/"+d.ids[plan], nil); err != nil {
		return err
	}
	frozen := d.body.Bytes()
	body := make([]byte, 0, len(frozen)+64)
	body = append(body, compileBody(servePlans[plan].prog)...)
	body = append(body[:len(body)-1], `,"plan":`...)
	body = append(append(body, frozen...), '}')
	return d.do("POST", "/plan", body)
}

func (d *daemon) compileWarm(plan int) error {
	return d.do("POST", "/compile", compileBody(servePlans[plan].prog))
}

// serveCompiler is the compiler configuration the harness thaws plan k
// over: the one the daemon derives from the same request.
func serveCompiler(k int) *core.Compiler {
	return core.NewCompiler(servePlans[k].mk(), cost.Unit(), map[string]int{"m": serveBaseM}, serveN)
}

// fetchPlan gets plan k's frozen form over the wire.
func (d *daemon) fetchPlan(k int) (*core.FrozenPlan, error) {
	if err := d.do("GET", "/plan/"+d.ids[k], nil); err != nil {
		return nil, err
	}
	var fp core.FrozenPlan
	if err := json.Unmarshal(d.body.Bytes(), &fp); err != nil {
		return nil, err
	}
	return &fp, nil
}

// thawPlans fetches every plan over the wire and thaws it in the
// harness: the reference the daemon's replies are checked against.
func (d *daemon) thawPlans() ([]*core.PlanEvaluator, error) {
	refs := make([]*core.PlanEvaluator, len(servePlans))
	for k := range servePlans {
		fp, err := d.fetchPlan(k)
		if err != nil {
			return nil, err
		}
		if refs[k], err = core.Thaw(serveCompiler(k), fp); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// costSample is one kept /cost reply.
type costSample struct {
	plan   int
	report serve.CostReport
	bytes  int
}

// checkCostReply compares a reply with the harness's own evaluation.
func checkCostReply(ref *core.PlanEvaluator, rep serve.CostReport) error {
	pc, err := ref.EvalAt(rep.M)
	if err != nil {
		return err
	}
	if !sameCost(rep.Exec, pc.Exec) || !sameCost(rep.Redist, pc.Redist) ||
		!sameCost(rep.LoopCarried, pc.LoopCarried) || !sameCost(rep.Total, pc.Total()) {
		return fmt.Errorf("m=%d: daemon replied %+v, harness evaluates %+v", rep.M, rep, pc)
	}
	return nil
}

// checkSamples verifies kept replies against freshly thawed plans.
func (d *daemon) checkSamples(samples []costSample, out *outcome) error {
	refs, err := d.thawPlans()
	if err != nil {
		return err
	}
	for _, s := range samples {
		out.verifyChecked++
		if err := checkCostReply(refs[s.plan], s.report); err != nil {
			out.verifyFailed++
			out.notes = append(out.notes, servePlans[s.plan].prog+" "+err.Error())
		}
	}
	return nil
}

// --------------------------------------------------------- serve-cost --

// costBlock is how many requests form one block of the serve-cost
// sequence: every plan at costSizes consecutive sizes. A block's
// requests are a seeded shuffle of that fixed set and blocks never
// share a size, so no (plan, m) is ever asked twice, and the set asked
// in the first block — the one the modelled cost sums — is the same for
// every seed.
const (
	costSizes = 333
	costBlock = 3 * costSizes
	// costBlocks bounds the sizes below serve.MaxM; a window longer than
	// costBlocks blocks starts over.
	costBlocks = 3000
)

// costReq decodes position idx of block b.
func costReq(b, idx int) (plan, m int) {
	return idx % len(servePlans), serveFirstM + (b%costBlocks)*costSizes + idx/len(servePlans)
}

// blockOrder is the seeded part of a serve workload's request
// sequence: every block asks a fixed set of requests, in an order drawn
// from the seed.
type blockOrder struct {
	rng *rand.Rand
	n   int
}

func newBlockOrder(seed int64, n int) *blockOrder {
	return &blockOrder{rand.New(rand.NewSource(seed)), n}
}

// next is the next block's order: a permutation of its n positions.
func (b *blockOrder) next() []int { return b.rng.Perm(b.n) }

// serveRun is what the two serve workloads share: the daemon, the
// seeded order of the current block, and what is kept of the replies.
type serveRun struct {
	tr       *tracer // the traced run's recorder, or nil
	d        *daemon
	blockLen int
	orders   *blockOrder
	block    int
	order    []int         // the current block's shuffle
	totals   []float64     // first block's totals by canonical position
	samples  []costSample  // replies kept for the oracle
	base     serveCounters // the daemon's counters when set-up ended
}

// start brings up a fresh daemon and the seeded sequence.
func (r *serveRun) start(seed int64, blockLen int) error {
	d, err := startDaemon(r.tr)
	if err != nil {
		return err
	}
	*r = serveRun{tr: r.tr, d: d, blockLen: blockLen, orders: newBlockOrder(seed, blockLen), totals: make([]float64, blockLen)}
	return nil
}

// ready ends a set-up: the first block's order is drawn and the
// daemon's counters are noted.
func (r *serveRun) ready() {
	r.order = r.orders.next()
	r.base = r.d.counters()
}

func (r *serveRun) teardown() {
	if r.d != nil {
		r.d.stop()
		r.d = nil
	}
}

// position is op i's place in the current block's canonical order.
func (r *serveRun) position(i int) int { return r.order[i%r.blockLen] }

// keep records op i's total (first block) and moves on to the next
// block behind the last op of this one.
func (r *serveRun) keep(i int, total float64) {
	if r.block == 0 {
		r.totals[r.position(i)] = total
	}
	if i%r.blockLen == r.blockLen-1 {
		r.block++
		r.order = r.orders.next()
	}
}

func (r *serveRun) sample(i, plan int, rep serve.CostReport) {
	if i%sampleEvery == 0 {
		r.samples = append(r.samples, costSample{plan, rep, r.d.body.Len()})
	}
}

func (r *serveRun) layers(lc *layerContext) error { return r.d.layers(lc, r.base, r.samples) }

// finish totals the first block's replies and checks the kept samples.
func (r *serveRun) finish(n int, out *outcome) error {
	if n < r.blockLen {
		return fmt.Errorf("%d ops ran, the modelled cost needs the first block of %d", n, r.blockLen)
	}
	for _, t := range r.totals {
		out.modelledCost += t
	}
	return r.d.checkSamples(r.samples, out)
}

type serveCost struct{ serveRun }

func (w *serveCost) batch() int            { return serveBatch }
func (w *serveCost) opsPerSecond() float64 { return 12000 }
func (w *serveCost) tracedOps() int        { return 4 * serveBatch }

func (w *serveCost) setup(seed int64) error {
	if err := w.start(seed, costBlock); err != nil {
		return err
	}
	// One untimed batch warms the connection, the mux and the plans'
	// evaluators at sizes from the block before the first.
	for i := 0; i < serveBatch; i++ {
		plan, m := costReq(costBlocks-1, i)
		if err := w.d.getCost(plan, m); err != nil {
			return err
		}
	}
	w.ready()
	return nil
}

func (w *serveCost) op(i int) error {
	plan, m := costReq(w.block, w.position(i))
	return w.d.getCost(plan, m)
}

func (w *serveCost) tracedOp(i int, _ *tracer) error { return w.op(i) }

func (w *serveCost) after(i int) {
	var rep serve.CostReport
	if w.block == 0 || i%sampleEvery == 0 {
		if json.Unmarshal(w.d.body.Bytes(), &rep) == nil {
			plan, _ := costReq(w.block, w.position(i))
			w.sample(i, plan, rep)
		}
	}
	w.keep(i, rep.Total)
}

func (w *serveCost) finish(n int) (outcome, error) {
	var out outcome
	err := w.serveRun.finish(n, &out)
	return out, err
}

// -------------------------------------------------------- serve-mixed --

// The mixed sequence is built from blocks of mixedBlock ops with fixed
// class counts — 70% reads (half at memo-hot sizes, half at sizes never
// asked before), 15% migrations, 15% warm compiles — in seeded order.
// With these weights the median op is a read and the 90th percentile
// falls inside the costlier write class, never on a class boundary.
const (
	mixedBlock   = 1000
	mixedHot     = 350
	mixedCold    = 350
	mixedMigrate = 150
	mixedCompile = 150
	mixedHotM    = 4 // hot sizes per plan
	// mixedBatch ops run between two yardsticks; an op here is a dozen
	// times a serve-cost request on average, so the batch is shorter.
	mixedBatch = 100
	// Cold sizes start above the hot ones.
	mixedColdFirstM = serveFirstM + 1000
	mixedColdSizes  = (mixedCold + 2) / 3
)

type mixedClass int

const (
	classHot mixedClass = iota
	classCold
	classMigrate
	classCompile
)

// mixedReq decodes position idx of block b into an op.
func mixedReq(b, idx int) (class mixedClass, plan, m int) {
	plan = idx % len(servePlans)
	switch {
	case idx < mixedHot:
		return classHot, plan, serveFirstM + (idx/len(servePlans))%mixedHotM
	case idx < mixedHot+mixedCold:
		return classCold, plan, mixedColdFirstM + (b%costBlocks)*mixedColdSizes + (idx-mixedHot)/len(servePlans)
	case idx < mixedHot+mixedCold+mixedMigrate:
		return classMigrate, plan, serveBaseM
	}
	return classCompile, plan, serveBaseM
}

type serveMixed struct {
	serveRun
	seen firstSeen
}

func (w *serveMixed) batch() int            { return mixedBatch }
func (w *serveMixed) opsPerSecond() float64 { return 1400 }
func (w *serveMixed) tracedOps() int        { return 20 * mixedBatch }

func (w *serveMixed) setup(seed int64) error {
	if err := w.start(seed, mixedBlock); err != nil {
		return err
	}
	w.seen = firstSeen{}
	for _, idx := range w.orders.next()[:serveBatch] {
		if err := w.run(costBlocks-1, idx); err != nil {
			return err
		}
	}
	w.ready()
	return nil
}

func (w *serveMixed) run(block, idx int) error {
	class, plan, m := mixedReq(block, idx)
	switch class {
	case classMigrate:
		return w.d.migrate(plan)
	case classCompile:
		return w.d.compileWarm(plan)
	}
	return w.d.getCost(plan, m)
}

func (w *serveMixed) op(i int) error { return w.run(w.block, w.position(i)) }

func (w *serveMixed) tracedOp(i int, _ *tracer) error { return w.op(i) }

// replyDigest folds a reply without its wall-clock field.
func replyDigest(rep serve.CostReport, rest ...string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%x|%x|%x|%x", rep.M, math.Float64bits(rep.Exec), math.Float64bits(rep.Redist),
		math.Float64bits(rep.LoopCarried), math.Float64bits(rep.Total))
	for _, s := range rest {
		h.Write([]byte{0})
		h.Write([]byte(s))
	}
	return h.Sum64()
}

func (w *serveMixed) after(i int) {
	class, plan, m := mixedReq(w.block, w.position(i))
	var rep serve.CostReport
	var err error
	if class == classHot || class == classCold {
		if err = json.Unmarshal(w.d.body.Bytes(), &rep); err == nil {
			if class == classHot {
				w.seen.observe(fmt.Sprintf("cost/%d/%d", plan, m), replyDigest(rep))
			}
			w.sample(i, plan, rep)
		}
	} else {
		var cr serve.CompileResponse
		if err = json.Unmarshal(w.d.body.Bytes(), &cr); err == nil {
			rep = cr.Cost
			w.seen.observe(fmt.Sprintf("plan/%d", plan), replyDigest(rep, cr.ID, cr.Key, cr.Prog, cr.FitErr, fmt.Sprint(cr.BaseM, cr.N, cr.Formulas)))
		}
	}
	if err != nil {
		w.seen.differ++ // an undecodable reply is not the reply the first one was
	}
	w.keep(i, rep.Total)
}

func (w *serveMixed) finish(n int) (outcome, error) {
	out := outcome{nondeterministic: w.seen.differ}
	err := w.serveRun.finish(n, &out)
	return out, err
}

// ------------------------------------------------------ serve layers --

// serveCounters are the daemon's and its store's cumulative counters.
type serveCounters struct {
	server serve.ServerSnapshot
	store  artifact.Stats
	non2xx int
}

func (d *daemon) counters() serveCounters {
	return serveCounters{d.srv.Metrics().Server, d.store.Stats(), d.non2xx}
}

// loop times n calls of f as one probe and returns the per-call time in
// microseconds, host-normalised.
func loopUS(reps, n int, f func(i int) error) (float64, error) {
	round := 0
	ms, err := probe(reps, func() error {
		for i := 0; i < n; i++ {
			if err := f(round*n + i); err != nil {
				return err
			}
		}
		round++
		return nil
	})
	return 1e3 * ms / float64(n), err
}

// layers fills the serve, artifact, core and sweep metrics of a serve
// workload: round trips from the client spans, the daemon's own
// counters over both windows, and probes of each route, of the handler
// without a wire, of the store and of the evaluator behind /cost.
func (d *daemon) layers(lc *layerContext, base serveCounters, samples []costSample) error {
	// Counters first: the probes below hit the same daemon.
	now := d.counters()
	ops := float64(lc.windowOps)
	lc.set("serve.cost_evals", float64(now.server.CostEvals-base.server.CostEvals)/ops)
	lc.set("serve.compiles", float64(now.server.Compiles-base.server.Compiles)/ops)
	lc.set("serve.compile_hits", float64(now.server.CompileHits-base.server.CompileHits)/ops)
	lc.set("serve.plan_thaws", float64(now.server.PlanThaws-base.server.PlanThaws)/ops)
	lc.set("serve.non2xx", float64(now.non2xx-base.non2xx))
	lc.set("artifact.hits", float64(now.store.Hits-base.store.Hits)/ops)
	lc.set("artifact.misses", float64(now.store.Misses-base.store.Misses)/ops)
	lc.set("artifact.puts", float64(now.store.Puts-base.store.Puts)/ops)
	lc.set("serve.cost_server_p50_us", d.srv.Metrics().Endpoints["cost"].P50us)
	lc.set("serve.compile_cold_ms", median(d.coldMS)*lc.setupSpeed)

	// Round trips of the traced requests, per request and normalised by
	// the speed their batch saw.
	var rtt []float64
	for i := range lc.spans {
		if s := &lc.spans[i]; s.Name == "client.GET /cost" {
			rtt = append(rtt, float64(s.durNS())/1e3*lc.speed[s.OpID-1])
		}
	}
	if len(rtt) > 0 {
		asc := sorted(rtt)
		lc.set("serve.cost_rtt_us", percentile(asc, 0.5))
		lc.set("serve.cost_rtt_p99_us", percentile(asc, 0.99))
	}
	if len(samples) > 0 {
		var evalNS, bytes []float64
		for _, s := range samples {
			evalNS = append(evalNS, float64(s.report.EvalNs))
			bytes = append(bytes, float64(s.bytes))
		}
		lc.set("serve.cost_evalns_p50", median(evalNS))
		lc.set("serve.reply_bytes", median(bytes))
	}

	// Route probes. Sizes start above anything the windows asked, so
	// /cost is never answered from the memo.
	const n = 400
	probeM := serve.MaxM - 64*n
	var err error
	us := map[string]float64{}
	for _, pr := range []struct {
		metric string
		f      func(i int) error
	}{
		{"serve.healthz_rtt_us", func(int) error { return d.do("GET", "/healthz", nil) }},
		{"serve.cost_handler_us", func(i int) error {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest("GET", "/cost?key="+d.ids[i%len(d.ids)]+"&m="+strconv.Itoa(probeM+i), nil)
			d.handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("handler replied %d: %s", rec.Code, rec.Body)
			}
			return nil
		}},
		{"serve.compile_warm_us", func(i int) error { return d.compileWarm(i % len(d.ids)) }},
		{"serve.plan_get_us", func(i int) error { return d.do("GET", "/plan/"+d.ids[i%len(d.ids)], nil) }},
	} {
		if us[pr.metric], err = loopUS(3, n, pr.f); err != nil {
			return fmt.Errorf("%s: %w", pr.metric, err)
		}
		lc.set(pr.metric, us[pr.metric])
	}
	// A migration is a fetch and an install; the install is what is left.
	migrate, err := loopUS(3, n, func(i int) error { return d.migrate(i % len(d.ids)) })
	if err != nil {
		return err
	}
	lc.set("serve.plan_install_us", migrate-us["serve.plan_get_us"])

	// The evaluator behind /cost and the thaw behind POST /plan, on plans
	// fetched over the wire.
	var frozen []*core.FrozenPlan
	for k := range servePlans {
		fp, err := d.fetchPlan(k)
		if err != nil {
			return err
		}
		frozen = append(frozen, fp)
	}
	refs := make([]*core.PlanEvaluator, len(frozen))
	thaw, err := loopUS(3, len(frozen)*20, func(i int) (err error) {
		k := i % len(frozen)
		refs[k], err = core.Thaw(serveCompiler(k), frozen[k])
		return err
	})
	if err != nil {
		return err
	}
	lc.set("core.thaw_us", thaw)
	evalAt, err := loopUS(3, 3000, func(i int) error {
		_, err := refs[i%len(refs)].EvalAt(probeM + i)
		return err
	})
	if err != nil {
		return err
	}
	lc.set("core.evalat_ns", 1e3*evalAt)
	bytes := 0
	for _, fp := range frozen {
		blob, err := json.Marshal(fp)
		if err != nil {
			return err
		}
		bytes += len(blob)
	}
	lc.set("core.plan_bytes", float64(bytes)/float64(len(frozen)))

	// PlanFor's warm path, what a warm POST /compile runs under the
	// handler: store hit, unmarshal, thaw.
	warm, err := loopUS(3, len(servePlans)*20, func(i int) error {
		k := i % len(servePlans)
		_, _, cached, err := sweep.PlanFor(serveCompiler(k), serveBaseM, sweep.Options{Cache: d.store})
		if err == nil && !cached {
			err = fmt.Errorf("PlanFor %s missed a warm store", servePlans[k].prog)
		}
		return err
	})
	if err != nil {
		return err
	}
	lc.set("sweep.planfor_warm_ms", warm/1e3)
	return artifactLayer(lc, bytes/len(frozen))
}

// artifactLayer times the disk store's four paths on a payload the size
// of a frozen plan, in a store of its own.
func artifactLayer(lc *layerContext, payloadBytes int) error {
	dir, err := os.MkdirTemp(outDir, "artifact-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := artifact.Open(dir)
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte("plan"), payloadBytes/4+1)[:payloadBytes]
	const n = 200
	key := func(i int) string { return artifact.KeyOf("bench", strconv.Itoa(i)) }
	put, err := loopUS(3, n, func(i int) error { return st.Put(key(i), payload) })
	if err != nil {
		return err
	}
	miss := errors.New("unexpected store answer")
	hit, err := loopUS(3, n, func(i int) error {
		if _, ok := st.Get(key(i % n)); !ok {
			return miss
		}
		return nil
	})
	if err != nil {
		return err
	}
	missed, err := loopUS(3, n, func(i int) error {
		if _, ok := st.Get(key(-1 - i)); ok {
			return miss
		}
		return nil
	})
	if err != nil {
		return err
	}
	computeHit, err := loopUS(3, n, func(i int) error {
		_, cached, err := st.GetOrCompute(key(i%n), func() ([]byte, error) { return nil, miss })
		if err == nil && !cached {
			err = miss
		}
		return err
	})
	lc.set("artifact.put_us", put)
	lc.set("artifact.get_hit_us", hit)
	lc.set("artifact.get_miss_us", missed)
	lc.set("artifact.getorcompute_hit_us", computeHit)
	return err
}
