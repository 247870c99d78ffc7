// Startup prewarming: turning a peer's key inventory into live plan
// evaluators before the first request arrives. The store's pull
// (artifact.Store.Prewarm) moves the frozen-plan bytes; this file closes
// the loop by reconstructing, for every planfit key the daemon can parse,
// the exact compiler configuration that produced it, and thawing the
// stored plan into the in-memory registry — so a freshly started
// daemon B answers GET /cost for plans only daemon A ever compiled.
//
// The parser is deliberately strict: a candidate configuration is
// accepted only if re-deriving its key reproduces the inventory key
// byte-for-byte (the same guard the disk record header uses for hash
// collisions). Keys from foreign cost models, source-text programs, the
// oracle engine or future engine flags simply don't round-trip and are
// skipped — prewarming is best-effort by design.
package serve

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"dmcc/internal/core"
	"dmcc/internal/ir"
	"dmcc/internal/sweep"
)

// builtinByHash maps ProgramHash -> builtin program name, computed on
// the first key parsed: the inverse of ir.Builtin, for key parsing.
var builtinByHash = sync.OnceValue(func() map[string]string {
	m := map[string]string{}
	for _, name := range ir.BuiltinNames() {
		p, _ := ir.Builtin(name)
		m[core.ProgramHash(p)] = name
	}
	return m
})

// parsePlanKey reconstructs the CompileRequest a planfit key encodes,
// or ok=false for any key the daemon cannot (or should not) serve.
func parsePlanKey(key string) (req CompileRequest, ok bool) {
	if !strings.HasPrefix(key, "kind=planfit;") {
		return req, false
	}
	fields := map[string]string{}
	for _, part := range strings.Split(key, ";") {
		if k, v, found := strings.Cut(part, "="); found {
			// Later duplicates never occur in well-formed keys; first wins
			// keeps the prefix fields (kind, prog) authoritative.
			if _, dup := fields[k]; !dup {
				fields[k] = v
			}
		}
	}
	prog, ok := builtinByHash()[fields["prog"]]
	if !ok {
		return req, false // source-text program: not reconstructible from a hash
	}
	req.Prog = prog
	// bind=<param>=<M>: one parameter by construction (the daemon rejects
	// multi-parameter programs at compile time).
	_, mStr, found := strings.Cut(fields["bind"], "=")
	if !found {
		return req, false
	}
	m, err := strconv.Atoi(mStr)
	if err != nil || m < 1 || m > MaxM {
		return req, false
	}
	req.M = m
	n, err := strconv.Atoi(fields["n"])
	if err != nil || n < 1 || n > MaxN {
		return req, false
	}
	req.N = n
	// The fit spec pins the base size the plan was fitted at; a daemon
	// key always fits at the bound M.
	if fields["fit"] != fmt.Sprintf("minM%d,deg3,val2", m) {
		return req, false
	}
	return req, true
}

// PrewarmPlans scans an artifact-key inventory for planfit keys this
// daemon can serve, thaws each stored frozen plan, and registers the
// evaluator. It returns the number of plans brought live. Unparseable
// keys, missing payloads and stale plans are skipped (with a warning
// for the latter two — they indicate peer-side damage, not foreign
// keys), never errors: prewarming failure must not stop a daemon from
// starting cold.
func (s *Server) PrewarmPlans(keys []string) int {
	warmed := 0
	for _, key := range keys {
		req, ok := parsePlanKey(key)
		if !ok {
			continue
		}
		p, err := program(&req)
		if err != nil {
			continue
		}
		c, err := s.compiler(&req, p)
		if err != nil {
			continue
		}
		// The round-trip guard: only a configuration that re-derives the
		// inventory key byte-for-byte may claim its payload.
		if sweep.PlanKey(c, req.M) != key {
			continue
		}
		payload, ok := s.cfg.Store.Get(key)
		if !ok {
			s.warnf("serve: prewarm: %s parsed but has no payload", PlanID(key)[:12])
			continue
		}
		var fp core.FrozenPlan
		if err := fp.UnmarshalJSON(payload); err != nil {
			s.warnf("serve: prewarm: %s: malformed frozen plan: %v", PlanID(key)[:12], err)
			continue
		}
		pe, err := core.Thaw(c, &fp)
		if err != nil {
			s.warnf("serve: prewarm: %s: stale plan: %v", PlanID(key)[:12], err)
			continue
		}
		s.register(PlanID(key), newPlanEntry(key, fp.FitErr, pe))
		s.prewarmedPlans.Add(1)
		warmed++
	}
	return warmed
}
