// Cache-key derivation: the canonical key text that makes compile
// artifacts content-addressable. Everything that can change a Compile()
// result is folded in — the program (hashed through its printed source,
// which ir.Print renders deterministically), the parameter binding, the
// processor count, the cost model, the alignment weights, and every
// engine flag (the alignment algorithm is a function of the program, so
// it needs no fragment). Jobs is deliberately excluded: parallel runs are
// bit-identical to serial ones (TestParallelCompileDeterministic), so
// worker count must not split the cache.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"dmcc/internal/ir"
)

// programHashes counts ProgramHash calls. Each prints and hashes the whole
// program, so tests pin how many a request makes.
var programHashes atomic.Int64

// ProgramHashCalls returns the number of ProgramHash calls so far.
func ProgramHashCalls() int64 { return programHashes.Load() }

// ProgramHash returns the sha-256 (hex) of the program's canonical
// printed form — a stable content address for the IR.
func ProgramHash(p *ir.Program) string {
	programHashes.Add(1)
	h := sha256.Sum256([]byte(ir.Print(p)))
	return hex.EncodeToString(h[:])
}

// CacheKey returns the canonical cache key text for this compiler
// configuration. Two compilers with equal CacheKeys produce identical
// Compile() results; the artifact store hashes this text to address the
// cached result.
func (c *Compiler) CacheKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "prog=%s", ProgramHash(c.Program))
	names := make([]string, 0, len(c.Bind))
	for k := range c.Bind {
		names = append(names, k)
	}
	sort.Strings(names)
	b.WriteString(";bind=")
	for i, k := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", k, c.Bind[k])
	}
	fmt.Fprintf(&b, ";n=%d;tf=%g;tc=%g", c.NProcs, c.Model.Tf, c.Model.Tc)
	fmt.Fprintf(&b, ";wN=%d;wTc=%g;wBind=", c.Weights.N, c.Weights.Tc)
	wnames := make([]string, 0, len(c.Weights.Bind))
	for k := range c.Weights.Bind {
		wnames = append(wnames, k)
	}
	sort.Strings(wnames)
	for i, k := range wnames {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", k, c.Weights.Bind[k])
	}
	// ";greedy=false" and ";pipered=false" name retired options; they go
	// at the next artifact.SchemaVersion bump.
	fmt.Fprintf(&b, ";greedy=false;exactnest=%t;exactchange=%t;nocache=%t;pipered=false",
		c.ExactNestCount, c.ExactChangeCost, c.noCache)
	return b.String()
}
