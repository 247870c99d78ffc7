package core_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
	"dmcc/internal/sweep"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/cachekeys.golden from this tree")

// TestCacheKeyStable pins Compiler.CacheKey and sweep.PlanKey — the text
// and the address every stored artifact and plan lives under — for the
// four builtin programs under both engines. The golden was regenerated
// once, with the artifact.SchemaVersion 2 -> 3 bump that retired the
// trailing ";collredist=false" fragment (the only difference from the
// golden before it); stores populated by earlier builds read as misses
// under the new schema either way. Its "greedy" rows went with the option
// (every in-tree program is under align.ExactMaxNodes); the rows left are
// byte for byte the ones that were there, "exact" label included.
func TestCacheKeyStable(t *testing.T) {
	const m, n = 64, 16
	var b strings.Builder
	for _, name := range ir.BuiltinNames() {
		for _, engine := range []string{"fast", "prechange"} {
			p, _ := ir.Builtin(name)
			newCompiler := core.NewCompiler
			if engine == "prechange" {
				newCompiler = core.NewOracleCompiler
			}
			c := newCompiler(p, cost.Unit(), map[string]int{"m": m}, n)
			fmt.Fprintf(&b, "%s %s exact\n  %s\n  %s\n", name, engine, c.CacheKey(), sweep.PlanKey(c, m))
		}
	}
	got := b.String()
	const path = "testdata/cachekeys.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("cache keys differ from %s (a change here orphans every stored artifact; regenerate with -update only with an artifact.SchemaVersion bump)\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
