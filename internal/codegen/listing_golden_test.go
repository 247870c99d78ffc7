package codegen

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/listings.golden from this tree")

// TestListingsGolden pins the SPMD listing of every builtin's compiled
// plan, or the error that refuses it, at m = 64 over N = 1..64, and of
// gauss at m = 16, N = 32, whose plan has three segments (cyclic, block,
// cyclic). Run with -update to rewrite the golden after a deliberate
// change to the listing.
func TestListingsGolden(t *testing.T) {
	type listingCase struct {
		prog string
		m, n int
	}
	var cases []listingCase
	for _, prog := range []string{"jacobi", "sor", "gauss", "matmul"} {
		for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
			cases = append(cases, listingCase{prog, 64, n})
		}
	}
	cases = append(cases, listingCase{"gauss", 16, 32})
	var b strings.Builder
	for _, tc := range cases {
		p, ok := ir.Builtin(tc.prog)
		if !ok {
			t.Fatalf("no builtin %q", tc.prog)
		}
		bind, err := p.BindSize(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.NewCompiler(p, cost.Unit(), bind, tc.n).Compile()
		if err != nil {
			t.Fatalf("%s m=%d N=%d: %v", tc.prog, tc.m, tc.n, err)
		}
		fmt.Fprintf(&b, "=== %s m=%d N=%d ===\n", tc.prog, tc.m, tc.n)
		if code, err := Program(p, res); err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
		} else {
			b.WriteString(code)
		}
	}
	got := b.String()
	const path = "testdata/listings.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("listings differ from %s (regenerate with -update only for a deliberate listing change)\n got:\n%s", path, got)
	}
}
