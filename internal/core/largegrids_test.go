package core

import (
	"fmt"
	"testing"

	"dmcc/internal/cost"
	"dmcc/internal/ir"
)

// TestClosedFormsMatchOracleAtLargeN prices every nest of jacobi, sor and
// gauss at m = 32 under the schemes the compiler derives on every
// factor-pair grid of N = 256 and 1024 processors — the set-ups where
// most ranks own nothing and each footprint meets few of the owner cells
// — and requires the closed forms to answer, word for word, what the
// reference enumeration counts. Its time budget is 10 s, most of it the
// enumeration at N = 1024; it takes about 4.5 s on a 2-core VM.
func TestClosedFormsMatchOracleAtLargeN(t *testing.T) {
	const m = 32
	bind := map[string]int{"m": m}
	for _, n := range []int{256, 1024} {
		var shapes [][2]int
		for n0 := 1; n0 <= n; n0++ {
			if n%n0 == 0 {
				shapes = append(shapes, [2]int{n0, n / n0})
			}
		}
		for _, p := range []*ir.Program{ir.Jacobi(), ir.SOR(), ir.Gauss()} {
			c := NewCompiler(p, cost.Unit(), bind, n)
			sets, _, err := c.Candidates(1, len(p.Nests), shapes)
			if err != nil {
				t.Fatal(err)
			}
			lw, err := p.Lower(bind)
			if err != nil {
				t.Fatal(err)
			}
			for k, ss := range sets {
				for ti, nest := range p.Nests {
					label := fmt.Sprintf("%s %s N=%d %dx%d", p.Name, nest.Label, n, shapes[k][0], shapes[k][1])
					got, eng, err := cost.CountValidatedNest(lw, ti, ss.Schemes, ss.Grid, cost.CountOptions{})
					if err != nil || eng != cost.EngineAnalytic {
						t.Fatalf("%s: engine %v, err %v; want the closed forms", label, eng, err)
					}
					want, err := cost.CountNestOptsExact(p, nest, ss.Schemes, ss.Grid, bind, cost.CountOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s: closed forms %+v, enumeration %+v", label, got, want)
					}
				}
			}
		}
	}
}
