package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dmcc/internal/align"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
)

// renderResult serializes everything observable about a compile result —
// the T table, every segment's costs and scheme signatures, and the
// pipelining decisions — so two results can be compared byte for byte.
func renderResult(res *CompileResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "min=%.6f segtotal=%.6f lc=%.6f whole=%.6f\n",
		res.DP.MinimumCost, res.DP.SegmentTotal, res.DP.LoopCarried, res.WholeProgramCost)
	for _, seg := range res.DP.Segments {
		fmt.Fprintf(&b, "seg %d+%d m=%.6f chg=%.6f label=%s sig=%s\n",
			seg.Start, seg.Len, seg.M, seg.ChangeIn, seg.Schemes.Label, seg.Schemes.Signature())
	}
	for i := 1; i < len(res.DP.T); i++ {
		for j, t := range res.DP.T[i] {
			if t != 0 {
				fmt.Fprintf(&b, "T[%d][%d]=%.6f\n", i, j, t)
			}
		}
	}
	for _, d := range res.Pipelining {
		fmt.Fprintf(&b, "pipe %s canPipeline=%v travelling=%d\n",
			d.Mapping.Nest, d.CanPipeline, len(d.TravellingTokens))
	}
	return b.String()
}

// TestParallelCompileDeterministic: Compile() with a parallel worker
// pool must produce byte-identical results to the serial path — the
// parallel phase only warms the memoization caches; the DP itself runs
// serially either way.
func TestParallelCompileDeterministic(t *testing.T) {
	programs := []*ir.Program{ir.Jacobi(), ir.Gauss(), ir.Synthetic(6)}
	for _, p := range programs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			render := func(jobs int) string {
				c := NewCompiler(p, cost.Unit(), map[string]int{"m": 16}, 4)
				c.Jobs = jobs
				res, err := c.Compile()
				if err != nil {
					t.Fatalf("jobs=%d: %v", jobs, err)
				}
				return renderResult(res)
			}
			serial := render(1)
			for _, jobs := range []int{2, 8} {
				if got := render(jobs); got != serial {
					t.Errorf("jobs=%d output differs from serial:\n--- serial ---\n%s--- jobs=%d ---\n%s",
						jobs, serial, jobs, got)
				}
			}
		})
	}
}

// TestSharedSchemeSetsCarryNoSegment: a scheme set is shared by every
// segment whose partition, shape and cyclic flag it was derived from, so
// it must not carry what belongs to the one segment that built it first —
// at Jobs = 8, whichever worker won. The chosen segments' partitions are
// their assignment and method alone, and equal at Jobs 1 and 8.
func TestSharedSchemeSetsCarryNoSegment(t *testing.T) {
	programs := []*ir.Program{ir.Gauss(), ir.Jacobi(), ir.SOR()}
	for s := 4; s <= 12; s++ {
		programs = append(programs, ir.Synthetic(s))
	}
	for _, p := range programs {
		for _, n := range []int{4, 16} {
			partitions := func(jobs int) []align.Partition {
				c := NewCompiler(p, cost.Unit(), map[string]int{"m": 16}, n)
				c.Jobs = jobs
				res, err := c.Compile()
				if err != nil {
					t.Fatalf("%s n=%d jobs=%d: %v", p.Name, n, jobs, err)
				}
				var out []align.Partition
				for _, seg := range res.DP.Segments {
					pt := seg.Schemes.Partition
					if want := (align.Partition{Assign: pt.Assign, Method: pt.Method}); !reflect.DeepEqual(pt, want) {
						t.Errorf("%s n=%d jobs=%d segment %d+%d: partition %+v carries more than its assignment and method", p.Name, n, jobs, seg.Start, seg.Len, pt)
					}
					out = append(out, pt)
				}
				return out
			}
			if serial, parallel := partitions(1), partitions(8); !reflect.DeepEqual(serial, parallel) {
				t.Errorf("%s n=%d: chosen partitions differ between Jobs 1 and 8:\n%+v\n%+v", p.Name, n, serial, parallel)
			}
		}
	}
}

// TestAnalyticEngineMatchesExact: the production engine (analytic
// ChangeCost + closed-form nest counting + caches) must price every
// program a tool can name — each builtin and each testdata source — and
// Synthetic(5) identically, byte for byte, to the element- and
// iteration-enumeration reference engine end to end.
func TestAnalyticEngineMatchesExact(t *testing.T) {
	programs := []*ir.Program{ir.Synthetic(5)}
	for _, name := range ir.BuiltinNames() {
		p, _ := ir.Builtin(name)
		programs = append(programs, p)
	}
	files, err := filepath.Glob("../../testdata/*.f")
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata sources: %v, %v", files, err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		p.Name = filepath.Base(f)
		programs = append(programs, p)
	}
	for _, p := range programs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			bind, err := p.BindSize(12)
			if err != nil {
				t.Fatal(err)
			}
			render := func(exact bool) string {
				c := NewCompiler(p, cost.Unit(), bind, 4)
				c.Jobs = 1
				c.ExactChangeCost = exact
				c.ExactNestCount = exact
				c.noCache = exact
				res, err := c.Compile()
				if err != nil {
					t.Fatalf("exact=%v: %v", exact, err)
				}
				return renderResult(res)
			}
			if fast, ref := render(false), render(true); fast != ref {
				t.Errorf("analytic engine differs from exact reference:\n--- exact ---\n%s--- analytic ---\n%s", ref, fast)
			}
		})
	}
}

// TestJobsFollowsGOMAXPROCS: an unset Jobs is the runtime's processor
// budget, not the machine's CPU count, and the compile it sizes renders
// the same result whatever that budget is, and the same as Jobs = 1.
func TestJobsFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	programs := []*ir.Program{ir.Gauss(), ir.SOR(), ir.Synthetic(8)}
	render := func(p *ir.Program, jobs int) string {
		c := NewCompiler(p, cost.Unit(), map[string]int{"m": 16}, 8)
		c.Jobs = jobs
		res, err := c.Compile()
		if err != nil {
			t.Fatalf("%s jobs=%d: %v", p.Name, jobs, err)
		}
		return renderResult(res)
	}
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		if got := (&Compiler{}).jobs(); got != procs {
			t.Errorf("GOMAXPROCS=%d: jobs() = %d", procs, got)
		}
		for _, p := range programs {
			if got, want := render(p, 0), render(p, 1); got != want {
				t.Errorf("%s GOMAXPROCS=%d: Jobs=0 differs from Jobs=1:\n--- Jobs=1 ---\n%s--- Jobs=0 ---\n%s", p.Name, procs, want, got)
			}
		}
	}
}

// strideProgram reads A at a non-unit stride, a subscript shape the
// closed forms decline.
func strideProgram() *ir.Program {
	m, i := ir.V("m"), ir.V("i")
	rhs := ir.Add(ir.Rd(ir.R("A", ir.NewAffine(0, ir.Term{Var: "i", Coeff: 2}))), ir.Num(1))
	return &ir.Program{
		Name: "stride", Params: []string{"m"},
		Arrays: map[string]*ir.Array{
			"A": {Name: "A", Extents: []ir.Affine{m}},
			"B": {Name: "B", Extents: []ir.Affine{m}},
		},
		Nests: []*ir.Nest{{
			Label: "L1",
			Loops: []ir.Loop{{Index: "i", Lo: ir.Const(1), Hi: ir.Const(4), Step: 1}},
			Stmts: []*ir.Stmt{{
				Line: 1, Depth: 1, LHS: ir.R("B", i), Reads: ir.ExprReads(rhs), RHS: rhs,
				Flops: ir.ExprFlops(rhs), Text: "B(i) = A(2*i) + 1",
			}},
		}},
	}
}

// TestDeclinedNestCountsAsExactFallback: a nest the closed forms decline
// is priced by the reference enumeration — the same DP as the all-exact
// compile — and shows up in the engine telemetry as an exact fallback,
// the only tier behind the analytic one.
func TestDeclinedNestCountsAsExactFallback(t *testing.T) {
	compile := func(exact bool) (string, map[string]int64) {
		c := NewCompiler(strideProgram(), cost.Unit(), map[string]int{"m": 16}, 4)
		c.Jobs = 1
		c.ExactNestCount = exact
		c.Engines = &EngineStats{}
		res, err := c.Compile()
		if err != nil {
			t.Fatalf("exact=%v: %v", exact, err)
		}
		return renderResult(res), c.Engines.Snapshot()
	}
	fast, snap := compile(false)
	ref, _ := compile(true)
	if fast != ref {
		t.Errorf("declined nest priced differently from the oracle:\n--- exact ---\n%s--- fast ---\n%s", ref, fast)
	}
	if snap["exact_fallbacks"] == 0 || snap["analytic_hits"] != 0 {
		t.Errorf("engine counters %v: want every pricing call an exact fallback", snap)
	}
	if len(snap) != 4 || snap["greedy_alignments"] != 0 {
		t.Errorf("engine counters %v: want exactly analytic_hits, exact_fallbacks, nest_pricings and a zero greedy_alignments", snap)
	}
}

// TestSchemeSetSignature checks the memoization key: stable across
// calls, nil-safe, insensitive to labels, and sensitive to anything
// that moves data — grid shape or a distribution parameter.
func TestSchemeSetSignature(t *testing.T) {
	var nilSet *SchemeSet
	if nilSet.Signature() != "<nil>" {
		t.Errorf("nil signature = %q", nilSet.Signature())
	}
	// Bare sets (as tests construct them) must not panic.
	if (&SchemeSet{Label: "a"}).Signature() != "" {
		t.Errorf("empty set signature = %q", (&SchemeSet{Label: "a"}).Signature())
	}
	p := ir.Jacobi()
	c := NewCompiler(p, cost.Unit(), map[string]int{"m": 16}, 4)
	derive := func(shape [2]int) *SchemeSet {
		pt, err := c.partition(0, len(p.Nests))
		if err != nil {
			t.Fatal(err)
		}
		ss, err := DeriveSchemes(c.an, pt, shape, false)
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	row := derive([2]int{4, 1})
	row2 := derive([2]int{4, 1})
	col := derive([2]int{1, 4})
	if row.Signature() != row2.Signature() {
		t.Errorf("same derivation, different signatures:\n%s\n%s", row.Signature(), row2.Signature())
	}
	if row.Signature() != row2.Signature() || row.Signature() == col.Signature() {
		t.Errorf("4x1 and 1x4 share a signature: %s", row.Signature())
	}
	row2.Label = "renamed"
	if row.Signature() != row2.Signature() {
		t.Error("label change altered the signature")
	}
}

// TestConcurrentPricingMatchesSerial: numeric EvalAt from four goroutines
// on one evaluator — each priceAt takes its own pricer, each count its
// own counter workspace — and Compile with Jobs = 4, whose workers count
// concurrently, equal the serial results. CI runs it under -race.
func TestConcurrentPricingMatchesSerial(t *testing.T) {
	for _, mk := range []func() *ir.Program{ir.Gauss, ir.Jacobi, ir.SOR} {
		p := mk()
		compile := func(jobs int) string {
			c := NewCompiler(p, cost.Unit(), map[string]int{"m": 32}, 8)
			c.Jobs = jobs
			res, err := c.Compile()
			if err != nil {
				t.Fatalf("%s jobs=%d: %v", p.Name, jobs, err)
			}
			return renderResult(res)
		}
		if serial, parallel := compile(1), compile(4); parallel != serial {
			t.Errorf("%s: Compile at Jobs=4 differs from serial:\n--- serial ---\n%s--- jobs=4 ---\n%s", p.Name, serial, parallel)
		}

		pe, err := NewPlanEvaluator(NewCompiler(p, cost.Unit(), map[string]int{"m": 32}, 8))
		if err != nil {
			t.Fatal(err)
		}
		sizes := []int{16, 17, 24, 31, 32, 40, 47, 64}
		want := make([]PlanCost, len(sizes))
		for i, m := range sizes {
			if want[i], err = pe.EvalAt(m); err != nil {
				t.Fatalf("%s: EvalAt(%d): %v", p.Name, m, err)
			}
		}
		errs := make(chan error, 4)
		for g := 0; g < 4; g++ {
			go func() {
				for k := range sizes {
					i := (k + 3*g) % len(sizes) // each goroutine starts elsewhere
					got, err := pe.EvalAt(sizes[i])
					if err == nil && got != want[i] {
						err = fmt.Errorf("EvalAt(%d) = %+v, serially %+v", sizes[i], got, want[i])
					}
					if err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		for g := 0; g < 4; g++ {
			if err := <-errs; err != nil {
				t.Errorf("%s: concurrent numeric EvalAt: %v", p.Name, err)
			}
		}
	}
}
