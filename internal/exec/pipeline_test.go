package exec

import (
	"fmt"
	"reflect"
	"testing"

	"dmcc/internal/ir"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
	"dmcc/internal/trace"
)

// phaseLines runs the batched engine with cfg.Tracer attached and returns
// the reduction-phase events (gather/fanout/ring) as deterministic
// "p<proc> <kind> w=<words>" lines in collector order — per-processor, in
// each processor's own program order — with the run's result and the
// per-element oracle's.
func phaseLines(t *testing.T, p *ir.Program, scalars map[string]float64, m, n, iters int) (lines []string, res, naive Result) {
	t.Helper()
	a, b, _ := matrix.DiagonallyDominant(m, 401)
	x0 := make([]float64, m)
	input := loadLinearSystem(p, a, b, x0)
	ss := wholeProgramSchemes(t, p, m, n)
	bind := map[string]int{"m": m}
	col := trace.New()
	cfg := machine.DefaultConfig()
	cfg.Tracer = col
	res, err := Run(p, ss, bind, scalars, iters, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	naive, err = runExact(mustLower(t, p, bind), wholeProgram(p, ss), scalars, iters, machine.DefaultConfig(), input)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range col.Events() {
		switch e.Kind {
		case machine.EvGather, machine.EvFanout, machine.EvRing:
			lines = append(lines, fmt.Sprintf("p%d %s w=%d", e.Proc, e.Kind, e.Words))
		}
	}
	return lines, res, naive
}

// TestSORGoldenRingTrace pins the Section 5 ring lowering on SOR at
// m=8, n=4 (the compiler picks a 1x4 grid): every V(i) finalize is a
// mid-epoch ring over the four column processors — one ring step per
// processor per element, the running total travelling neighbor to
// neighbor. The last chain processor's step carries 2 words when it
// both closes the ring to the root and feeds a fan-out reader. The
// trace is fully deterministic, so any change to the lowering shows up
// as a diff against this golden sequence.
func TestSORGoldenRingTrace(t *testing.T) {
	lines, res, naive := phaseLines(t, ir.SOR(), map[string]float64{"OMEGA": 1.2}, 8, 4, 1)
	var want []string
	for proc := 0; proc < 4; proc++ {
		for elem := 0; elem < 8; elem++ {
			w := 1
			// p3 closes the ring: for V(3..6) the root is an interior
			// processor and a fan-out reader needs the total too, so the
			// closing step ships 2 one-word vectors.
			if proc == 3 && elem >= 2 && elem <= 5 {
				w = 2
			}
			want = append(want, fmt.Sprintf("p%d ring w=%d", proc, w))
		}
	}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("SOR ring trace diverged:\n got %v\nwant %v", lines, want)
	}
	if res.Stats.Messages >= naive.Stats.Messages {
		t.Errorf("ring transport must beat the naive star: %d >= %d",
			res.Stats.Messages, naive.Stats.Messages)
	}
}

// TestJacobiGoldenTwoPhaseTrace pins the gather/fan-out lowering on
// Jacobi at m=8, n=4: all inner-product finalizes are hoisted to nest
// end and exchanged in two vectored phases — each non-root column
// processor sends its 8 partials as one gather message to the root,
// and the root fans the 6 off-root totals out as one message per live
// reader. 30 transported words replace the oracle's per-element stars.
func TestJacobiGoldenTwoPhaseTrace(t *testing.T) {
	lines, res, naive := phaseLines(t, ir.Jacobi(), nil, 8, 4, 1)
	want := []string{
		"p0 gather w=0", "p0 fanout w=6",
		"p1 gather w=8", "p1 fanout w=0",
		"p2 gather w=8", "p2 fanout w=0",
		"p3 gather w=8", "p3 fanout w=0",
	}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("jacobi two-phase trace diverged:\n got %v\nwant %v", lines, want)
	}
	if res.Stats.Messages >= naive.Stats.Messages {
		t.Errorf("two-phase transport must beat the naive star: %d >= %d",
			res.Stats.Messages, naive.Stats.Messages)
	}
}

// TestTraceEndsByMakespan: cfg.Tracer sees the run Stats describe — every
// event Run traces, the vectored sends and waits and the reduction-phase
// markers alike, ends at or before Stats.ParallelTime, on the blocking and
// the overlapped clock model.
func TestTraceEndsByMakespan(t *testing.T) {
	for _, c := range []struct {
		p       *ir.Program
		scalars map[string]float64
		iters   int
	}{
		{ir.Jacobi(), nil, 2},
		{ir.SOR(), map[string]float64{"OMEGA": 1.2}, 2},
		{ir.Gauss(), nil, 1},
	} {
		const m = 12
		a, b, _ := matrix.DiagonallyDominant(m, 401)
		input := loadLinearSystem(c.p, a, b, make([]float64, m))
		for _, n := range []int{2, 4} {
			for _, overlap := range []bool{false, true} {
				col := trace.New()
				cfg := machine.DefaultConfig()
				cfg.Tracer, cfg.Overlap, cfg.Alpha = col, overlap, 2
				res, err := Run(c.p, wholeProgramSchemes(t, c.p, m, n), map[string]int{"m": m}, c.scalars, c.iters, cfg, input)
				if err != nil {
					t.Fatal(err)
				}
				events := col.Events()
				if len(events) == 0 {
					t.Fatalf("%s n=%d overlap=%v: nothing traced", c.p.Name, n, overlap)
				}
				for _, e := range events {
					if e.End > res.Stats.ParallelTime {
						t.Fatalf("%s n=%d overlap=%v: %+v ends after the makespan %v", c.p.Name, n, overlap, e, res.Stats.ParallelTime)
					}
				}
			}
		}
	}
}
