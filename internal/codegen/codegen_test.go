package codegen

import (
	"strings"
	"testing"

	"dmcc/internal/core"
	"dmcc/internal/dep"
	"dmcc/internal/ir"
)

// handPlan is a one-segment plan over the whole program whose nests
// take the given pipelining decisions.
func handPlan(p *ir.Program, cyclic bool, decs ...dep.PipelineDecision) *core.CompileResult {
	seg := core.Segment{Start: 1, Len: len(p.Nests), Schemes: &core.SchemeSet{Cyclic: cyclic}}
	return &core.CompileResult{DP: &core.DPResult{Segments: []core.Segment{seg}}, Pipelining: decs}
}

// sorPlan is Fig 6's plan: SOR's one nest under the column mapping 1*j.
func sorPlan(t *testing.T) (*ir.Program, *core.CompileResult) {
	t.Helper()
	p := ir.SOR()
	mu := dep.Mapping{Nest: "S1", Terms: ir.V("j").Terms}
	dec := dep.DecidePipelining(p, p.Nests[0], mu)
	if !dec.CanPipeline {
		t.Fatal("SOR not pipelinable")
	}
	return p, handPlan(p, false, dec)
}

// gaussPlan is Fig 8's plan: every Gauss nest under the row mapping, cyclic.
func gaussPlan(t *testing.T) (*ir.Program, *core.CompileResult) {
	t.Helper()
	p := ir.Gauss()
	dd := map[string]int{"A": 0, "L": 0, "V": 0, "B": 0, "X": 0}
	var decs []dep.PipelineDecision
	for _, nest := range p.Nests {
		mu, err := dep.DeriveMapping(p, nest, dd)
		if err != nil {
			t.Fatalf("%s: %v", nest.Label, err)
		}
		decs = append(decs, dep.DecidePipelining(p, nest, mu))
	}
	return p, handPlan(p, true, decs...)
}

// jacobiPlan is Jacobi under the row mapping 1*i in both nests, blocks.
func jacobiPlan() (*ir.Program, *core.CompileResult) {
	p := ir.Jacobi()
	var decs []dep.PipelineDecision
	for _, nest := range p.Nests {
		decs = append(decs, dep.DecidePipelining(p, nest, dep.Mapping{Nest: nest.Label, Terms: ir.V("i").Terms}))
	}
	return p, handPlan(p, false, decs...)
}

// TestFig6Codegen: the generated SOR program must have the Fig 6
// structure: four phases, V received from the left and sent to the
// right, the update of X folded into phase 3.
func TestFig6Codegen(t *testing.T) {
	p, plan := sorPlan(t)
	code, err := Program(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"me = who_am_i()",
		"before = me * block",
		"do k = 1, MAX_ITERATION", // iterative wrapper
		"phase 1",
		"phase 2",
		"phase 3",
		"phase 4",
		"receive_from_left( V(i) )",
		"send_to_right( V(i) )",
		"V(current) = 0.0",
		"do j = i, block", // upper triangle with old X
		"do j = 1, i - 1", // lower triangle with new X
		"send_to_right( V(current) )",
		"receive_from_left( V(current) )",
		"X(i) = X(i) + OMEGA * (B(i) - V(current)) / A(i,i)",
		"do i = (me + 1) * block + 1, m",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("generated SOR code missing %q\n%s", want, code)
		}
	}
	// Phase ordering: the receive in phase 1 precedes the seeds of
	// phase 2, which precede the completes of phase 3.
	i1 := strings.Index(code, "phase 1")
	i2 := strings.Index(code, "phase 2")
	i3 := strings.Index(code, "phase 3")
	i4 := strings.Index(code, "phase 4")
	if !(i1 < i2 && i2 < i3 && i3 < i4) {
		t.Error("phases out of order")
	}
}

// TestFig8Codegen: the generated Gauss program must have the Fig 8
// structure: pivot rows forwarded rightward before computing, pipeline
// buffers replacing the travelling tokens, X flowing leftward in the
// back substitution.
func TestFig8Codegen(t *testing.T) {
	p, plan := gaussPlan(t)
	code, err := Program(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"REAL",
		"A(m/N, m)", // cyclic row distribution shrinks the first dim
		"pipelined elimination",
		"send_to_right( Apipeline, Bpipeline )",
		"receive_from_left( Apipeline, Bpipeline )",
		"if ( right_neighbour /= owner(k) ) send_to_right",
		"L(i,k) = A(i,k) / Apipeline(k)",
		"B(i) = B(i) - L(i,k) * Bpipeline",
		"A(i,j) = A(i,j) - L(i,k) * Apipeline(j)",
		"pipelined back substitution",
		"send_to_left( Xpipeline )",
		"receive_from_right( Xpipeline )",
		"V(i) = V(i) + A(i,j) * Xpipeline",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("generated Gauss code missing %q\n%s", want, code)
		}
	}
	// The forward must appear before the elimination update (forward
	// before compute, the Fig 8 overlap).
	fwd := strings.Index(code, "receive_from_left( Apipeline")
	upd := strings.Index(code, "A(i,j) = A(i,j) - L(i,k)")
	if !(fwd >= 0 && upd >= 0 && fwd < upd) {
		t.Error("forward does not precede elimination")
	}
	// Gauss is not iterative: no MAX_ITERATION wrapper.
	if strings.Contains(code, "MAX_ITERATION") {
		t.Error("non-iterative program wrapped in an iteration loop")
	}
}

func TestJacobiLocalNestCodegen(t *testing.T) {
	code, err := Program(jacobiPlan())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "Nest L2: fully local") {
		t.Errorf("L2 must be fully local under row distribution:\n%s", code)
	}
	if !strings.Contains(code, "X(i) = X(i) + (B(i) - V(i)) / A(i,i)") {
		t.Errorf("statement text missing:\n%s", code)
	}
}

func TestJacobiL1ShiftCodegen(t *testing.T) {
	code, err := Program(jacobiPlan())
	if err != nil {
		t.Fatal(err)
	}
	// X(j) travels: under the row mapping the accumulator V(i) is local,
	// so the nest becomes a shift-pipelined loop over X.
	if !strings.Contains(code, "Nest L1: local loops; travelling operands pipelined with Shift") ||
		!strings.Contains(code, "X(j)") || !strings.Contains(code, "receive_from_left / send_to_right") {
		t.Errorf("X shift pipeline missing:\n%s", code)
	}
}

// TestMultiHopRejected: a mapping under which a token travels more than
// one hop per step is an error naming the nest.
func TestMultiHopRejected(t *testing.T) {
	p := ir.SOR()
	mu := dep.Mapping{Nest: "S1", Terms: ir.NewAffine(0, ir.Term{Var: "j", Coeff: 2}).Terms}
	dec := dep.DecidePipelining(p, p.Nests[0], mu)
	_, err := Program(p, handPlan(p, false, dec))
	if err == nil || !strings.Contains(err.Error(), "nest S1 has multi-hop tokens") {
		t.Fatalf("multi-hop nest must be rejected by name, got %v", err)
	}
}

func TestDeclarations(t *testing.T) {
	p, plan := sorPlan(t)
	code, err := Program(p, plan)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 6 header: A(m, block), X(block), B(block), V(m).
	if !strings.Contains(code, "A(m, block)") {
		t.Errorf("A declaration wrong:\n%s", code)
	}
	if !strings.Contains(code, "X(block)") || !strings.Contains(code, "B(block)") {
		t.Errorf("X/B declarations wrong:\n%s", code)
	}
}
