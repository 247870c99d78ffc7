// Package dep implements the data-dependence analysis of Section 6: for
// every data token (array reference read by a statement) it computes the
// family of iteration indices that use the token, the token's reuse
// direction vectors, and — given an index-to-processor mapping mu — the
// image mu . d of each direction. The classification
//
//	mu . d = 0   the token stays on one processor (local reuse)
//	mu . d = 1   the token is needed by the neighbouring processor in the
//	             next step, so a OneToManyMulticast can be replaced by
//	             pipelined Shift operations
//	|mu . d| > 1 the token jumps processors; pipelining needs multi-hop
//	             shifts or a multicast
//
// reproduces Table 5 and drives the compiler's pipelining decision.
package dep

import (
	"fmt"
	"strings"

	"dmcc/internal/ir"
)

// Class is the communication classification of a token.
type Class int

const (
	// Local tokens never leave the processor that owns them.
	Local Class = iota
	// Pipeline tokens move exactly one processor per reuse step and can
	// be forwarded with Shift (send/receive) instead of broadcast.
	Pipeline
	// MultiHop tokens move more than one processor per reuse step.
	MultiHop
)

func (c Class) String() string {
	switch c {
	case Local:
		return "local"
	case Pipeline:
		return "pipeline"
	case MultiHop:
		return "multi-hop"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Token is the dependence information of one read reference, one row of
// Table 5.
type Token struct {
	Nest string
	Line int
	Ref  ir.Ref
	// Indices are the loop indices in scope at the statement, outermost
	// first; all vectors below are over these coordinates.
	Indices []string
	// ReuseDirs are the unit direction vectors of loops over which the
	// same token value is reused (loops whose index does not occur in the
	// token's subscripts).
	ReuseDirs [][]int
	// Mu is the index-to-processor mapping restricted to the statement's
	// scope.
	Mu []int
	// MuDotD holds mu . d for each reuse direction.
	MuDotD []int
	// Class is derived from MuDotD.
	Class Class
	// UsedIn renders the use-index family the way Table 5 prints it,
	// e.g. "(k,0)+i(0,1)".
	UsedIn string
	// UsedInPEs renders the processor set: "(i-1) mod N" for local
	// tokens, "all PEs" for travelling ones.
	UsedInPEs string
}

// Mapping assigns each loop index of a nest a coefficient; the virtual
// processor executing iteration I is mu . I.
type Mapping struct {
	Nest  string
	Coeff map[string]int
}

// MuVector returns the mapping as a vector over the given index order.
func (m Mapping) MuVector(indices []string) []int {
	v := make([]int, len(indices))
	for i, idx := range indices {
		v[i] = m.Coeff[idx]
	}
	return v
}

// String renders the mapping as a row vector over the nest's indices.
func (m Mapping) String() string {
	var parts []string
	for idx, c := range m.Coeff {
		if c != 0 {
			parts = append(parts, fmt.Sprintf("%d*%s", c, idx))
		}
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, "+")
}

// DeriveMapping picks the index-to-processor mapping of a nest the way
// Section 6 does: the deepest statement whose left-hand side array is
// distributed determines it — iteration I executes on the virtual
// processor given by the subscript of the LHS's distributed dimension
// (the owner-computes rule). distDim maps each array to its distributed
// dimension (0-based) or -1 if replicated. It returns an error if no
// statement has a distributed LHS or the subscript is not a pure loop
// index combination.
func DeriveMapping(p *ir.Program, nest *ir.Nest, distDim map[string]int) (Mapping, error) {
	var chosen *ir.Stmt
	for _, st := range nest.Stmts {
		d, ok := distDim[st.LHS.Array]
		if !ok || d < 0 {
			continue
		}
		if chosen == nil || st.Depth > chosen.Depth {
			chosen = st
		}
	}
	if chosen == nil {
		return Mapping{}, fmt.Errorf("dep: nest %s has no statement with a distributed LHS", nest.Label)
	}
	sub := chosen.LHS.Subs[distDim[chosen.LHS.Array]]
	m := Mapping{Nest: nest.Label, Coeff: map[string]int{}}
	for _, v := range sub.Vars() {
		if _, isLoop := nest.Loop(v); !isLoop {
			return Mapping{}, fmt.Errorf("dep: LHS subscript %s of %s uses non-loop variable %q", sub, chosen.LHS, v)
		}
		m.Coeff[v] = sub.CoeffOf(v)
	}
	if len(m.Coeff) == 0 {
		return Mapping{}, fmt.Errorf("dep: LHS subscript %s of %s is constant", sub, chosen.LHS)
	}
	return m, nil
}

// Analyze computes the dependence information of every read token of the
// nest under the given mapping, in statement order, reads left to right.
// Self-reads (the accumulator of a reduction, like B(i) in line 5 of the
// Gauss listing) are analysed like any other token; Table 5 lists them.
func Analyze(p *ir.Program, nest *ir.Nest, mu Mapping) []Token {
	var out []Token
	for _, st := range nest.Stmts {
		indices := make([]string, st.Depth)
		for i := 0; i < st.Depth; i++ {
			indices[i] = nest.Loops[i].Index
		}
		for _, rd := range st.Reads {
			out = append(out, analyzeToken(nest.Label, st.Line, rd, indices, mu))
		}
	}
	return out
}

func analyzeToken(nestLabel string, line int, ref ir.Ref, indices []string, mu Mapping) Token {
	t := Token{Nest: nestLabel, Line: line, Ref: ref, Indices: indices}
	inSub := map[string]bool{}
	for _, s := range ref.Subs {
		for _, v := range s.Vars() {
			inSub[v] = true
		}
	}
	t.Mu = mu.MuVector(indices)
	for pos, idx := range indices {
		if inSub[idx] {
			continue
		}
		d := make([]int, len(indices))
		d[pos] = 1
		t.ReuseDirs = append(t.ReuseDirs, d)
		t.MuDotD = append(t.MuDotD, t.Mu[pos])
	}
	t.Class = Local
	for _, md := range t.MuDotD {
		if md == 0 {
			continue
		}
		if md == 1 || md == -1 {
			if t.Class == Local {
				t.Class = Pipeline
			}
		} else {
			t.Class = MultiHop
		}
	}
	t.UsedIn = renderUsedIn(indices, inSub, t.ReuseDirs)
	t.UsedInPEs = renderUsedInPEs(indices, t.Mu, t.Class)
	return t
}

func renderUsedIn(indices []string, inSub map[string]bool, dirs [][]int) string {
	base := make([]string, len(indices))
	for i, idx := range indices {
		if inSub[idx] {
			base[i] = idx
		} else {
			base[i] = "0"
		}
	}
	s := "(" + strings.Join(base, ",") + ")"
	for _, d := range dirs {
		comp := make([]string, len(d))
		varName := ""
		for i, c := range d {
			comp[i] = fmt.Sprintf("%d", c)
			if c != 0 {
				varName = indices[i]
			}
		}
		s += fmt.Sprintf("+%s(%s)", varName, strings.Join(comp, ","))
	}
	return s
}

func renderUsedInPEs(indices []string, mu []int, c Class) string {
	if c != Local {
		return "all PEs"
	}
	// The token stays on the virtual processor mu . I; express it through
	// the anchored indices.
	a := ir.NewAffine(0)
	for i, m := range mu {
		if m != 0 {
			a = a.Plus(ir.NewAffine(0, ir.Term{Var: indices[i], Coeff: m}))
		}
	}
	return fmt.Sprintf("(%s-1) mod N", a)
}

// PipelineDecision summarizes whether a nest's remote communication can be
// implemented with Shift pipelining under a mapping (Section 6's
// transformation of OneToManyMulticast into send/receive).
type PipelineDecision struct {
	Mapping Mapping
	Tokens  []Token
	// CanPipeline is true when every travelling token moves exactly one
	// processor per reuse step.
	CanPipeline bool
	// TravellingTokens are the tokens that actually need communication.
	TravellingTokens []ir.Ref
}

// DecidePipelining analyses a nest and reports whether all its travelling
// tokens are pipelinable.
func DecidePipelining(p *ir.Program, nest *ir.Nest, mu Mapping) PipelineDecision {
	dec := PipelineDecision{Mapping: mu, CanPipeline: true}
	dec.Tokens = Analyze(p, nest, mu)
	seen := map[string]bool{}
	for _, t := range dec.Tokens {
		if t.Class == Local {
			continue
		}
		key := t.Ref.String()
		if !seen[key] {
			seen[key] = true
			dec.TravellingTokens = append(dec.TravellingTokens, t.Ref)
		}
		if t.Class == MultiHop {
			dec.CanPipeline = false
		}
	}
	return dec
}
