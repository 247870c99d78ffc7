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
	"slices"
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
}

// Mapping is a nest's index-to-processor mapping: the virtual processor
// executing iteration I is mu . I, and Terms holds mu's nonzero
// coefficients, sorted by index (the owner subscript's ir.Affine terms).
type Mapping struct {
	Nest  string
	Terms []ir.Term
}

// MuVector returns the mapping as a vector over the given index order.
func (m Mapping) MuVector(indices []string) []int {
	v := make([]int, len(indices))
	for _, t := range m.Terms {
		if i := slices.Index(indices, t.Var); i >= 0 {
			v[i] = t.Coeff
		}
	}
	return v
}

// String renders the mapping as a sum over its indices, in index order.
func (m Mapping) String() string {
	if len(m.Terms) == 0 {
		return "0"
	}
	parts := make([]string, len(m.Terms))
	for i, t := range m.Terms {
		parts[i] = fmt.Sprintf("%d*%s", t.Coeff, t.Var)
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
	for _, t := range sub.Terms {
		if _, isLoop := nest.Loop(t.Var); !isLoop {
			return Mapping{}, fmt.Errorf("dep: LHS subscript %s of %s uses non-loop variable %q", sub, chosen.LHS, t.Var)
		}
	}
	if sub.IsConst() {
		return Mapping{}, fmt.Errorf("dep: LHS subscript %s of %s is constant", sub, chosen.LHS)
	}
	return Mapping{Nest: nest.Label, Terms: sub.Terms}, nil
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
		for _, t := range s.Terms {
			inSub[t.Var] = true
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
	return t
}

// UsedIn renders the use-index family the way Table 5 prints it, e.g.
// "(k,0)+i(0,1)": the anchored indices, 0 along each reuse direction, then
// one term per reuse direction.
func (t *Token) UsedIn() string {
	base := slices.Clone(t.Indices)
	for _, d := range t.ReuseDirs {
		base[slices.Index(d, 1)] = "0"
	}
	s := "(" + strings.Join(base, ",") + ")"
	for _, d := range t.ReuseDirs {
		comp := make([]string, len(d))
		for i, c := range d {
			comp[i] = fmt.Sprintf("%d", c)
		}
		s += fmt.Sprintf("+%s(%s)", t.Indices[slices.Index(d, 1)], strings.Join(comp, ","))
	}
	return s
}

// UsedInPEs renders the processor set the way Table 5 prints it: "(i-1)
// mod N" for a local token, "all PEs" for a travelling one.
func (t *Token) UsedInPEs() string {
	if t.Class != Local {
		return "all PEs"
	}
	// The token stays on the virtual processor mu . I; express it through
	// the anchored indices.
	terms := make([]ir.Term, len(t.Mu))
	for i, m := range t.Mu {
		terms[i] = ir.Term{Var: t.Indices[i], Coeff: m}
	}
	return fmt.Sprintf("(%s-1) mod N", ir.NewAffine(0, terms...))
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
