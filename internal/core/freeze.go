// FrozenPlan: the serializable form of a PlanEvaluator — the discrete
// decisions of one Compile() run (segmentation, grid shapes, alignment
// partitions, cyclic flags) plus the fitted symbolic counts, as plain
// data. Freeze/Thaw are the artifact cache's view of "compile once,
// reuse everywhere": a thawed evaluator re-prices the plan at any
// problem size without re-running alignment, the shape search, or the
// DP. The stored bytes are json.Marshal's rendering of the tags below;
// planjson.go reads them back in one pass.
package core

import (
	"fmt"
	"sort"

	"dmcc/internal/align"
	"dmcc/internal/cost"
	"dmcc/internal/ir"
)

// FrozenAssign is one alignment decision: array dimension -> grid
// dimension (a map entry of align.Partition.Assign, flattened because
// struct-keyed maps do not serialize to JSON).
type FrozenAssign struct {
	Array  string `json:"array"`
	Dim    int    `json:"dim"`
	Subset int    `json:"subset"`
}

// FrozenSegment is one segment of the frozen plan.
type FrozenSegment struct {
	Start  int            `json:"start"` // 1-based first nest
	Len    int            `json:"len"`
	Shape  [2]int         `json:"shape"`
	Cyclic bool           `json:"cyclic"`
	Assign []FrozenAssign `json:"assign"`
	M      float64        `json:"m"`        // segment cost at the base size
	Change float64        `json:"changeIn"` // redistribution paid entering
}

// FrozenPlanSchema is the current frozen-plan format. Version 2 added
// the symbolic scheme-change fits (ChgFits); older payloads priced
// segment boundaries numerically at thaw time and are rejected rather
// than silently served with different query-path behavior.
const FrozenPlanSchema = 2

// FrozenPlan is a complete, serializable compilation plan.
type FrozenPlan struct {
	Schema      int             `json:"schema"`
	BaseM       int             `json:"baseM"`
	MinimumCost float64         `json:"minimumCost"` // at the base size
	WholeCost   float64         `json:"wholeCost"`
	LoopCarried float64         `json:"loopCarried"`
	Segments    []FrozenSegment `json:"segments"`
	// ExecFits / LCFits are the per-nest piecewise-polynomial fits in m
	// (nil when Fit has not run or declined the program).
	ExecFits []*cost.SymbolicCounts `json:"execFits,omitempty"`
	LCFits   []*cost.SymbolicCounts `json:"lcFits,omitempty"`
	// ChgFits holds one symbolic scheme-change bill per segment
	// (entry 0 unused — no boundary enters the first segment).
	ChgFits []*cost.SymbolicLoads `json:"chgFits,omitempty"`
	// FitMinM is the smallest size the fits cover; below it a thawed
	// evaluator prices numerically (some plans have a pre-polynomial
	// transient and are fitted from a higher floor).
	FitMinM int `json:"fitMinM,omitempty"`
	// FitErr records why fitting was skipped, so a thawed evaluator
	// reports the same diagnostics as the one that was frozen.
	FitErr string `json:"fitErr,omitempty"`
}

// Freeze captures the evaluator's plan and fits as plain data; an
// evaluator thawed from a plan freezes back to that plan.
func (pe *PlanEvaluator) Freeze() *FrozenPlan {
	fp := &FrozenPlan{
		Schema:      FrozenPlanSchema,
		BaseM:       pe.BaseM,
		MinimumCost: pe.Base.DP.MinimumCost,
		WholeCost:   pe.Base.WholeProgramCost,
		LoopCarried: pe.Base.DP.LoopCarried,
		ExecFits:    pe.execSym,
		LCFits:      pe.lcSym,
		ChgFits:     pe.chgSym,
		FitMinM:     pe.fitMinM,
	}
	for _, s := range pe.Base.DP.Segments {
		seg := FrozenSegment{
			Start:  s.Start,
			Len:    s.Len,
			Shape:  gridShape(s),
			Cyclic: s.Schemes.Cyclic,
			M:      s.M,
			Change: s.ChangeIn,
		}
		for id, sub := range s.Schemes.Partition.Assign {
			seg.Assign = append(seg.Assign, FrozenAssign{Array: id.Array, Dim: id.Dim, Subset: sub})
		}
		sort.Slice(seg.Assign, func(i, j int) bool {
			a, b := seg.Assign[i], seg.Assign[j]
			if a.Array != b.Array {
				return a.Array < b.Array
			}
			return a.Dim < b.Dim
		})
		fp.Segments = append(fp.Segments, seg)
	}
	return fp
}

// Validate checks the plan against a program: segments must tile the
// nest sequence exactly, fits (when present) must cover every nest, and
// every fit must be structurally sound — a payload is outside input, and
// an evaluator thawed from a malformed fit would panic when priced.
func (fp *FrozenPlan) Validate(p *ir.Program) error {
	if fp.Schema != FrozenPlanSchema {
		return fmt.Errorf("core: frozen plan schema %d, this build reads schema %d", fp.Schema, FrozenPlanSchema)
	}
	want := 1
	for _, seg := range fp.Segments {
		if seg.Start != want || seg.Len < 1 {
			return fmt.Errorf("core: frozen plan segment (%d,%d) does not tile the sequence at nest %d", seg.Start, seg.Len, want)
		}
		want += seg.Len
	}
	if want != len(p.Nests)+1 {
		return fmt.Errorf("core: frozen plan covers %d nests, program has %d", want-1, len(p.Nests))
	}
	if fp.ExecFits != nil && len(fp.ExecFits) != len(p.Nests) {
		return fmt.Errorf("core: frozen plan has %d exec fits for %d nests", len(fp.ExecFits), len(p.Nests))
	}
	if fp.LCFits != nil && len(fp.LCFits) != len(p.Nests) {
		return fmt.Errorf("core: frozen plan has %d loop-carried fits for %d nests", len(fp.LCFits), len(p.Nests))
	}
	if fp.ChgFits != nil && len(fp.ChgFits) != len(fp.Segments) {
		return fmt.Errorf("core: frozen plan has %d change fits for %d segments", len(fp.ChgFits), len(fp.Segments))
	}
	// Below FitMinM a thawed evaluator prices numerically, at and above it
	// from the fits, so every fit must start exactly there.
	if (fp.ExecFits != nil || fp.LCFits != nil || fp.ChgFits != nil) && fp.FitMinM < 1 {
		return fmt.Errorf("core: frozen plan has fits but fitMinM %d", fp.FitMinM)
	}
	for _, fits := range [][]*cost.SymbolicCounts{fp.ExecFits, fp.LCFits} {
		for t, sc := range fits {
			if err := sc.Validate(fp.FitMinM); err != nil {
				return fmt.Errorf("core: frozen plan fit of nest %d: %w", t+1, err)
			}
		}
	}
	for i, sl := range fp.ChgFits {
		if i == 0 {
			continue // no boundary enters the first segment
		}
		if err := sl.Validate(fp.FitMinM); err != nil {
			return fmt.Errorf("core: frozen plan change fit into segment %d: %w", i+1, err)
		}
	}
	return nil
}

// Thaw reconstructs a PlanEvaluator for the compiler's program from a
// frozen plan, without compiling: its Base is rebuilt from the recorded
// segments (scheme sets re-derived from the alignment partitions) and
// costs, with no DP table and no pipelining decisions, and any recorded
// fits are reinstated. The compiler must be bound at the plan's BaseM,
// whose analysis the evaluator reads, and configured identically to the
// one that produced the plan (same CacheKey) for the evaluator to be
// meaningful — the artifact store enforces that by keying on it.
func Thaw(c *Compiler, fp *FrozenPlan) (*PlanEvaluator, error) {
	if len(c.Program.Params) != 1 {
		return nil, fmt.Errorf("core: PlanEvaluator sweeps exactly one size parameter, program %s has %d", c.Program.Name, len(c.Program.Params))
	}
	if m := c.Bind[c.Program.Params[0]]; m != fp.BaseM {
		return nil, fmt.Errorf("core: plan baseM=%d does not match m=%d", fp.BaseM, m)
	}
	if err := fp.Validate(c.Program); err != nil {
		return nil, err
	}
	an, err := c.analysis()
	if err != nil {
		return nil, err
	}
	dp := &DPResult{
		LoopCarried: fp.LoopCarried,
		MinimumCost: fp.MinimumCost,
		// RunDP's own subtraction, so a thawed total equals a compiled one.
		SegmentTotal: fp.MinimumCost - fp.LoopCarried,
	}
	pe := &PlanEvaluator{
		c: c, Base: &CompileResult{DP: dp, WholeProgramCost: fp.WholeCost}, BaseM: fp.BaseM,
		execSym: fp.ExecFits, lcSym: fp.LCFits, chgSym: fp.ChgFits, fitMinM: fp.FitMinM,
	}
	for _, seg := range fp.Segments {
		// A plan frozen for another processor count would price that
		// machine's grids under this compiler's key.
		if r := seg.Shape[0]; r < 1 || seg.Shape[1] < 1 || c.NProcs%r != 0 || seg.Shape[1] != c.NProcs/r {
			return nil, fmt.Errorf("core: frozen plan segment (%d,%d) has a %dx%d grid, the compiler has %d processors", seg.Start, seg.Len, seg.Shape[0], seg.Shape[1], c.NProcs)
		}
		pt := align.Partition{Assign: map[ir.DimID]int{}, Method: "thawed"}
		for _, a := range seg.Assign {
			pt.Assign[ir.DimID{Array: a.Array, Dim: a.Dim}] = a.Subset
		}
		set, err := deriveSchemes(an.low, pt, seg.Shape, seg.Cyclic)
		if err != nil {
			return nil, fmt.Errorf("core: thawing segment (%d,%d): %w", seg.Start, seg.Len, err)
		}
		dp.Segments = append(dp.Segments, Segment{Start: seg.Start, Len: seg.Len, Schemes: set, M: seg.M, ChangeIn: seg.Change})
	}
	return pe, nil
}
