// Package codegen emits the SPMD message-passing programs the paper's
// compiler generates (Figs 6 and 8): Fortran-style per-processor code
// with explicit send/receive, local index translation, and the
// communication structure chosen by the analyses —
//
//   - a nest whose reduction accumulator travels (mu . d = 1 for the
//     accumulator under the chosen mapping, like SOR's V) becomes the
//     four-phase ring wavefront of Fig 6;
//   - a triangular nest whose pivot tokens travel (Gauss's A(k,j), B(k))
//     becomes the forward-then-compute elimination pipeline of Fig 8,
//     and its downward back-substitution sends X leftward;
//   - a nest with only local tokens becomes plain data-parallel loops
//     over the processor's local index set.
//
// The generator is driven by the dependence analysis (package dep) and
// the distribution schemes (package core); the emitted text is assembled
// from the IR's real array names, bounds and statement text.
package codegen

import (
	"fmt"
	"strings"

	"dmcc/internal/core"
	"dmcc/internal/dep"
	"dmcc/internal/ir"
)

// NestPlan is the per-nest compilation outcome codegen consumes.
type NestPlan struct {
	Nest     *ir.Nest
	Decision dep.PipelineDecision
	// Cyclic is true for cyclic (mod N) distributions, false for blocks.
	Cyclic bool
}

// Program generates the complete SPMD program for a compiled IR program.
func Program(p *ir.Program, plans []NestPlan) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "{* SPMD code generated for %s: m = problem size, N = processors, block = m/N. *}\n", p.Name)
	b.WriteString(declarations(p, plans))
	b.WriteString("me = who_am_i()   {* Return current processor's ID. *}\n")
	if anyBlock(plans) {
		b.WriteString("before = me * block\n")
	}
	if p.Iterative {
		b.WriteString("do k = 1, MAX_ITERATION\n")
	}
	for _, pl := range plans {
		body, err := genNest(p, pl)
		if err != nil {
			return "", err
		}
		indent := ""
		if p.Iterative {
			indent = "  "
		}
		for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
			b.WriteString(indent + line + "\n")
		}
	}
	if p.Iterative {
		b.WriteString("continue\n")
	}
	return b.String(), nil
}

func anyBlock(plans []NestPlan) bool {
	for _, pl := range plans {
		if !pl.Cyclic {
			return true
		}
	}
	return false
}

// declarations emits the local array declarations with distributed
// dimensions shrunk to block (or ceil(m/N) for cyclic layouts), as the
// headers of Figs 6 and 8 do.
func declarations(p *ir.Program, plans []NestPlan) string {
	cyclic := false
	for _, pl := range plans {
		if pl.Cyclic {
			cyclic = true
		}
	}
	local := "block"
	if cyclic {
		local = "m/N"
	}
	var names []string
	for _, d := range p.AllDims() {
		if d.Dim == 0 {
			names = append(names, d.Array)
		}
	}
	var parts []string
	for _, n := range names {
		arr := p.Array(n)
		dims := make([]string, arr.Rank())
		for k := range dims {
			// By convention the first dimension is distributed for
			// cyclic (row) layouts and the second for block (column)
			// layouts, matching Figs 8 and 6 respectively.
			if (cyclic && k == 0) || (!cyclic && k == arr.Rank()-1 && arr.Rank() > 1) {
				dims[k] = local
			} else if !cyclic && arr.Rank() == 1 {
				dims[k] = local
			} else {
				dims[k] = "m"
			}
		}
		parts = append(parts, fmt.Sprintf("%s(%s)", n, strings.Join(dims, ", ")))
	}
	return "REAL " + strings.Join(parts, ", ") + "\n"
}

// genNest dispatches on the nest's communication structure.
func genNest(p *ir.Program, pl NestPlan) (string, error) {
	dec := pl.Decision
	if !dec.CanPipeline {
		return "", fmt.Errorf("codegen: nest %s has multi-hop tokens; only broadcast code is possible", pl.Nest.Label)
	}
	travelling := map[string]bool{}
	for _, r := range dec.TravellingTokens {
		travelling[r.Array] = true
	}
	// Does the nest's reduction accumulator itself travel? (SOR's V:
	// LHS of a Reduce statement whose array is a travelling token.)
	accTravels := false
	var reduceStmt *ir.Stmt
	for _, st := range pl.Nest.Stmts {
		if st.Reduce {
			reduceStmt = st
			if travelling[st.LHS.Array] {
				accTravels = true
			}
		}
	}
	switch {
	case accTravels:
		return genWavefront(p, pl, reduceStmt), nil
	case core.Triangular(pl.Nest) && len(dec.TravellingTokens) > 0:
		return genElimination(p, pl), nil
	case len(dec.TravellingTokens) == 0:
		return genLocal(p, pl), nil
	default:
		return genShiftLoop(p, pl), nil
	}
}

// genWavefront emits the Fig 6 four-phase ring pipeline for a nest whose
// reduction accumulator circulates (SOR).
func genWavefront(p *ir.Program, pl NestPlan, red *ir.Stmt) string {
	acc := red.LHS.Array // V
	// The updated array (X) is written by the non-reduce statement.
	upd := ""
	var updStmt *ir.Stmt
	for _, st := range pl.Nest.Stmts {
		if !st.Reduce && len(st.Reads) > 0 {
			upd = st.LHS.Array
			updStmt = st
		}
	}
	mat := anchorArray(red)
	var b strings.Builder
	fmt.Fprintf(&b, "{* Nest %s: pipelined wavefront (Fig 6 schema); %s circulates the ring. *}\n", pl.Nest.Label, acc)
	fmt.Fprintf(&b, "do i = 1, before                       {* phase 1: rows of left processors *}\n")
	fmt.Fprintf(&b, "  temp = 0.0\n")
	fmt.Fprintf(&b, "  do j = 1, block\n")
	fmt.Fprintf(&b, "    temp = temp + %s(i, j) * %s(j)\n", mat, upd)
	fmt.Fprintf(&b, "  continue\n")
	fmt.Fprintf(&b, "  receive_from_left( %s(i) )\n", acc)
	fmt.Fprintf(&b, "  %s(i) = %s(i) + temp\n", acc, acc)
	fmt.Fprintf(&b, "  send_to_right( %s(i) )\n", acc)
	fmt.Fprintf(&b, "continue\n")
	fmt.Fprintf(&b, "do i = 1, block                        {* phase 2: seed my rows (old %s) *}\n", upd)
	fmt.Fprintf(&b, "  current = before + i\n")
	fmt.Fprintf(&b, "  %s(current) = 0.0\n", acc)
	fmt.Fprintf(&b, "  do j = i, block\n")
	fmt.Fprintf(&b, "    %s(current) = %s(current) + %s(current, j) * %s(j)\n", acc, acc, mat, upd)
	fmt.Fprintf(&b, "  continue\n")
	fmt.Fprintf(&b, "  send_to_right( %s(current) )\n", acc)
	fmt.Fprintf(&b, "continue\n")
	fmt.Fprintf(&b, "do i = 1, block                        {* phase 3: complete my rows (new %s), update *}\n", upd)
	fmt.Fprintf(&b, "  current = before + i\n")
	fmt.Fprintf(&b, "  temp = 0.0\n")
	fmt.Fprintf(&b, "  do j = 1, i - 1\n")
	fmt.Fprintf(&b, "    temp = temp + %s(current, j) * %s(j)\n", mat, upd)
	fmt.Fprintf(&b, "  continue\n")
	fmt.Fprintf(&b, "  receive_from_left( %s(current) )\n", acc)
	fmt.Fprintf(&b, "  %s(current) = %s(current) + temp\n", acc, acc)
	if updStmt != nil {
		fmt.Fprintf(&b, "  %s\n", localizeUpdate(updStmt, acc))
	}
	fmt.Fprintf(&b, "continue\n")
	fmt.Fprintf(&b, "do i = (me + 1) * block + 1, m         {* phase 4: rows of right processors *}\n")
	fmt.Fprintf(&b, "  temp = 0.0\n")
	fmt.Fprintf(&b, "  do j = 1, block\n")
	fmt.Fprintf(&b, "    temp = temp + %s(i, j) * %s(j)\n", mat, upd)
	fmt.Fprintf(&b, "  continue\n")
	fmt.Fprintf(&b, "  receive_from_left( %s(i) )\n", acc)
	fmt.Fprintf(&b, "  %s(i) = %s(i) + temp\n", acc, acc)
	fmt.Fprintf(&b, "  send_to_right( %s(i) )\n", acc)
	fmt.Fprintf(&b, "continue\n")
	return b.String()
}

// localizeUpdate rewrites the update statement's text with the completed
// accumulator substituted (Fig 6 line 32: X(i) uses V(current)).
func localizeUpdate(st *ir.Stmt, acc string) string {
	txt := st.Text
	txt = strings.ReplaceAll(txt, acc+"(i)", acc+"(current)")
	return txt
}

// anchorArray returns the 2-D array driving a reduction (A in both SOR
// and Gauss back-substitution).
func anchorArray(st *ir.Stmt) string {
	for _, rd := range st.Reads {
		if len(rd.Subs) == 2 && rd.Array != st.LHS.Array {
			return rd.Array
		}
	}
	return "A"
}

// genElimination emits the Fig 8 pipelined elimination for a triangular
// nest whose pivot tokens travel (Gauss G1).
func genElimination(p *ir.Program, pl NestPlan) string {
	// Travelling tokens become the pipeline buffers.
	var bufs []string
	seen := map[string]bool{}
	for _, r := range pl.Decision.TravellingTokens {
		if !seen[r.Array] {
			seen[r.Array] = true
			bufs = append(bufs, r.Array+"pipeline")
		}
	}
	buf := strings.Join(bufs, ", ")
	downward := pl.Nest.Loops[0].Step < 0
	var b strings.Builder
	if downward {
		fmt.Fprintf(&b, "{* Nest %s: pipelined back substitution (Fig 8 schema); X flows leftward. *}\n", pl.Nest.Label)
		fmt.Fprintf(&b, "do j = m, 1, -1\n")
		fmt.Fprintf(&b, "  if ( (j - 1) mod N == me ) then\n")
		fmt.Fprintf(&b, "    pivot = local_index(j)\n")
		for _, st := range pl.Nest.Stmts {
			if st.Depth == 1 {
				fmt.Fprintf(&b, "    %s\n", st.Text)
			}
		}
		fmt.Fprintf(&b, "    send_to_left( %s )\n", buf)
		fmt.Fprintf(&b, "  else\n")
		fmt.Fprintf(&b, "    receive_from_right( %s )\n", buf)
		fmt.Fprintf(&b, "    if ( left_neighbour /= owner(j) ) send_to_left( %s )\n", buf)
		fmt.Fprintf(&b, "  endif\n")
		fmt.Fprintf(&b, "  do i = local rows above j, descending\n")
		for _, st := range pl.Nest.Stmts {
			if st.Depth == 2 {
				fmt.Fprintf(&b, "    %s\n", pipelineText(st, seen, "j"))
			}
		}
		fmt.Fprintf(&b, "  continue\n")
		fmt.Fprintf(&b, "continue\n")
		return b.String()
	}
	fmt.Fprintf(&b, "{* Nest %s: pipelined elimination (Fig 8 schema); the pivot row flows rightward. *}\n", pl.Nest.Label)
	fmt.Fprintf(&b, "do k = 1, m\n")
	fmt.Fprintf(&b, "  if ( (k - 1) mod N == me ) then\n")
	fmt.Fprintf(&b, "    pivot = local_index(k)\n")
	fmt.Fprintf(&b, "    send_to_right( %s )\n", buf)
	fmt.Fprintf(&b, "  else\n")
	fmt.Fprintf(&b, "    receive_from_left( %s )\n", buf)
	fmt.Fprintf(&b, "    if ( right_neighbour /= owner(k) ) send_to_right( %s )\n", buf)
	fmt.Fprintf(&b, "  endif\n")
	fmt.Fprintf(&b, "  do i = local rows below k\n")
	for _, st := range pl.Nest.Stmts {
		if st.Depth == 2 {
			fmt.Fprintf(&b, "    %s\n", pipelineText(st, seen, "k"))
		}
	}
	fmt.Fprintf(&b, "    do j = k + 1, m\n")
	for _, st := range pl.Nest.Stmts {
		if st.Depth == 3 {
			fmt.Fprintf(&b, "      %s\n", pipelineText(st, seen, "k"))
		}
	}
	fmt.Fprintf(&b, "    continue\n")
	fmt.Fprintf(&b, "  continue\n")
	fmt.Fprintf(&b, "continue\n")
	return b.String()
}

// pipelineText rewrites a statement's references to travelling arrays as
// pipeline-buffer accesses, the way Fig 8 replaces A(k,j) by
// Apipeline(j), B(k) by Bpipeline, and X(j) by Xpipeline. piv is the
// nest's pivot loop index (k for the elimination, j for the back
// substitution).
func pipelineText(st *ir.Stmt, travelling map[string]bool, piv string) string {
	txt := st.Text
	for arr := range travelling {
		txt = strings.ReplaceAll(txt, arr+"("+piv+","+piv+")", arr+"pipeline("+piv+")")
		txt = strings.ReplaceAll(txt, arr+"("+piv+",j)", arr+"pipeline(j)")
		txt = strings.ReplaceAll(txt, arr+"("+piv+")", arr+"pipeline")
	}
	return txt
}

// genLocal emits plain data-parallel loops for a fully local nest.
func genLocal(p *ir.Program, pl NestPlan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "{* Nest %s: fully local under the chosen distribution. *}\n", pl.Nest.Label)
	b.WriteString(renderBody(pl, func(st *ir.Stmt) string { return st.Text }))
	return b.String()
}

// genShiftLoop emits the nest's loops with shift-pipelined remote
// operands (Jacobi's X exchange).
func genShiftLoop(p *ir.Program, pl NestPlan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "{* Nest %s: local loops; travelling operands pipelined with Shift. *}\n", pl.Nest.Label)
	for _, r := range pl.Decision.TravellingTokens {
		fmt.Fprintf(&b, "{* token %s: mu.d = 1 -> receive_from_left / send_to_right instead of multicast *}\n", r)
	}
	b.WriteString(renderBody(pl, func(st *ir.Stmt) string { return st.Text }))
	return b.String()
}

// renderBody emits a nest's loops and statements with correct nesting:
// statements open and close loops as their depths require, and the loop
// over the distributed index (the one the mapping assigns a nonzero
// coefficient) iterates over the processor's local index set.
func renderBody(pl NestPlan, rewrite func(*ir.Stmt) string) string {
	var b strings.Builder
	ind := func(d int) string { return strings.Repeat("  ", d) }
	openTo := func(cur, want int) int {
		for cur < want {
			l := pl.Nest.Loops[cur]
			if pl.Decision.Mapping.Coeff[l.Index] != 0 {
				fmt.Fprintf(&b, "%sdo %s = 1, %s   {* local %s indices *}\n",
					ind(cur), l.Index, localBound(pl), l.Index)
			} else if l.Step < 0 {
				fmt.Fprintf(&b, "%sdo %s = %s, %s, -1\n", ind(cur), l.Index, l.Lo, l.Hi)
			} else {
				fmt.Fprintf(&b, "%sdo %s = %s, %s\n", ind(cur), l.Index, l.Lo, l.Hi)
			}
			cur++
		}
		return cur
	}
	closeTo := func(cur, want int) int {
		for cur > want {
			cur--
			fmt.Fprintf(&b, "%scontinue\n", ind(cur))
		}
		return cur
	}
	depth := 0
	for _, st := range pl.Nest.Stmts {
		depth = closeTo(depth, st.Depth)
		depth = openTo(depth, st.Depth)
		fmt.Fprintf(&b, "%s%s\n", ind(st.Depth), rewrite(st))
	}
	closeTo(depth, 0)
	return b.String()
}

func localBound(pl NestPlan) string {
	if pl.Cyclic {
		return "local_count(me)"
	}
	return "block"
}
