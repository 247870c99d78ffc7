// Pretty-printing: render an IR program back to the frontend source
// syntax, so compiled or generated programs can be dumped, diffed, and
// re-parsed. Print and Parse (parse.go) round-trip. The
// printed form is also what core.ProgramHash digests on every plan key,
// so it is written into one builder with strconv, not through fmt.
package ir

import (
	"sort"
	"strconv"
	"strings"
)

// Print renders the program in the frontend syntax Parse accepts.
func Print(p *Program) string {
	var b strings.Builder
	b.WriteString("PROGRAM ")
	b.WriteString(p.Name)
	b.WriteByte('\n')
	if len(p.Params) > 0 {
		b.WriteString("PARAM ")
		b.WriteString(strings.Join(p.Params, ", "))
		b.WriteByte('\n')
	}
	names := make([]string, 0, len(p.Arrays))
	for n := range p.Arrays {
		names = append(names, n)
	}
	sort.Strings(names)
	b.WriteString("REAL ")
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(n)
		b.WriteByte('(')
		for j, e := range p.Arrays[n].Extents {
			if j > 0 {
				b.WriteByte(',')
			}
			e.writeTo(&b)
		}
		b.WriteByte(')')
	}
	b.WriteByte('\n')

	label := 100 // generated loop-end labels, clear of paper line numbers
	if p.Iterative {
		b.WriteString("DO ")
		writeInt(&b, label)
		b.WriteString(" k0 = 1, MAX_ITERATION\n")
	}
	for _, nest := range p.Nests {
		emit(&b, nest, &label)
	}
	if p.Iterative {
		b.WriteString("100 CONTINUE\n")
	}
	b.WriteString("END\n")
	return b.String()
}

func writeInt(b *strings.Builder, v int) {
	var buf [20]byte
	b.Write(strconv.AppendInt(buf[:0], int64(v), 10))
}

// writeIndent writes the two-space indentation of loop depth d.
func writeIndent(b *strings.Builder, d int) {
	for ; d > 0; d-- {
		b.WriteString("  ")
	}
}

func printStmt(b *strings.Builder, st *Stmt, depth int) {
	if st.Line > 0 {
		writeInt(b, st.Line)
		b.WriteByte(' ')
	}
	writeIndent(b, depth)
	st.LHS.writeTo(b)
	b.WriteString(" = ")
	if st.RHS == nil {
		b.WriteString("0.0")
	} else {
		writeExpr(b, st.RHS)
	}
	b.WriteByte('\n')
}

// writeExpr renders an expression in the frontend's infix syntax (fully
// parenthesized, which the parser accepts).
func writeExpr(b *strings.Builder, e Expr) {
	switch v := e.(type) {
	case Num:
		var buf [32]byte
		b.Write(strconv.AppendFloat(buf[:0], float64(v), 'g', -1, 64)) // fmt's %g
	case Scalar:
		b.WriteString(string(v))
	case RefE:
		v.Ref.writeTo(b)
	case NegE:
		b.WriteString("(-")
		writeExpr(b, v.E)
		b.WriteByte(')')
	case BinOp:
		b.WriteByte('(')
		writeExpr(b, v.L)
		b.WriteByte(' ')
		b.WriteRune(rune(v.Op))
		b.WriteByte(' ')
		writeExpr(b, v.R)
		b.WriteByte(')')
	default:
		b.WriteString("0.0")
	}
}

// emit renders a nest with one distinct label per loop, closing each loop
// with its own CONTINUE so pre/post statement positions are preserved.
func emit(b *strings.Builder, nest *Nest, label *int) {
	labels := make([]int, len(nest.Loops))
	for i := range labels {
		*label++
		labels[i] = *label
	}
	var walk func(level int)
	walk = func(level int) {
		for _, st := range nest.Stmts {
			if st.Depth == level && !nest.IsPost(st) {
				printStmt(b, st, level)
			}
		}
		if level < len(nest.Loops) {
			l := nest.Loops[level]
			writeIndent(b, level)
			b.WriteString("DO ")
			writeInt(b, labels[level])
			b.WriteByte(' ')
			b.WriteString(l.Index)
			b.WriteString(" = ")
			l.Lo.writeTo(b)
			b.WriteString(", ")
			l.Hi.writeTo(b)
			if l.Step == -1 {
				b.WriteString(", -1")
			}
			b.WriteByte('\n')
			walk(level + 1)
			writeIndent(b, level)
			writeInt(b, labels[level])
			b.WriteString(" CONTINUE\n")
		}
		for _, st := range nest.Stmts {
			if st.Depth == level && nest.IsPost(st) {
				printStmt(b, st, level)
			}
		}
	}
	walk(0)
}
