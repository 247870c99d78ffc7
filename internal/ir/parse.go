// The frontend: a recursive-descent parser from Fortran-style Do-loop
// programs — the notation of the paper's listings — to a Program, the
// inverse of Print, so the whole pipeline (alignment, Algorithm 1,
// dependence analysis, codegen) can be driven from program text.
//
// The accepted language is the fragment the paper's method applies to:
//
//	PROGRAM jacobi
//	PARAM m
//	REAL A(m,m), V(m), B(m), X(m)
//	ITERATE                          { optional outer convergence loop }
//	DO 6 i = 1, m
//	  V(i) = 0.0
//	  DO 6 j = 1, m
//	5   V(i) = V(i) + A(i,j) * X(j)
//	6 CONTINUE
//	DO 9 i = 1, m
//	8 X(i) = X(i) + (B(i) - V(i)) / A(i,i)
//	9 CONTINUE
//	END
//
// Loops close at the CONTINUE carrying their label (shared labels close
// several loops at once, as in the paper), or at an unlabeled ENDDO.
// Subscripts and loop bounds must be affine in the loop indices and size
// parameters; right-hand sides are arbitrary scalar expressions over
// array references, whose reads and flop counts the parser extracts.
package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse turns source text into a validated program. It reads what Print
// writes: a printed program parses back to one that runs the same.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, lines: strings.Split(src, "\n")}
	prog, err := p.program()
	if err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("parse: %v", err)
	}
	return prog, nil
}

type parser struct {
	toks  []token
	pos   int
	lines []string
	prog  *Program
	// loop indices currently in scope, outermost first.
	scope []string
	// chainLabels holds the end labels of the open loop chain, parallel
	// to scope, for the paper's shared-label CONTINUE style.
	chainLabels []int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expect(k tokKind) (token, error) {
	t := p.next()
	if t.kind != k {
		return t, fmt.Errorf("parse: line %d: expected %v, got %q", t.line, k, t.text)
	}
	return t, nil
}

func (p *parser) skipNewlines() {
	for p.cur().kind == tokNewline {
		p.pos++
	}
}

func (p *parser) errf(t token, format string, args ...interface{}) error {
	return fmt.Errorf("parse: line %d: "+format, append([]interface{}{t.line}, args...)...)
}

// program := "PROGRAM" ident NL decls [iterate] nests "END"
func (p *parser) program() (*Program, error) {
	p.skipNewlines()
	if !isKeyword(p.cur(), "PROGRAM") {
		return nil, p.errf(p.cur(), "expected PROGRAM, got %q", p.cur().text)
	}
	p.next()
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	p.prog = &Program{Name: name.text, Arrays: map[string]*Array{}}
	p.skipNewlines()

	// Declarations.
	for {
		switch {
		case isKeyword(p.cur(), "PARAM"):
			p.next()
			for {
				id, err := p.expect(tokIdent)
				if err != nil {
					return nil, err
				}
				p.prog.Params = append(p.prog.Params, id.text)
				if p.cur().kind != tokComma {
					break
				}
				p.next()
			}
			p.skipNewlines()
		case isKeyword(p.cur(), "REAL"):
			p.next()
			if err := p.arrayDecls(); err != nil {
				return nil, err
			}
			p.skipNewlines()
		default:
			goto body
		}
	}

body:
	if isKeyword(p.cur(), "ITERATE") {
		p.prog.Iterative = true
		p.next()
		p.skipNewlines()
	}
	for !isKeyword(p.cur(), "END") {
		if p.cur().kind == tokEOF {
			return nil, p.errf(p.cur(), "missing END")
		}
		if err := p.topLevel(); err != nil {
			return nil, err
		}
		p.skipNewlines()
	}
	return p.prog, nil
}

// arrayDecls := arraydecl {"," arraydecl}
func (p *parser) arrayDecls() error {
	for {
		id, err := p.expect(tokIdent)
		if err != nil {
			return err
		}
		if _, err := p.expect(tokLParen); err != nil {
			return err
		}
		var extents []Affine
		for {
			a, err := p.affine()
			if err != nil {
				return err
			}
			extents = append(extents, a)
			if p.cur().kind != tokComma {
				break
			}
			p.next()
		}
		if _, err := p.expect(tokRParen); err != nil {
			return err
		}
		if _, dup := p.prog.Arrays[id.text]; dup {
			return p.errf(id, "array %s declared twice", id.text)
		}
		p.prog.Arrays[id.text] = &Array{Name: id.text, Extents: extents}
		if p.cur().kind != tokComma {
			return nil
		}
		p.next()
	}
}

// topLevel parses one top-level DO, producing a nest — or, when the DO's
// upper bound is MAX_ITERATION, marks the program iterative and parses
// the loop's body as the sequence of nests.
func (p *parser) topLevel() error {
	p.optionalLabel()
	if !isKeyword(p.cur(), "DO") {
		return p.errf(p.cur(), "expected DO at top level, got %q", p.cur().text)
	}
	save := p.pos
	endLabel, loop, err := p.doHeader()
	if err != nil {
		return err
	}
	if vars := loop.Hi.Vars(); len(vars) == 1 && strings.EqualFold(vars[0], "MAX_ITERATION") {
		p.prog.Iterative = true
		p.skipNewlines()
		// Parse the wrapper's body as top-level nests until its CONTINUE.
		for {
			lbl, has := p.peekLabel()
			if has && lbl == endLabel && p.labelIsContinue() {
				p.consumeLabeledContinue()
				return nil
			}
			if p.cur().kind == tokEOF {
				return p.errf(p.cur(), "iterative loop not closed by %d CONTINUE", endLabel)
			}
			if err := p.topLevel(); err != nil {
				return err
			}
			p.skipNewlines()
		}
	}
	p.pos = save // reparse as a real nest loop
	nest := &Nest{Label: fmt.Sprintf("L%d", len(p.prog.Nests)+1)}
	if err := p.nestLoop(nest); err != nil {
		return err
	}
	p.prog.Nests = append(p.prog.Nests, nest)
	return nil
}

// doHeader parses "DO <label> idx = lo, hi [, step]"; the leading label
// token (if any) has already been consumed by the caller's optionalLabel.
func (p *parser) doHeader() (endLabel int, loop Loop, err error) {
	if !isKeyword(p.cur(), "DO") {
		return 0, loop, p.errf(p.cur(), "expected DO")
	}
	p.next()
	lt, err := p.expect(tokNumber)
	if err != nil {
		return 0, loop, err
	}
	endLabel, err = strconv.Atoi(lt.text)
	if err != nil {
		return 0, loop, p.errf(lt, "bad loop label %q", lt.text)
	}
	idx, err := p.expect(tokIdent)
	if err != nil {
		return 0, loop, err
	}
	if _, err := p.expect(tokAssign); err != nil {
		return 0, loop, err
	}
	lo, err := p.affine()
	if err != nil {
		return 0, loop, err
	}
	if _, err := p.expect(tokComma); err != nil {
		return 0, loop, err
	}
	hi, err := p.affine()
	if err != nil {
		return 0, loop, err
	}
	step := 1
	if p.cur().kind == tokComma {
		p.next()
		st, err := p.affine()
		if err != nil {
			return 0, loop, err
		}
		if !st.IsConst() || (st.Const != 1 && st.Const != -1) {
			return 0, loop, p.errf(p.cur(), "loop step must be 1 or -1")
		}
		step = st.Const
	}
	if _, err := p.expect(tokNewline); err != nil {
		return 0, loop, err
	}
	return endLabel, Loop{Index: idx.text, Lo: lo, Hi: hi, Step: step}, nil
}

// nestLoop parses a DO and its body into nest, recursively for inner
// loops. A labeled CONTINUE closes every open loop that shares its label
// (the paper's shared-label style); ENDDO closes the innermost loop.
func (p *parser) nestLoop(nest *Nest) error {
	p.optionalLabel()
	endLabel, loop, err := p.doHeader()
	if err != nil {
		return err
	}
	nest.Loops = append(nest.Loops, loop)
	p.scope = append(p.scope, loop.Index)
	p.chainLabels = append(p.chainLabels, endLabel)
	defer func() {
		p.scope = p.scope[:len(p.scope)-1]
		p.chainLabels = p.chainLabels[:len(p.chainLabels)-1]
	}()

	for {
		p.skipNewlines()
		if lbl, has := p.peekLabel(); has && lbl == endLabel && p.labelIsContinue() {
			// Shared label: leave the CONTINUE in place for outer loops
			// with the same label; consume it only at the outermost
			// matching level. We detect that by checking whether any
			// enclosing loop is still waiting on the same label — the
			// caller handles it, so consume only if we are the outermost
			// user of this label.
			if !p.outerSharesLabel(endLabel) {
				p.consumeLabeledContinue()
			}
			return nil
		}
		t := p.cur()
		switch {
		case t.kind == tokEOF:
			return p.errf(t, "loop DO %d not closed", endLabel)
		case isKeyword(t, "ENDDO"):
			p.next()
			return nil
		default:
			// Either an inner DO or a statement, optionally labeled.
			savePos := p.pos
			stmtLabel, _ := p.optionalLabel()
			if isKeyword(p.cur(), "DO") {
				p.pos = savePos
				if len(nest.Stmts) > 0 && len(nest.Loops) > len(p.scope) {
					// A previous inner chain closed, so this is a second
					// one: unsupported shape.
					return p.errf(t, "multiple sibling inner loops in one nest are not supported; split them into separate top-level loops")
				}
				if err := p.nestLoop(nest); err != nil {
					return err
				}
				continue
			}
			if err := p.statement(nest, stmtLabel); err != nil {
				return err
			}
		}
	}
}

// optionalLabel consumes a leading statement label (a number at the
// start of a line) and returns it.
func (p *parser) optionalLabel() (int, bool) {
	v, ok := p.peekLabel()
	if ok {
		p.next()
	}
	return v, ok
}

// peekLabel looks at a leading label — "5  V(i) = ...", "6 CONTINUE",
// "8 DO ..." — without consuming it.
func (p *parser) peekLabel() (int, bool) {
	if p.cur().kind == tokNumber && !strings.Contains(p.cur().text, ".") {
		v, err := strconv.Atoi(p.cur().text)
		if err == nil && p.pos+1 < len(p.toks) && p.toks[p.pos+1].kind == tokIdent {
			return v, true
		}
	}
	return 0, false
}

// labelIsContinue reports whether the token after the current label is
// CONTINUE.
func (p *parser) labelIsContinue() bool {
	return p.pos+1 < len(p.toks) && isKeyword(p.toks[p.pos+1], "CONTINUE")
}

func (p *parser) consumeLabeledContinue() {
	p.next() // label
	p.next() // CONTINUE
	if p.cur().kind == tokNewline {
		p.next()
	}
}

// outerSharesLabel reports whether an enclosing open loop also ends at
// the given label (the paper shares one label across a whole chain); if
// so, the labeled CONTINUE is left for the outermost sharer to consume.
func (p *parser) outerSharesLabel(label int) bool {
	for _, l := range p.chainLabels[:len(p.chainLabels)-1] {
		if l == label {
			return true
		}
	}
	return false
}

// statement parses "ref = expr".
func (p *parser) statement(nest *Nest, label int) error {
	startTok := p.cur()
	lhs, err := p.ref()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokAssign); err != nil {
		return err
	}
	rhs, reads, flops, err := p.expr()
	if err != nil {
		return err
	}
	if p.cur().kind == tokNewline {
		p.next()
	}
	// Reduction detection: the statement accumulates into its own LHS
	// (a self-read with identical subscripts), there is a reduction loop
	// (an in-scope index absent from the LHS subscripts), and no *other*
	// reference to the LHS array appears — Gauss's
	// B(i) = B(i) - L(i,k)*B(k) is an order-dependent update, not a
	// commutative reduction, because of the B(k) read.
	selfRead, otherRead := false, false
	for _, r := range reads {
		if r.Array != lhs.Array {
			continue
		}
		if sameSubs(r, lhs) {
			selfRead = true
		} else {
			otherRead = true
		}
	}
	lhsVars := map[string]bool{}
	for _, s := range lhs.Subs {
		for _, v := range s.Vars() {
			lhsVars[v] = true
		}
	}
	redLoop := false
	for _, idx := range p.scope {
		if !lhsVars[idx] {
			redLoop = true
		}
	}
	reduce := selfRead && redLoop && !otherRead
	line := label
	if line == 0 {
		line = startTok.line
	}
	nest.Stmts = append(nest.Stmts, &Stmt{
		Line:   line,
		Depth:  len(p.scope),
		LHS:    lhs,
		Reads:  reads,
		RHS:    rhs,
		Flops:  flops,
		Reduce: reduce,
		Text:   strings.TrimSpace(stripLabel(p.lines[startTok.line-1])),
	})
	return nil
}

func stripLabel(line string) string {
	s := strings.TrimSpace(line)
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i > 0 && i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		return strings.TrimSpace(s[i:])
	}
	return s
}

func sameSubs(a, b Ref) bool {
	if len(a.Subs) != len(b.Subs) {
		return false
	}
	for i := range a.Subs {
		d, ok := a.Subs[i].ConstDiff(b.Subs[i])
		if !ok || d != 0 {
			return false
		}
	}
	return true
}

// ref := ident "(" affine {"," affine} ")"
func (p *parser) ref() (Ref, error) {
	id, err := p.expect(tokIdent)
	if err != nil {
		return Ref{}, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return Ref{}, err
	}
	var subs []Affine
	for {
		a, err := p.affine()
		if err != nil {
			return Ref{}, err
		}
		subs = append(subs, a)
		if p.cur().kind != tokComma {
			break
		}
		p.next()
	}
	if _, err := p.expect(tokRParen); err != nil {
		return Ref{}, err
	}
	return Ref{Array: id.text, Subs: subs}, nil
}

// expr parses the right-hand side: a standard precedence-climbing parser
// building an executable expression tree, recording array reads and
// counting one flop per arithmetic operation. Scalar identifiers (OMEGA,
// temp, ...) become Scalar leaves; they are replicated per Section 2.
func (p *parser) expr() (Expr, []Ref, int, error) {
	e := &exprParser{p: p}
	tree, err := e.additive()
	if err != nil {
		return nil, nil, 0, err
	}
	return tree, ExprReads(tree), ExprFlops(tree), nil
}

type exprParser struct {
	p *parser
}

func (e *exprParser) additive() (Expr, error) {
	l, err := e.multiplicative()
	if err != nil {
		return nil, err
	}
	for e.p.cur().kind == tokPlus || e.p.cur().kind == tokMinus {
		op := byte('+')
		if e.p.cur().kind == tokMinus {
			op = '-'
		}
		e.p.next()
		r, err := e.multiplicative()
		if err != nil {
			return nil, err
		}
		l = BinOp{Op: op, L: l, R: r}
	}
	return l, nil
}

func (e *exprParser) multiplicative() (Expr, error) {
	l, err := e.unary()
	if err != nil {
		return nil, err
	}
	for e.p.cur().kind == tokStar || e.p.cur().kind == tokSlash {
		op := byte('*')
		if e.p.cur().kind == tokSlash {
			op = '/'
		}
		e.p.next()
		r, err := e.unary()
		if err != nil {
			return nil, err
		}
		l = BinOp{Op: op, L: l, R: r}
	}
	return l, nil
}

func (e *exprParser) unary() (Expr, error) {
	if e.p.cur().kind == tokMinus {
		e.p.next()
		inner, err := e.unary()
		if err != nil {
			return nil, err
		}
		return NegE{E: inner}, nil
	}
	return e.primary()
}

func (e *exprParser) primary() (Expr, error) {
	t := e.p.cur()
	switch t.kind {
	case tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, e.p.errf(t, "bad number %q", t.text)
		}
		e.p.next()
		return Num(v), nil
	case tokLParen:
		e.p.next()
		inner, err := e.additive()
		if err != nil {
			return nil, err
		}
		if _, err := e.p.expect(tokRParen); err != nil {
			return nil, err
		}
		return inner, nil
	case tokIdent:
		// Array reference or scalar.
		if e.p.pos+1 < len(e.p.toks) && e.p.toks[e.p.pos+1].kind == tokLParen {
			if _, isArr := e.p.prog.Arrays[t.text]; isArr {
				r, err := e.p.ref()
				if err != nil {
					return nil, err
				}
				return Rd(r), nil
			}
			return nil, e.p.errf(t, "call of undeclared array/function %q", t.text)
		}
		e.p.next() // scalar
		return Scalar(t.text), nil
	default:
		return nil, e.p.errf(t, "unexpected %q in expression", t.text)
	}
}

// affine parses an affine expression over identifiers: term {(+|-) term},
// term := [int "*"] ident | int | ident ["*" int].
func (p *parser) affine() (Affine, error) {
	acc := Const(0)
	sign := 1
	if p.cur().kind == tokMinus {
		sign = -1
		p.next()
	} else if p.cur().kind == tokPlus {
		p.next()
	}
	for {
		term, err := p.affineTerm(sign)
		if err != nil {
			return acc, err
		}
		acc = acc.Plus(term)
		switch p.cur().kind {
		case tokPlus:
			sign = 1
			p.next()
		case tokMinus:
			sign = -1
			p.next()
		default:
			return acc, nil
		}
	}
}

func (p *parser) affineTerm(sign int) (Affine, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		v, err := strconv.Atoi(t.text)
		if err != nil {
			return Affine{}, p.errf(t, "subscripts must be integers, got %q", t.text)
		}
		p.next()
		if p.cur().kind == tokStar { // int * ident
			p.next()
			id, err := p.expect(tokIdent)
			if err != nil {
				return Affine{}, err
			}
			return NewAffine(0, Term{Var: id.text, Coeff: sign * v}), nil
		}
		return Const(sign * v), nil
	case tokIdent:
		p.next()
		if p.cur().kind == tokStar { // ident * int
			p.next()
			n, err := p.expect(tokNumber)
			if err != nil {
				return Affine{}, err
			}
			v, err := strconv.Atoi(n.text)
			if err != nil {
				return Affine{}, p.errf(n, "bad coefficient %q", n.text)
			}
			return NewAffine(0, Term{Var: t.text, Coeff: sign * v}), nil
		}
		return NewAffine(0, Term{Var: t.text, Coeff: sign}), nil
	default:
		return Affine{}, p.errf(t, "expected affine term, got %q", t.text)
	}
}
