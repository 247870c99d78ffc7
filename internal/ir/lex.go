// The frontend's lexer: source text -> tokens for Parse.
package ir

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokNewline
	tokIdent
	tokNumber
	tokLParen
	tokRParen
	tokComma
	tokAssign
	tokPlus
	tokMinus
	tokStar
	tokSlash
)

var tokNames = [...]string{
	tokEOF: "end of input", tokNewline: "end of line", tokIdent: "identifier", tokNumber: "number",
	tokLParen: "'('", tokRParen: "')'", tokComma: "','", tokAssign: "'='",
	tokPlus: "'+'", tokMinus: "'-'", tokStar: "'*'", tokSlash: "'/'",
}

func (k tokKind) String() string { return tokNames[k] }

type token struct {
	kind tokKind
	text string
	line int
}

// lexer splits source text into tokens. Comments run in { } braces or
// from "!" to end of line; case is preserved for identifiers (the IR is
// case-sensitive, matching the paper's mixed-case names).
type lexer struct {
	src  []rune
	pos  int
	line int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: []rune(src), line: 1}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.emit(tokNewline, "\n")
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '{':
			if err := l.skipBraceComment(); err != nil {
				return nil, err
			}
		case c == '!':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case unicode.IsLetter(c) || c == '_':
			start := l.pos
			for l.pos < len(l.src) && (unicode.IsLetter(l.src[l.pos]) || unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '_') {
				l.pos++
			}
			l.emit(tokIdent, string(l.src[start:l.pos]))
		case unicode.IsDigit(c):
			start := l.pos
			for l.pos < len(l.src) && (unicode.IsDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
				l.pos++
			}
			l.emit(tokNumber, string(l.src[start:l.pos]))
		default:
			switch c {
			case '(':
				l.emit(tokLParen, "(")
			case ')':
				l.emit(tokRParen, ")")
			case ',':
				l.emit(tokComma, ",")
			case '=':
				l.emit(tokAssign, "=")
			case '+':
				l.emit(tokPlus, "+")
			case '-':
				l.emit(tokMinus, "-")
			case '*':
				l.emit(tokStar, "*")
			case '/':
				l.emit(tokSlash, "/")
			default:
				return nil, fmt.Errorf("parse: line %d: unexpected character %q", l.line, c)
			}
			l.pos++
		}
	}
	l.emit(tokEOF, "")
	return l.toks, nil
}

func (l *lexer) emit(k tokKind, text string) {
	l.toks = append(l.toks, token{kind: k, text: text, line: l.line})
}

func (l *lexer) skipBraceComment() error {
	start := l.line
	for l.pos < len(l.src) {
		if l.src[l.pos] == '}' {
			l.pos++
			return nil
		}
		if l.src[l.pos] == '\n' {
			l.line++
		}
		l.pos++
	}
	return fmt.Errorf("parse: line %d: unterminated { comment", start)
}

// keyword matching is case-insensitive, as in Fortran.
func isKeyword(t token, kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}
