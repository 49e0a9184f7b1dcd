package cminus

import (
	"strings"
)

// Lexer turns Mini-C source into tokens. // and /* */ comments are
// supported. Character literals lex as integer literals.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (l *Lexer) at() Pos { return Pos{l.line, l.col} }

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.at()
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return errf(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// punctByFirst lists the multi-character punctuation by its first byte,
// longest first.
var punctByFirst = func() (t [256][]string) {
	for _, p := range []string{
		"<<=", ">>=",
		"==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
		"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
	} {
		t[p[0]] = append(t[p[0]], p)
	}
	return t
}()

const punct1 = "+-*/%&|^~!<>=(){}[];,?:"

// Next returns the next token.
func (l *Lexer) Next() (Tok, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Tok{}, err
	}
	pos := l.at()
	if l.pos >= len(l.src) {
		return Tok{Kind: TokEOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentCont(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		kind := TokIdent
		if keywords[text] {
			kind = TokKeyword
		}
		return Tok{Kind: kind, Text: text, Pos: pos}, nil

	case isDigit(c):
		start := l.pos
		base := int64(10)
		if c == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
			l.advance()
			l.advance()
			base = 16
			start = l.pos
		}
		var v int64
		ndigits := 0
		for l.pos < len(l.src) {
			d := l.peek()
			var dv int64
			switch {
			case isDigit(d):
				dv = int64(d - '0')
			case base == 16 && d >= 'a' && d <= 'f':
				dv = int64(d-'a') + 10
			case base == 16 && d >= 'A' && d <= 'F':
				dv = int64(d-'A') + 10
			default:
				goto doneNum
			}
			if dv >= base {
				return Tok{}, errf(l.at(), "digit %q out of range for base %d", d, base)
			}
			v = v*base + dv
			ndigits++
			l.advance()
		}
	doneNum:
		if ndigits == 0 {
			return Tok{}, errf(pos, "malformed integer literal")
		}
		_ = l.src[start:l.pos]
		return Tok{Kind: TokInt, Val: v, Pos: pos}, nil

	case c == '\'':
		l.advance()
		if l.pos >= len(l.src) {
			return Tok{}, errf(pos, "unterminated character literal")
		}
		var v int64
		if l.peek() == '\\' {
			l.advance()
			e, err := l.escape(pos)
			if err != nil {
				return Tok{}, err
			}
			v = int64(e)
		} else {
			v = int64(l.advance())
		}
		if l.pos >= len(l.src) || l.peek() != '\'' {
			return Tok{}, errf(pos, "unterminated character literal")
		}
		l.advance()
		return Tok{Kind: TokInt, Val: v, Pos: pos}, nil

	case c == '"':
		l.advance()
		var buf []byte
		for {
			if l.pos >= len(l.src) {
				return Tok{}, errf(pos, "unterminated string literal")
			}
			ch := l.peek()
			if ch == '"' {
				l.advance()
				break
			}
			if ch == '\n' {
				return Tok{}, errf(pos, "newline in string literal")
			}
			if ch == '\\' {
				l.advance()
				e, err := l.escape(pos)
				if err != nil {
					return Tok{}, err
				}
				buf = append(buf, e)
				continue
			}
			buf = append(buf, l.advance())
		}
		return Tok{Kind: TokString, Str: buf, Pos: pos}, nil
	}

	// Punctuation, longest match first.
	rest := l.src[l.pos:]
	for _, p := range punctByFirst[c] {
		if strings.HasPrefix(rest, p) {
			for range p {
				l.advance()
			}
			return Tok{Kind: TokPunct, Text: p, Pos: pos}, nil
		}
	}
	if strings.IndexByte(punct1, c) >= 0 {
		l.advance()
		return Tok{Kind: TokPunct, Text: string(c), Pos: pos}, nil
	}
	return Tok{}, errf(pos, "unexpected character %q", c)
}

func (l *Lexer) escape(pos Pos) (byte, error) {
	if l.pos >= len(l.src) {
		return 0, errf(pos, "unterminated escape sequence")
	}
	c := l.advance()
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	default:
		return 0, errf(pos, "unknown escape sequence \\%c", c)
	}
}

// LexAll tokenizes the whole source (for tests and tools).
func LexAll(src string) ([]Tok, error) {
	l := NewLexer(src)
	var toks []Tok
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}
