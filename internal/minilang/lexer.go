package minilang

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lexer turns MiniMP source text into tokens. It reads the source string
// in place: an identifier's or a number's text is a substring of it, and
// a string literal's is one too unless it holds an escape or a byte that
// is not valid UTF-8 (which reads as U+FFFD, as a rune conversion would).
// Columns count runes.
type Lexer struct {
	file string
	src  string
	off  int // byte offset of the next rune
	line int
	col  int
	errs []error
	// maxErrs, when positive, is how many errors the lexer formats; more
	// counts the rest.
	maxErrs, more int
}

// NewLexer returns a lexer over src, reporting positions in file.
func NewLexer(file, src string) *Lexer {
	return &Lexer{file: file, src: src, line: 1, col: 1}
}

func (lx *Lexer) pos() Pos { return Pos{File: lx.file, Line: lx.line, Col: lx.col} }

// at decodes the rune at byte offset off and its width; 0 past the end.
func (lx *Lexer) at(off int) (rune, int) {
	if off >= len(lx.src) {
		return 0, 0
	}
	if c := lx.src[off]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(lx.src[off:])
}

func (lx *Lexer) peek() rune {
	r, _ := lx.at(lx.off)
	return r
}

func (lx *Lexer) peek2() rune {
	_, w := lx.at(lx.off)
	if w == 0 {
		return 0
	}
	r, _ := lx.at(lx.off + w)
	return r
}

func (lx *Lexer) advance() rune {
	r, w := lx.at(lx.off)
	lx.off += w
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

// room reports whether the lexer may format one more error; when it may
// not, it counts the error among the rest. A caller whose error arguments
// cost an allocation asks it before building them.
func (lx *Lexer) room() bool {
	if lx.maxErrs > 0 && len(lx.errs) == lx.maxErrs {
		lx.more++
		return false
	}
	return true
}

func (lx *Lexer) errorf(p Pos, format string, args ...any) {
	if lx.room() {
		lx.errs = append(lx.errs, fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...)))
	}
}

func (lx *Lexer) skipSpaceAndComments() {
	for lx.off < len(lx.src) {
		r := lx.peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			lx.advance()
		case r == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case r == '/' && lx.peek2() == '*':
			p := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				lx.errorf(p, "unterminated block comment")
			}
		default:
			return
		}
	}
}

// Next returns the next token. An unexpected character is an error and
// is skipped, in a loop, so a long run of them costs no stack.
func (lx *Lexer) Next() Token {
	for {
		lx.skipSpaceAndComments()
		p := lx.pos()
		if lx.off >= len(lx.src) {
			return Token{Kind: TokEOF, Pos: p}
		}
		r := lx.peek()
		switch {
		case unicode.IsLetter(r) || r == '_':
			return lx.lexIdent(p)
		case unicode.IsDigit(r):
			return lx.lexNumber(p)
		case r == '"':
			return lx.lexString(p)
		}
		lx.advance()
		two := func(next rune, k2, k1 TokKind) Token {
			if lx.peek() == next {
				lx.advance()
				return Token{Kind: k2, Pos: p}
			}
			return Token{Kind: k1, Pos: p}
		}
		switch r {
		case '(':
			return Token{Kind: TokLParen, Pos: p}
		case ')':
			return Token{Kind: TokRParen, Pos: p}
		case '{':
			return Token{Kind: TokLBrace, Pos: p}
		case '}':
			return Token{Kind: TokRBrace, Pos: p}
		case '[':
			return Token{Kind: TokLBracket, Pos: p}
		case ']':
			return Token{Kind: TokRBracket, Pos: p}
		case ',':
			return Token{Kind: TokComma, Pos: p}
		case ';':
			return Token{Kind: TokSemi, Pos: p}
		case '+':
			return Token{Kind: TokPlus, Pos: p}
		case '-':
			return Token{Kind: TokMinus, Pos: p}
		case '*':
			return Token{Kind: TokStar, Pos: p}
		case '/':
			return Token{Kind: TokSlash, Pos: p}
		case '%':
			return Token{Kind: TokPercent, Pos: p}
		case '=':
			return two('=', TokEq, TokAssign)
		case '!':
			return two('=', TokNe, TokNot)
		case '<':
			return two('=', TokLe, TokLt)
		case '>':
			return two('=', TokGe, TokGt)
		case '&':
			return two('&', TokAndAnd, TokAmp)
		case '|':
			if lx.peek() == '|' {
				lx.advance()
				return Token{Kind: TokOrOr, Pos: p}
			}
			lx.errorf(p, "unexpected character %q (did you mean ||?)", r)
			continue
		}
		if lx.room() { // boxing a rune above U+00FF allocates
			lx.errorf(p, "unexpected character %q", r)
		}
	}
}

func (lx *Lexer) lexIdent(p Pos) Token {
	start := lx.off
	for lx.off < len(lx.src) {
		r := lx.peek()
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			lx.advance()
		} else {
			break
		}
	}
	// U+FFFD is no letter, so the text holds no invalid byte.
	text := lx.src[start:lx.off]
	if k, ok := keywords[text]; ok {
		return Token{Kind: k, Text: text, Pos: p}
	}
	return Token{Kind: TokIdent, Text: text, Pos: p}
}

func (lx *Lexer) lexNumber(p Pos) Token {
	start := lx.off
	seenDot, seenExp := false, false
	// ascii says every digit is ASCII and expDigit that the exponent has
	// one: without either, ParseFloat rejects the text whatever its value.
	ascii, expDigit := true, false
	for lx.off < len(lx.src) {
		r := lx.peek()
		switch {
		case unicode.IsDigit(r):
			ascii = ascii && r <= '9'
			expDigit = seenExp
			lx.advance()
		case r == '.' && !seenDot && !seenExp:
			seenDot = true
			lx.advance()
		case (r == 'e' || r == 'E') && !seenExp:
			seenExp = true
			lx.advance()
			if lx.peek() == '+' || lx.peek() == '-' {
				lx.advance()
			}
		default:
			goto done
		}
	}
done:
	text := lx.src[start:lx.off]
	if (!ascii || seenExp && !expDigit) && !lx.room() {
		return Token{Kind: TokNumber, Text: text, Pos: p}
	}
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		lx.errorf(p, "bad number literal %q: %v", text, err)
	}
	return Token{Kind: TokNumber, Text: text, Num: v, Pos: p}
}

// lexString reads a string literal. Its text is the source between the
// quotes until an escape or an invalid byte is met; from there it is
// built in a buffer that starts with what was read.
func (lx *Lexer) lexString(p Pos) Token {
	lx.advance() // opening quote
	start := lx.off
	var sb strings.Builder
	copying := false
	text := func() string {
		if copying {
			return sb.String()
		}
		return lx.src[start:lx.off]
	}
	for lx.off < len(lx.src) {
		at := lx.off
		r, w := lx.at(at)
		if r == '"' {
			s := text()
			lx.advance()
			return Token{Kind: TokString, Text: s, Pos: p}
		}
		if !copying && (r == '\\' || r == utf8.RuneError && w == 1) {
			copying = true
			sb.WriteString(lx.src[start:at])
		}
		lx.advance()
		if r == '\\' && lx.off < len(lx.src) {
			e := lx.advance()
			switch e {
			case 'n':
				sb.WriteRune('\n')
			case 't':
				sb.WriteRune('\t')
			case '"':
				sb.WriteRune('"')
			case '\\':
				sb.WriteRune('\\')
			default:
				lx.errorf(p, "unknown escape \\%c", e)
			}
			continue
		}
		if copying {
			sb.WriteRune(r)
		}
	}
	lx.errorf(p, "unterminated string literal")
	return Token{Kind: TokString, Text: text(), Pos: p}
}

// maxTokensSized caps the token slice Tokenize sizes from the source
// length, so a long source of comments or blanks costs no token memory it
// does not use; a longer program doubles the slice as it goes.
const maxTokensSized = 1 << 12

// Tokenize scans the whole input and returns all tokens up to and
// including EOF, plus any lexical errors. The token slice is sized up
// front: MiniMP source runs about three bytes a token, so half the source
// length (up to maxTokensSized) holds every bundled program's tokens.
func Tokenize(file, src string) ([]Token, []error) {
	toks, errs, _ := tokenize(file, src, 0)
	return toks, errs
}

// tokenize is Tokenize formatting at most maxErrs errors (every one when
// maxErrs is 0); it returns how many more it found.
func tokenize(file, src string, maxErrs int) ([]Token, []error, int) {
	lx := Lexer{file: file, src: src, line: 1, col: 1, maxErrs: maxErrs}
	toks := make([]Token, 0, min(len(src)/2, maxTokensSized)+1)
	for {
		t := lx.Next()
		if len(toks) == cap(toks) {
			// append would grow a slice this large by a quarter at a time,
			// allocating about five times the final slice in all; doubling
			// allocates about twice it.
			toks = append(make([]Token, 0, 2*cap(toks)), toks...)
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, lx.errs, lx.more
		}
	}
}
