package minilang

import (
	"fmt"
	"math"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

func kinds(toks []Token) []TokKind {
	out := make([]TokKind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestTokenizeOperators(t *testing.T) {
	toks, errs := Tokenize("t.mp", "+ - * / % == != < <= > >= && || ! = & ( ) { } [ ] , ;")
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	want := []TokKind{
		TokPlus, TokMinus, TokStar, TokSlash, TokPercent,
		TokEq, TokNe, TokLt, TokLe, TokGt, TokGe,
		TokAndAnd, TokOrOr, TokNot, TokAssign, TokAmp,
		TokLParen, TokRParen, TokLBrace, TokRBrace,
		TokLBracket, TokRBracket, TokComma, TokSemi, TokEOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(got), len(want), toks)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTokenizeKeywordsAndIdents(t *testing.T) {
	toks, errs := Tokenize("t.mp", "func var if else for while return break continue foo _bar x9")
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	want := []TokKind{TokFunc, TokVar, TokIf, TokElse, TokFor, TokWhile,
		TokReturn, TokBreak, TokContinue, TokIdent, TokIdent, TokIdent, TokEOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
	if toks[9].Text != "foo" || toks[10].Text != "_bar" || toks[11].Text != "x9" {
		t.Errorf("identifier texts wrong: %v %v %v", toks[9], toks[10], toks[11])
	}
}

func TestTokenizeNumbers(t *testing.T) {
	cases := map[string]float64{
		"0":       0,
		"42":      42,
		"3.5":     3.5,
		"1e6":     1e6,
		"2.5e-3":  2.5e-3,
		"1E+9":    1e9,
		"0.001":   0.001,
		"1234567": 1234567,
	}
	for src, want := range cases {
		toks, errs := Tokenize("t.mp", src)
		if len(errs) != 0 {
			t.Errorf("%q: errors %v", src, errs)
			continue
		}
		if toks[0].Kind != TokNumber || toks[0].Num != want {
			t.Errorf("%q = %v (%g), want %g", src, toks[0].Kind, toks[0].Num, want)
		}
	}
}

func TestTokenizeStrings(t *testing.T) {
	toks, errs := Tokenize("t.mp", `"hello" "a\nb" "q\"q" "t\\t"`)
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	want := []string{"hello", "a\nb", `q"q`, `t\t`}
	for i, w := range want {
		if toks[i].Kind != TokString || toks[i].Text != w {
			t.Errorf("string %d = %q, want %q", i, toks[i].Text, w)
		}
	}
}

func TestTokenizeComments(t *testing.T) {
	src := `
// line comment
x /* block
comment */ y // trailing
/* another */ z`
	toks, errs := Tokenize("t.mp", src)
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	var names []string
	for _, tok := range toks {
		if tok.Kind == TokIdent {
			names = append(names, tok.Text)
		}
	}
	if strings.Join(names, ",") != "x,y,z" {
		t.Errorf("idents = %v, want x,y,z", names)
	}
}

func TestTokenizePositions(t *testing.T) {
	src := "ab\n  cd"
	toks, _ := Tokenize("pos.mp", src)
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("ab at %v, want 1:1", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("cd at %v, want 2:3", toks[1].Pos)
	}
	if toks[0].Pos.File != "pos.mp" {
		t.Errorf("file = %q", toks[0].Pos.File)
	}
}

func TestTokenizeErrors(t *testing.T) {
	cases := []string{
		`"unterminated`,
		`"bad \q escape"`,
		`@`,
		`/* unterminated block`,
		`a | b`,
	}
	for _, src := range cases {
		_, errs := Tokenize("t.mp", src)
		if len(errs) == 0 {
			t.Errorf("%q: expected lexical error", src)
		}
	}
}

// TestUnexpectedCharactersCostNoStack: the lexer skips a run of
// unexpected characters in a loop. It recursed once a character, so a
// 16 MiB upload of them overflowed the goroutine stack, a fatal error no
// handler recovers from; here 100,000 of them fit a 256 KiB stack.
func TestUnexpectedCharactersCostNoStack(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(256 << 10))
	toks, errs := Tokenize("t.mp", strings.Repeat("@", 100000)+"x")
	if len(errs) != 100000 || len(toks) != 2 || toks[0].Text != "x" {
		t.Fatalf("%d errors and tokens %v, want 100000 errors and x, EOF", len(errs), toks)
	}
}

func TestTokenKindString(t *testing.T) {
	if TokEOF.String() != "EOF" || TokIdent.String() != "identifier" {
		t.Error("token kind names wrong")
	}
	if TokKind(999).String() == "" {
		t.Error("unknown token kind should render")
	}
}

// oracleLexer is the lexer as it was before it read the source in place:
// it converts the source to runes and builds every text in a
// strings.Builder. FuzzTokenize holds Tokenize to it.
type oracleLexer struct {
	file string
	src  []rune
	off  int
	line int
	col  int
	errs []error
}

func (lx *oracleLexer) pos() Pos { return Pos{File: lx.file, Line: lx.line, Col: lx.col} }

func (lx *oracleLexer) peek() rune {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *oracleLexer) peek2() rune {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *oracleLexer) advance() rune {
	r := lx.src[lx.off]
	lx.off++
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

func (lx *oracleLexer) errorf(p Pos, format string, args ...any) {
	lx.errs = append(lx.errs, fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...)))
}

func (lx *oracleLexer) skipSpaceAndComments() {
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

func (lx *oracleLexer) next() Token {
	lx.skipSpaceAndComments()
	p := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: p}
	}
	r := lx.peek()
	switch {
	case unicode.IsLetter(r) || r == '_':
		var sb strings.Builder
		for lx.off < len(lx.src) && (unicode.IsLetter(lx.peek()) || unicode.IsDigit(lx.peek()) || lx.peek() == '_') {
			sb.WriteRune(lx.advance())
		}
		text := sb.String()
		if k, ok := keywords[text]; ok {
			return Token{Kind: k, Text: text, Pos: p}
		}
		return Token{Kind: TokIdent, Text: text, Pos: p}
	case unicode.IsDigit(r):
		return lx.number(p)
	case r == '"':
		return lx.str(p)
	}
	lx.advance()
	two := func(next rune, k2, k1 TokKind) Token {
		if lx.peek() == next {
			lx.advance()
			return Token{Kind: k2, Pos: p}
		}
		return Token{Kind: k1, Pos: p}
	}
	single := map[rune]TokKind{
		'(': TokLParen, ')': TokRParen, '{': TokLBrace, '}': TokRBrace,
		'[': TokLBracket, ']': TokRBracket, ',': TokComma, ';': TokSemi,
		'+': TokPlus, '-': TokMinus, '*': TokStar, '/': TokSlash, '%': TokPercent,
	}
	if k, ok := single[r]; ok {
		return Token{Kind: k, Pos: p}
	}
	switch r {
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
		return lx.next()
	}
	lx.errorf(p, "unexpected character %q", r)
	return lx.next()
}

func (lx *oracleLexer) number(p Pos) Token {
	var sb strings.Builder
	seenDot, seenExp := false, false
	for lx.off < len(lx.src) {
		r := lx.peek()
		switch {
		case unicode.IsDigit(r):
			sb.WriteRune(lx.advance())
		case r == '.' && !seenDot && !seenExp:
			seenDot = true
			sb.WriteRune(lx.advance())
		case (r == 'e' || r == 'E') && !seenExp:
			seenExp = true
			sb.WriteRune(lx.advance())
			if lx.peek() == '+' || lx.peek() == '-' {
				sb.WriteRune(lx.advance())
			}
		default:
			goto done
		}
	}
done:
	text := sb.String()
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		lx.errorf(p, "bad number literal %q: %v", text, err)
	}
	return Token{Kind: TokNumber, Text: text, Num: v, Pos: p}
}

func (lx *oracleLexer) str(p Pos) Token {
	lx.advance() // opening quote
	var sb strings.Builder
	for lx.off < len(lx.src) {
		r := lx.advance()
		if r == '"' {
			return Token{Kind: TokString, Text: sb.String(), Pos: p}
		}
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
		sb.WriteRune(r)
	}
	lx.errorf(p, "unterminated string literal")
	return Token{Kind: TokString, Text: sb.String(), Pos: p}
}

// tokenizeOracle is Tokenize over the oracle lexer.
func tokenizeOracle(file, src string) ([]Token, []error) {
	lx := &oracleLexer{file: file, src: []rune(src), line: 1, col: 1}
	var toks []Token
	for {
		t := lx.next()
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, lx.errs
		}
	}
}

// FuzzTokenize holds Tokenize to the rune lexer it replaced: the same
// tokens (kind, text, the bits of Num, position) and the same errors,
// word for word, invalid UTF-8 in and out of string literals included.
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"func main() { var x = 1; x = x + 2 * 3; }",
		"var αβ = 1; var 变量 = αβ; var x٣ = 2; _日本 = ü;",
		"٣٤ + 5",
		`print("a\nb\t\"q\" \\ end");`,
		`"bad \q escape" "\`,
		"\"ok \xff\xfe inside\" x",
		"x \xff y \xc3 \xed\xa0\x80 z",
		"\xef\xbf\xbd \"\xef\xbf\xbd\"",
		"1e6 2.5e-3 1E+9 3.5 0.001 1e 1e+ 2.5.6 7e3.4 1.e5",
		"/* never closed",
		"\"never closed",
		"a // line\n/* block\n */ b | c || d & e && f",
		"@ # $ \x00 ~",
		"if (a <= b) { c = a[1]; } else { return !d != e >= f; }",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, gotErrs := Tokenize("f.mp", src)
		want, wantErrs := tokenizeOracle("f.mp", src)
		if len(got) != len(want) {
			t.Fatalf("%q: %d tokens, the oracle %d", src, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Kind != w.Kind || g.Text != w.Text || math.Float64bits(g.Num) != math.Float64bits(w.Num) || g.Pos != w.Pos {
				t.Fatalf("%q: token %d is %v %q %v at %v, the oracle's %v %q %v at %v",
					src, i, g.Kind, g.Text, g.Num, g.Pos, w.Kind, w.Text, w.Num, w.Pos)
			}
		}
		if len(gotErrs) != len(wantErrs) {
			t.Fatalf("%q: errors %v, the oracle's %v", src, gotErrs, wantErrs)
		}
		for i := range wantErrs {
			if gotErrs[i].Error() != wantErrs[i].Error() {
				t.Fatalf("%q: error %d %q, the oracle's %q", src, i, gotErrs[i], wantErrs[i])
			}
		}
	})
}
