package minilang

import (
	"errors"
	"fmt"
	"strings"
)

// Parser builds an AST from tokens.
type Parser struct {
	toks []Token
	pos  int
	errs []error
	// more counts the lexical errors past errs, found but not formatted.
	more   int
	nextID NodeID
	file   string
	src    string
}

// Parse parses a MiniMP source file into a Program. It returns the program
// together with all lexical, syntactic, and semantic errors found.
func Parse(file, src string) (*Program, error) {
	// The lexer formats only the errors joinErrors can show.
	toks, lexErrs, more := tokenize(file, src, maxShown)
	p := &Parser{toks: toks, errs: lexErrs, more: more, file: file, src: src}
	prog := p.parseProgram()
	if len(p.errs) > 0 {
		return prog, joinErrors(p.errs, p.more)
	}
	if err := Check(prog); err != nil {
		return prog, err
	}
	return prog, nil
}

// MustParse parses src and panics on error. Intended for embedded app
// sources and tests, where the source is a compile-time constant.
func MustParse(file, src string) *Program {
	prog, err := Parse(file, src)
	if err != nil {
		panic(fmt.Sprintf("minilang.MustParse(%s): %v", file, err))
	}
	return prog
}

// maxShown is how many errors joinErrors shows.
const maxShown = 20

// joinErrors joins errs, and more errors found but not formatted, into
// one error showing the first maxShown.
func joinErrors(errs []error, more int) error {
	if len(errs) == 1 && more == 0 {
		return errs[0]
	}
	msgs := make([]string, 0, len(errs))
	for _, e := range errs {
		msgs = append(msgs, e.Error())
	}
	if n := len(msgs) + more; n > maxShown {
		msgs = append(msgs[:maxShown], fmt.Sprintf("... and %d more errors", n-maxShown))
	}
	return errors.New(strings.Join(msgs, "\n"))
}

func (p *Parser) id() NodeID {
	p.nextID++
	return p.nextID
}

func (p *Parser) cur() Token { return p.toks[p.pos] }
func (p *Parser) peek() Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) at(k TokKind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k TokKind) (Token, bool) {
	if p.at(k) {
		return p.next(), true
	}
	return Token{}, false
}

func (p *Parser) expect(k TokKind) Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf(p.cur().Pos, "expected %s, found %s", k, p.cur())
	return Token{Kind: k, Pos: p.cur().Pos}
}

func (p *Parser) errorf(pos Pos, format string, args ...any) {
	p.errs = append(p.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
	if len(p.errs)+p.more > 200 {
		panic(tooManyErrors{})
	}
}

type tooManyErrors struct{}

func (p *Parser) parseProgram() *Program {
	prog := &Program{File: p.file, Source: p.src, byName: map[string]*FuncDecl{}}
	defer func() {
		prog.nodes = int(p.nextID)
		if r := recover(); r != nil {
			if _, ok := r.(tooManyErrors); !ok {
				panic(r)
			}
		}
	}()
	for !p.at(TokEOF) {
		if !p.at(TokFunc) {
			p.errorf(p.cur().Pos, "expected func declaration, found %s", p.cur())
			p.next()
			continue
		}
		fn := p.parseFunc()
		if prev, ok := prog.byName[fn.Name]; ok {
			p.errorf(fn.Pos(), "function %q redeclared (previous at %s)", fn.Name, prev.Pos())
		}
		prog.Funcs = append(prog.Funcs, fn)
		prog.byName[fn.Name] = fn
	}
	return prog
}

func (p *Parser) parseFunc() *FuncDecl {
	kw := p.expect(TokFunc)
	name := p.expect(TokIdent)
	fn := &FuncDecl{base: base{pos: kw.Pos, id: p.id()}, Name: name.Text}
	p.expect(TokLParen)
	seen := map[string]bool{}
	for !p.at(TokRParen) && !p.at(TokEOF) {
		param := p.expect(TokIdent)
		if seen[param.Text] {
			p.errorf(param.Pos, "duplicate parameter %q", param.Text)
		}
		seen[param.Text] = true
		fn.Params = append(fn.Params, param.Text)
		if _, ok := p.accept(TokComma); !ok {
			break
		}
	}
	p.expect(TokRParen)
	fn.Body = p.parseBlock()
	return fn
}

func (p *Parser) parseBlock() *Block {
	lb := p.expect(TokLBrace)
	blk := &Block{base: base{pos: lb.Pos, id: p.id()}}
	for !p.at(TokRBrace) && !p.at(TokEOF) {
		blk.Stmts = append(blk.Stmts, p.parseStmt())
	}
	p.expect(TokRBrace)
	return blk
}

func (p *Parser) parseStmt() Stmt {
	switch p.cur().Kind {
	case TokVar:
		s := p.parseVarDecl()
		p.expect(TokSemi)
		return s
	case TokIf:
		return p.parseIf()
	case TokFor:
		return p.parseFor()
	case TokWhile:
		return p.parseWhile()
	case TokReturn:
		kw := p.next()
		s := &ReturnStmt{base: base{pos: kw.Pos, id: p.id()}}
		if !p.at(TokSemi) {
			s.Value = p.parseExpr()
		}
		p.expect(TokSemi)
		return s
	case TokBreak:
		kw := p.next()
		p.expect(TokSemi)
		return &BreakStmt{base: base{pos: kw.Pos, id: p.id()}}
	case TokContinue:
		kw := p.next()
		p.expect(TokSemi)
		return &ContinueStmt{base: base{pos: kw.Pos, id: p.id()}}
	case TokLBrace:
		return p.parseBlock()
	default:
		s := p.parseSimpleStmt()
		p.expect(TokSemi)
		return s
	}
}

func (p *Parser) parseVarDecl() *VarDecl {
	kw := p.expect(TokVar)
	name := p.expect(TokIdent)
	d := &VarDecl{base: base{pos: kw.Pos, id: p.id()}, Name: name.Text}
	p.expect(TokAssign)
	d.Init = p.parseExpr()
	return d
}

// parseSimpleStmt parses an assignment or expression statement (the forms
// allowed in for-loop init/post clauses).
func (p *Parser) parseSimpleStmt() Stmt {
	if p.at(TokIdent) {
		switch p.peek().Kind {
		case TokAssign:
			name := p.next()
			p.next() // =
			st := &AssignStmt{base: base{pos: name.Pos, id: p.id()}, Name: name.Text}
			st.Val = p.parseExpr()
			return st
		case TokLBracket:
			// Could be `a[i] = x` or an expression starting with an index.
			save := p.pos
			name := p.next()
			p.next() // [
			idx := p.parseExpr()
			p.expect(TokRBracket)
			if _, ok := p.accept(TokAssign); ok {
				st := &AssignStmt{base: base{pos: name.Pos, id: p.id()}, Name: name.Text, Idx: idx}
				st.Val = p.parseExpr()
				return st
			}
			p.pos = save
		}
	}
	e := p.parseExpr()
	return &ExprStmt{base: base{pos: e.Pos(), id: p.id()}, X: e}
}

func (p *Parser) parseIf() *IfStmt {
	kw := p.expect(TokIf)
	st := &IfStmt{base: base{pos: kw.Pos, id: p.id()}}
	p.expect(TokLParen)
	st.Cond = p.parseExpr()
	p.expect(TokRParen)
	st.Then = p.parseBlock()
	if _, ok := p.accept(TokElse); ok {
		if p.at(TokIf) {
			inner := p.parseIf()
			st.Else = &Block{base: base{pos: inner.Pos(), id: p.id()}, Stmts: []Stmt{inner}}
		} else {
			st.Else = p.parseBlock()
		}
	}
	return st
}

func (p *Parser) parseFor() *ForStmt {
	kw := p.expect(TokFor)
	st := &ForStmt{base: base{pos: kw.Pos, id: p.id()}}
	p.expect(TokLParen)
	if !p.at(TokSemi) {
		if p.at(TokVar) {
			st.Init = p.parseVarDecl()
		} else {
			st.Init = p.parseSimpleStmt()
		}
	}
	p.expect(TokSemi)
	if !p.at(TokSemi) {
		st.Cond = p.parseExpr()
	}
	p.expect(TokSemi)
	if !p.at(TokRParen) {
		st.Post = p.parseSimpleStmt()
	}
	p.expect(TokRParen)
	st.Body = p.parseBlock()
	return st
}

func (p *Parser) parseWhile() *WhileStmt {
	kw := p.expect(TokWhile)
	st := &WhileStmt{base: base{pos: kw.Pos, id: p.id()}}
	p.expect(TokLParen)
	st.Cond = p.parseExpr()
	p.expect(TokRParen)
	st.Body = p.parseBlock()
	return st
}

// Binary operator precedence, loosest first.
var binPrec = map[TokKind]int{
	TokOrOr:    1,
	TokAndAnd:  2,
	TokEq:      3,
	TokNe:      3,
	TokLt:      4,
	TokLe:      4,
	TokGt:      4,
	TokGe:      4,
	TokPlus:    5,
	TokMinus:   5,
	TokStar:    6,
	TokSlash:   6,
	TokPercent: 6,
}

func (p *Parser) parseExpr() Expr { return p.parseBinary(1) }

func (p *Parser) parseBinary(minPrec int) Expr {
	lhs := p.parseUnary()
	for {
		op := p.cur().Kind
		prec, ok := binPrec[op]
		if !ok || prec < minPrec {
			return lhs
		}
		opTok := p.next()
		rhs := p.parseBinary(prec + 1)
		lhs = &BinaryExpr{base: base{pos: opTok.Pos, id: p.id()}, Op: op, L: lhs, R: rhs}
	}
}

func (p *Parser) parseUnary() Expr {
	switch p.cur().Kind {
	case TokMinus, TokNot:
		opTok := p.next()
		x := p.parseUnary()
		return &UnaryExpr{base: base{pos: opTok.Pos, id: p.id()}, Op: opTok.Kind, X: x}
	case TokAmp:
		amp := p.next()
		name := p.expect(TokIdent)
		return &FuncRefExpr{base: base{pos: amp.Pos, id: p.id()}, Name: name.Text}
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() Expr {
	switch p.cur().Kind {
	case TokNumber:
		t := p.next()
		return &NumLit{base: base{pos: t.Pos, id: p.id()}, Value: t.Num}
	case TokString:
		t := p.next()
		return &StrLit{base: base{pos: t.Pos, id: p.id()}, Value: t.Text}
	case TokLParen:
		p.next()
		e := p.parseExpr()
		p.expect(TokRParen)
		return e
	case TokIdent:
		name := p.next()
		switch p.cur().Kind {
		case TokLParen:
			p.next()
			call := &CallExpr{base: base{pos: name.Pos, id: p.id()}, Name: name.Text}
			for !p.at(TokRParen) && !p.at(TokEOF) {
				call.Args = append(call.Args, p.parseExpr())
				if _, ok := p.accept(TokComma); !ok {
					break
				}
			}
			p.expect(TokRParen)
			return call
		case TokLBracket:
			p.next()
			idx := p.parseExpr()
			p.expect(TokRBracket)
			return &IndexExpr{base: base{pos: name.Pos, id: p.id()}, Name: name.Text, Idx: idx}
		}
		return &VarRef{base: base{pos: name.Pos, id: p.id()}, Name: name.Text}
	default:
		t := p.next()
		p.errorf(t.Pos, "expected expression, found %s", t)
		return &NumLit{base: base{pos: t.Pos, id: p.id()}}
	}
}
