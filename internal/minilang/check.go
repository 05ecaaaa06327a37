package minilang

import "fmt"

// Check performs semantic analysis on a parsed program: it resolves every
// call to a builtin, a declared function, or an indirect call through a
// variable; verifies arities; and checks that variables are declared before
// use. It mutates CallExpr nodes in place (Builtin/Indirect fields).
func Check(prog *Program) error {
	c := &checker{prog: prog}
	for _, fn := range prog.Funcs {
		c.checkFunc(fn)
	}
	if prog.Func("main") == nil {
		c.errorf(Pos{File: prog.File, Line: 1, Col: 1}, "program has no main function")
	}
	if main := prog.Func("main"); main != nil && len(main.Params) != 0 {
		c.errorf(main.Pos(), "main must take no parameters")
	}
	if len(c.errs) > 0 {
		return joinErrors(c.errs)
	}
	return nil
}

type checker struct {
	prog   *Program
	errs   []error
	scopes []map[string]bool
	loops  int
}

func (c *checker) errorf(pos Pos, format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (c *checker) push() { c.scopes = append(c.scopes, map[string]bool{}) }
func (c *checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(name string, pos Pos) {
	top := c.scopes[len(c.scopes)-1]
	if top[name] {
		c.errorf(pos, "variable %q redeclared in this scope", name)
	}
	top[name] = true
}

func (c *checker) declared(name string) bool {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if c.scopes[i][name] {
			return true
		}
	}
	return false
}

func (c *checker) checkFunc(fn *FuncDecl) {
	c.push()
	for _, p := range fn.Params {
		c.scopes[len(c.scopes)-1][p] = true
	}
	c.checkBlock(fn.Body)
	c.pop()
}

func (c *checker) checkBlock(b *Block) {
	c.push()
	for _, s := range b.Stmts {
		c.checkStmt(s)
	}
	c.pop()
}

func (c *checker) checkStmt(s Stmt) {
	switch st := s.(type) {
	case *VarDecl:
		c.checkExpr(st.Init)
		c.declare(st.Name, st.Pos())
	case *AssignStmt:
		if !c.declared(st.Name) {
			c.errorf(st.Pos(), "assignment to undeclared variable %q", st.Name)
		}
		if st.Idx != nil {
			c.checkExpr(st.Idx)
		}
		c.checkExpr(st.Val)
	case *IfStmt:
		c.checkExpr(st.Cond)
		c.checkBlock(st.Then)
		if st.Else != nil {
			c.checkBlock(st.Else)
		}
	case *ForStmt:
		c.push()
		if st.Init != nil {
			c.checkStmt(st.Init)
		}
		if st.Cond != nil {
			c.checkExpr(st.Cond)
		}
		if st.Post != nil {
			c.checkStmt(st.Post)
		}
		c.loops++
		c.checkBlock(st.Body)
		c.loops--
		c.pop()
	case *WhileStmt:
		c.checkExpr(st.Cond)
		c.loops++
		c.checkBlock(st.Body)
		c.loops--
	case *ReturnStmt:
		if st.Value != nil {
			c.checkExpr(st.Value)
		}
	case *BreakStmt:
		if c.loops == 0 {
			c.errorf(st.Pos(), "break outside loop")
		}
	case *ContinueStmt:
		if c.loops == 0 {
			c.errorf(st.Pos(), "continue outside loop")
		}
	case *ExprStmt:
		c.checkExpr(st.X)
	case *Block:
		c.checkBlock(st)
	default:
		c.errorf(s.Pos(), "internal: unknown statement %T", s)
	}
}

func (c *checker) checkExpr(e Expr) {
	switch ex := e.(type) {
	case *NumLit:
	case *StrLit:
	case *VarRef:
		if !c.declared(ex.Name) {
			c.errorf(ex.Pos(), "use of undeclared variable %q", ex.Name)
		}
	case *IndexExpr:
		if !c.declared(ex.Name) {
			c.errorf(ex.Pos(), "index of undeclared variable %q", ex.Name)
		}
		c.checkExpr(ex.Idx)
	case *FuncRefExpr:
		if c.prog.Func(ex.Name) == nil {
			c.errorf(ex.Pos(), "&%s: no such function", ex.Name)
		}
	case *UnaryExpr:
		c.checkExpr(ex.X)
	case *BinaryExpr:
		c.checkExpr(ex.L)
		c.checkExpr(ex.R)
	case *CallExpr:
		c.resolveCall(ex)
		for _, a := range ex.Args {
			c.checkExpr(a)
		}
	default:
		c.errorf(e.Pos(), "internal: unknown expression %T", e)
	}
}

func (c *checker) resolveCall(call *CallExpr) {
	if b, ok := Builtins[call.Name]; ok {
		call.Builtin = b
		if b.Arity >= 0 && len(call.Args) != b.Arity {
			c.errorf(call.Pos(), "%s expects %d arguments, got %d", b.Name, b.Arity, len(call.Args))
		}
		for _, a := range call.Args {
			if _, isStr := a.(*StrLit); isStr && b.Kind != BuiltinIO {
				c.errorf(a.Pos(), "string literal argument only allowed in print")
			}
		}
		return
	}
	if fn := c.prog.Func(call.Name); fn != nil {
		if len(call.Args) != len(fn.Params) {
			c.errorf(call.Pos(), "%s expects %d arguments, got %d", fn.Name, len(fn.Params), len(call.Args))
		}
		return
	}
	if c.declared(call.Name) {
		// Call through a variable holding a function reference: an indirect
		// call site. Static analysis cannot know the target (paper §III-B3):
		// the PSG carries every address-taken function under the site and
		// the runtime records which one fired.
		call.Indirect = true
		return
	}
	c.errorf(call.Pos(), "call of undefined function %q", call.Name)
}
