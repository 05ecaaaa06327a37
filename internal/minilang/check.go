package minilang

import (
	"fmt"
	"slices"
)

// Check performs semantic analysis on a parsed program: it resolves every
// call to a builtin, a declared function, or an indirect call through a
// variable; verifies arities; and checks that variables are declared before
// use. It mutates CallExpr nodes in place (Builtin/Indirect fields) and
// records the address-taken functions in prog.AddressTaken.
func Check(prog *Program) error {
	c := &checker{prog: prog, inner: map[string]int{}}
	for _, fn := range prog.Funcs {
		c.checkFunc(fn)
	}
	slices.Sort(c.taken)
	prog.AddressTaken = slices.Compact(c.taken)
	if prog.Func("main") == nil {
		c.errorf(Pos{File: prog.File, Line: 1, Col: 1}, "program has no main function")
	}
	if main := prog.Func("main"); main != nil && len(main.Params) != 0 {
		c.errorf(main.Pos(), "main must take no parameters")
	}
	if len(c.errs) > 0 {
		return joinErrors(c.errs, 0)
	}
	return nil
}

// checker's scopes are marks on one binding stack: binds holds every
// variable declared in the open scopes, innermost last, and marks[i] is
// where scope i begins in it. inner maps a name to its innermost binding,
// each of which records the one it shadows, so declaring, looking up and
// closing a scope cost a map operation a binding, however wide the scope.
type checker struct {
	prog  *Program
	errs  []error
	binds []binding
	marks []int
	inner map[string]int
	loops int
	taken []string // every &name, in visit order
}

// binding is a declared variable; shadows is the index in checker.binds
// of the binding of the same name it hides, or -1.
type binding struct {
	name    string
	shadows int
}

func (c *checker) errorf(pos Pos, format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (c *checker) push() { c.marks = append(c.marks, len(c.binds)) }

func (c *checker) pop() {
	mark := c.marks[len(c.marks)-1]
	for i := len(c.binds) - 1; i >= mark; i-- {
		if b := c.binds[i]; b.shadows < 0 {
			delete(c.inner, b.name)
		} else {
			c.inner[b.name] = b.shadows
		}
	}
	c.binds = c.binds[:mark]
	c.marks = c.marks[:len(c.marks)-1]
}

// bind declares name in the innermost scope.
func (c *checker) bind(name string) {
	shadows, ok := c.inner[name]
	if !ok {
		shadows = -1
	}
	c.inner[name] = len(c.binds)
	c.binds = append(c.binds, binding{name, shadows})
}

func (c *checker) declare(name string, pos Pos) {
	if i, ok := c.inner[name]; ok && i >= c.marks[len(c.marks)-1] {
		c.errorf(pos, "variable %q redeclared in this scope", name)
	}
	c.bind(name)
}

func (c *checker) declared(name string) bool {
	_, ok := c.inner[name]
	return ok
}

func (c *checker) checkFunc(fn *FuncDecl) {
	c.push()
	for _, p := range fn.Params {
		c.bind(p)
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
		c.taken = append(c.taken, ex.Name)
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
