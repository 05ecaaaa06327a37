package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath checks functions annotated with a `//scalana:hot` doc-comment
// line against the steady-state zero-allocation contract the AllocsPerRun
// gates assert dynamically (sampler Advance, scheduler heap, VM dispatch,
// mpisim emit). The pass is syntactic and per-function: it flags the
// allocation-prone constructs that have historically crept into these
// paths —
//
//   - calls into package fmt (every call allocates for its variadic box);
//   - string concatenation (+ / +=) — builds a new backing array;
//   - map and slice composite literals (struct and array literals are
//     stack-friendly and stay legal);
//   - closures that capture variables (the captured environment and
//     often the variable itself move to the heap);
//   - boxing a non-pointer-shaped value into an interface, whether by
//     explicit conversion, assignment, or argument passing.
//
// Failure paths are exempt: any expression that is (transitively) an
// argument of panic(...) is skipped, since a once-per-process crash
// message is not a steady-state allocation. Outline the panic into a
// //go:noinline helper instead when the hot function must stay within
// the inlining budget (see vm.chkNaN).
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: "checks //scalana:hot annotated functions for allocation-prone constructs: " +
		"fmt calls, string concatenation, map/slice literals, capturing closures, " +
		"and interface boxing of non-pointer values",
	Run: runHotPath,
}

func runHotPath(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !IsHot(fd) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.CallExpr:
				if isPanicCall(pass, m) {
					return false // failure path: arguments feed a crash message
				}
				checkHotCall(pass, m, name)
			case *ast.BinaryExpr:
				if m.Op == token.ADD && isStringType(pass.TypesInfo.TypeOf(m)) {
					pass.Reportf(m.Pos(), "string concatenation in hot path %s allocates; "+
						"precompute the string or write into a reused buffer", name)
				}
			case *ast.AssignStmt:
				checkHotAssign(pass, m, name)
			case *ast.CompositeLit:
				switch pass.TypesInfo.TypeOf(m).Underlying().(type) {
				case *types.Map:
					pass.Reportf(m.Pos(), "map literal in hot path %s allocates; hoist it to a package "+
						"variable or reuse per-instance state", name)
				case *types.Slice:
					pass.Reportf(m.Pos(), "slice literal in hot path %s allocates; hoist it to a package "+
						"variable or reuse per-instance state", name)
				}
			case *ast.FuncLit:
				if captured := capturedVar(pass, m); captured != nil {
					pass.Reportf(m.Pos(), "closure in hot path %s captures %s, forcing a heap allocation "+
						"for the environment; pass state explicitly or hoist the function", name, captured.Name())
				}
				walk(m.Body)
				return false
			}
			return true
		})
	}
	walk(fd.Body)
}

func isPanicCall(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

func isStringType(t types.Type) bool {
	basic, ok := t.(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// checkHotCall flags fmt.* calls and interface boxing of arguments.
func checkHotCall(pass *Pass, call *ast.CallExpr, name string) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok &&
			fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "fmt.%s in hot path %s allocates (variadic boxing plus formatting "+
				"buffers); outline it behind a //go:noinline helper or precompute", fn.Name(), name)
			return // don't double-report its args as interface boxing
		}
	}
	// Explicit conversion to an interface type.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if boxes(pass.TypesInfo.TypeOf(call.Fun), pass.TypesInfo.TypeOf(call.Args[0])) {
			pass.Reportf(call.Pos(), "conversion to interface in hot path %s boxes a non-pointer value "+
				"on the heap", name)
		}
		return
	}
	// Implicit boxing at call boundaries: concrete non-pointer argument
	// passed to an interface-typed parameter.
	sig, ok := pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if call.Ellipsis != token.NoPos {
				continue // s... passes the slice through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		if boxes(pt, pass.TypesInfo.TypeOf(arg)) {
			pass.Reportf(arg.Pos(), "argument boxes a non-pointer value into interface parameter in hot "+
				"path %s; use a concrete parameter type or pass a pointer", name)
		}
	}
}

// checkHotAssign flags string += and interface boxing through assignment.
func checkHotAssign(pass *Pass, as *ast.AssignStmt, name string) {
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 && isStringType(pass.TypesInfo.TypeOf(as.Lhs[0])) {
		pass.Reportf(as.Pos(), "string concatenation in hot path %s allocates; "+
			"precompute the string or write into a reused buffer", name)
		return
	}
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		if boxes(pass.TypesInfo.TypeOf(as.Lhs[i]), pass.TypesInfo.TypeOf(as.Rhs[i])) {
			pass.Reportf(as.Rhs[i].Pos(), "assignment boxes a non-pointer value into an interface in hot "+
				"path %s; store a pointer or a concrete type", name)
		}
	}
}

// boxes reports whether assigning a value of type from to a location of
// type to heap-boxes it: to is an interface, from is concrete, and from
// is not pointer-shaped (pointers, channels, maps, funcs, and unsafe
// pointers fit in the interface word without allocating).
func boxes(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	if _, ok := to.Underlying().(*types.Interface); !ok {
		return false
	}
	if _, ok := from.Underlying().(*types.Interface); ok {
		return false // interface-to-interface copies the word pair
	}
	switch u := from.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil {
			return false
		}
	}
	return true
}

// capturedVar returns a variable the closure captures from an enclosing
// scope (package-level state is not a capture), or nil.
func capturedVar(pass *Pass, lit *ast.FuncLit) *types.Var {
	var captured *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil || v.Parent() == pass.Pkg.Scope() || v.Parent() == types.Universe {
			return true
		}
		if declaredWithin(v, lit) {
			return true
		}
		captured = v
		return false
	})
	return captured
}
