package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder enforces the byte-identical-output invariant (DESIGN.md §9):
// Go map iteration order is deliberately randomized, so a `range` over a
// map may not feed anything order-sensitive. Flagged loop bodies are
// ones that reach an encoder/renderer/writer, accumulate into a float
// (FP addition is not associative — the sum depends on visit order), or
// append into a slice that outlives the loop.
//
// The sanctioned idiom is: collect the keys, sort them, then index the
// map while ranging over the sorted keys. Appending *keys* and sorting
// that slice afterwards is therefore allowed; appending records and
// sorting *those* is not — that is exactly the PR 6 commLess bug class,
// where a non-total record comparator silently preserved map order for
// tied elements and randomized the wire bytes.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flags range-over-map whose body is iteration-order sensitive " +
		"(reaches an encoder/renderer, accumulates floats, or appends records " +
		"into an escaping slice) — iterate over sorted keys instead",
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn := enclosingBody(n)
			if fn == nil {
				return true
			}
			checkMapRanges(pass, fn)
			return false
		})
	}
	return nil
}

// enclosingBody returns the body of a function declaration; FuncLits are
// handled recursively while walking the declaration.
func enclosingBody(n ast.Node) *ast.BlockStmt {
	if decl, ok := n.(*ast.FuncDecl); ok {
		return decl.Body
	}
	return nil
}

// checkMapRanges walks one function body. funcBody is the scope searched
// for post-loop sort calls; it narrows to the innermost FuncLit body.
func checkMapRanges(pass *Pass, funcBody *ast.BlockStmt) {
	if funcBody == nil {
		return
	}
	var walk func(n ast.Node, body *ast.BlockStmt)
	walk = func(n ast.Node, body *ast.BlockStmt) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				walk(m.Body, m.Body)
				return false
			case *ast.RangeStmt:
				if isMapType(pass.TypesInfo.TypeOf(m.X)) {
					checkOneMapRange(pass, m, body)
				}
				// Keep descending: nested map ranges inside this body are
				// checked against the same enclosing function body.
			}
			return true
		})
	}
	// Top-level call: walk statements, not the body node itself, to avoid
	// infinite recursion on the FuncLit case.
	for _, st := range funcBody.List {
		walk(st, funcBody)
	}
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkOneMapRange inspects a single range-over-map statement.
func checkOneMapRange(pass *Pass, rng *ast.RangeStmt, funcBody *ast.BlockStmt) {
	keyObj := rangeVarObject(pass, rng.Key)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := orderSensitiveSink(pass, n); ok {
				pass.Reportf(n.Pos(), "map iteration order reaches %s; iterate over sorted keys instead", name)
			}
			if sliceVar, keyOnly := appendToOuter(pass, n, rng, keyObj); sliceVar != nil {
				if !keyOnly {
					pass.Reportf(n.Pos(), "append to %s inside a map range captures map iteration order; "+
						"collect the keys, sort them, then index the map — sorting the appended records afterwards "+
						"is the commLess bug class (a non-total comparator silently preserves map order)", sliceVar.Name())
				} else if !sortedAfter(pass, funcBody, rng, sliceVar) {
					pass.Reportf(n.Pos(), "map keys appended to %s are never sorted before use", sliceVar.Name())
				}
			}
		case *ast.AssignStmt:
			checkFloatAccum(pass, n, rng)
		}
		return true
	})
}

// rangeVarObject resolves the key variable of `for k := range m`.
func rangeVarObject(pass *Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// sinkPrefixes match callee names that serialize, render, or write —
// order-sensitive because their output is a sequence of bytes.
var sinkPrefixes = []string{"encode", "marshal", "render", "write", "print", "fprint", "sprint", "append"}

// orderSensitiveSink classifies a call as an encoder/renderer/writer.
func orderSensitiveSink(pass *Pass, call *ast.CallExpr) (string, bool) {
	var name string
	var pkgPath string
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		if obj, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok && obj.Pkg() != nil {
			pkgPath = obj.Pkg().Path()
		}
	case *ast.Ident:
		name = fun.Name
		if obj, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok && obj.Pkg() != nil {
			pkgPath = obj.Pkg().Path()
		} else {
			return "", false // builtins (append, delete, ...) are not sinks
		}
	default:
		return "", false
	}
	if strings.HasPrefix(pkgPath, "encoding/") || pkgPath == "fmt" {
		return pkgPath + "." + name, true
	}
	lower := strings.ToLower(name)
	for _, p := range sinkPrefixes {
		if p == "append" {
			continue // handled separately with escape analysis
		}
		if strings.HasPrefix(lower, p) {
			return name, true
		}
	}
	return "", false
}

// appendToOuter recognizes `s = append(s, x)` where s is declared
// outside the range statement. keyOnly reports whether every appended
// value is the range key itself (possibly via a conversion).
func appendToOuter(pass *Pass, call *ast.CallExpr, rng *ast.RangeStmt, keyObj types.Object) (sliceVar *types.Var, keyOnly bool) {
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "append" {
		return nil, false
	}
	if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); !isBuiltin {
		return nil, false // shadowed: not the builtin
	}
	if len(call.Args) < 2 {
		return nil, false
	}
	base := rootIdent(call.Args[0])
	if base == nil {
		return nil, false
	}
	obj, ok := pass.TypesInfo.Uses[base].(*types.Var)
	if !ok || declaredWithin(obj, rng) {
		return nil, false
	}
	keyOnly = keyObj != nil
	for _, arg := range call.Args[1:] {
		if !isKeyExpr(pass, arg, keyObj) {
			keyOnly = false
		}
	}
	return obj, keyOnly
}

// isKeyExpr reports whether e is the range key variable, optionally
// wrapped in a type conversion.
func isKeyExpr(pass *Pass, e ast.Expr, keyObj types.Object) bool {
	if keyObj == nil {
		return false
	}
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return pass.TypesInfo.Uses[x] == keyObj
		case *ast.CallExpr:
			// A conversion like string(k).
			if len(x.Args) == 1 && pass.TypesInfo.Types[x.Fun].IsType() {
				e = x.Args[0]
				continue
			}
			return false
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// sortedAfter reports whether funcBody contains, after the range loop, a
// sort.* or slices.* call that mentions sliceVar.
func sortedAfter(pass *Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt, sliceVar *types.Var) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgName, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.TypesInfo.Uses[pkgName].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			mentions := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == sliceVar {
					mentions = true
				}
				return !mentions
			})
			if mentions {
				found = true
				break
			}
		}
		return !found
	})
	return found
}

// checkFloatAccum flags `x += v`, `x -= v`, `x *= v`, `x /= v`, and
// `x = x + v` where x is a float declared outside the loop.
func checkFloatAccum(pass *Pass, as *ast.AssignStmt, rng *ast.RangeStmt) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	case token.ASSIGN:
		// x = x + v (or x - v): the LHS must reappear as an operand.
		if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		bin, ok := as.Rhs[0].(*ast.BinaryExpr)
		if !ok || (bin.Op != token.ADD && bin.Op != token.SUB) {
			return
		}
		lhsID, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return
		}
		opID, ok := bin.X.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[opID] != pass.TypesInfo.Uses[lhsID] {
			return
		}
	default:
		return
	}
	for _, lhs := range as.Lhs {
		t := pass.TypesInfo.TypeOf(lhs)
		basic, ok := t.(*types.Basic)
		if !ok || basic.Info()&types.IsFloat == 0 {
			continue
		}
		root := rootIdent(lhs)
		if root == nil {
			continue
		}
		obj := pass.TypesInfo.Uses[root]
		if obj == nil || declaredWithin(obj, rng) {
			continue
		}
		pass.Reportf(as.Pos(), "float accumulation into %s inside a map range is iteration-order dependent "+
			"(FP addition is not associative); accumulate over sorted keys", obj.Name())
	}
}

// rootIdent returns the base identifier of x, x.f, x[i], etc.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
