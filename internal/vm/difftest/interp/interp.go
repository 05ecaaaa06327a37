package interp

import (
	"fmt"
	"io"
	"math"

	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/psg"
	"scalana/internal/vm"
)

// Runner executes one MiniMP program against a PSG.
type Runner struct {
	Prog  *minilang.Program
	Graph *psg.Graph
	// GlueIns is the abstract instruction count charged per interpreted
	// statement, modelling scalar bookkeeping code between the bulk
	// compute/MPI operations. Zero disables glue accounting.
	GlueIns float64
	// Stdout receives print() output; nil discards it.
	Stdout io.Writer
	// OnIndirect observes runtime indirect-call resolution.
	OnIndirect vm.IndirectObserver
}

// NewRunner builds a Runner with defaults.
func NewRunner(prog *minilang.Program, graph *psg.Graph) *Runner {
	return &Runner{Prog: prog, Graph: graph, GlueIns: 24}
}

// Execute runs the program's main function on rank p. It is the body
// passed to mpisim.World.RunBlocking: the tree-walker recurses on the Go
// stack, so it needs the adapter's goroutine to park on.
func (r *Runner) Execute(p *mpisim.Proc) {
	ex := &exec{r: r, p: p}
	main := r.Prog.Func("main")
	ex.callFunction(r.Graph.Main, main, nil)
}

type frame struct {
	inst   *psg.Instance
	fn     *minilang.FuncDecl
	scopes []map[string]Value
	ret    Value
}

type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

type exec struct {
	r      *Runner
	p      *mpisim.Proc
	frames []*frame
	// steps counts the loop iterations completed and the calls made,
	// against the VM's budget.
	steps int
	// elems counts the array elements allocated, plus one an array,
	// against the VM's budget.
	elems float64
}

// spend takes one step — the end of a loop iteration or a call, at pos —
// from the rank's budget, with the VM's message.
func (ex *exec) spend(pos minilang.Pos) {
	if ex.steps++; ex.steps > vm.MaxSteps {
		panic(fmt.Sprintf("%s: rank exceeds the step budget of %d backward jumps and calls", pos, vm.MaxSteps))
	}
}

func (ex *exec) top() *frame { return ex.frames[len(ex.frames)-1] }

// setCtx points the simulated process at the vertex attributing node.
func (ex *exec) setCtx(node minilang.Node) {
	if v := ex.top().inst.VertexOf(node.ID()); v != nil {
		ex.p.Ctx = v
	}
}

func (ex *exec) callFunction(inst *psg.Instance, fn *minilang.FuncDecl, args []Value) Value {
	if len(args) != len(fn.Params) {
		panic(fmt.Sprintf("interp: %s expects %d args, got %d", fn.Name, len(fn.Params), len(args)))
	}
	f := &frame{inst: inst, fn: fn, scopes: []map[string]Value{{}}}
	for i, name := range fn.Params {
		f.scopes[0][name] = args[i]
	}
	ex.frames = append(ex.frames, f)
	ex.execBlock(fn.Body)
	ret := f.ret
	ex.frames = ex.frames[:len(ex.frames)-1]
	return ret
}

// pushScope opens a scope on the running function's frame and returns the
// frame: the matching popScope is deferred on it, not on whatever frame is
// on top then — while a panic unwinds, the callees' frames still are, and
// popping theirs would bury the rank's error under an index panic.
func (ex *exec) pushScope() *frame {
	f := ex.top()
	f.scopes = append(f.scopes, map[string]Value{})
	return f
}

func (f *frame) popScope() { f.scopes = f.scopes[:len(f.scopes)-1] }

func (ex *exec) lookup(name string, pos minilang.Pos) Value {
	f := ex.top()
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if v, ok := f.scopes[i][name]; ok {
			return v
		}
	}
	panic(fmt.Sprintf("%s: undefined variable %q", pos, name))
}

func (ex *exec) assign(name string, v Value, pos minilang.Pos) {
	f := ex.top()
	for i := len(f.scopes) - 1; i >= 0; i-- {
		if _, ok := f.scopes[i][name]; ok {
			f.scopes[i][name] = v
			return
		}
	}
	panic(fmt.Sprintf("%s: assignment to undefined variable %q", pos, name))
}

func (ex *exec) declare(name string, v Value) {
	f := ex.top()
	f.scopes[len(f.scopes)-1][name] = v
}

func (ex *exec) glue() {
	if ex.r.GlueIns > 0 {
		ex.p.Glue(ex.r.GlueIns)
	}
}

func (ex *exec) execBlock(b *minilang.Block) ctrl {
	defer ex.pushScope().popScope()
	for _, s := range b.Stmts {
		if c := ex.execStmt(s); c != ctrlNone {
			return c
		}
	}
	return ctrlNone
}

func (ex *exec) execStmt(s minilang.Stmt) ctrl {
	ex.setCtx(s)
	switch st := s.(type) {
	case *minilang.VarDecl:
		ex.glue()
		ex.declare(st.Name, ex.eval(st.Init))
	case *minilang.AssignStmt:
		ex.glue()
		if st.Idx != nil {
			arr := ex.lookup(st.Name, st.Pos())
			if arr.Arr == nil {
				panic(fmt.Sprintf("%s: %q is not an array", st.Pos(), st.Name))
			}
			idx := int(num(ex.eval(st.Idx), st.Pos(), "index"))
			if idx < 0 || idx >= len(arr.Arr) {
				panic(fmt.Sprintf("%s: index %d out of range [0,%d)", st.Pos(), idx, len(arr.Arr)))
			}
			arr.Arr[idx] = num(ex.eval(st.Val), st.Pos(), "array element")
			return ctrlNone
		}
		ex.assign(st.Name, ex.eval(st.Val), st.Pos())
	case *minilang.ExprStmt:
		ex.glue()
		ex.eval(st.X)
	case *minilang.ReturnStmt:
		if st.Value != nil {
			ex.top().ret = ex.eval(st.Value)
		}
		return ctrlReturn
	case *minilang.BreakStmt:
		return ctrlBreak
	case *minilang.ContinueStmt:
		return ctrlContinue
	case *minilang.Block:
		return ex.execBlock(st)
	case *minilang.IfStmt:
		ex.glue()
		cond := truthy(ex.eval(st.Cond), st.Pos())
		ex.setCtx(st)
		if cond {
			return ex.execBlock(st.Then)
		} else if st.Else != nil {
			return ex.execBlock(st.Else)
		}
	case *minilang.ForStmt:
		defer ex.pushScope().popScope()
		if st.Init != nil {
			if c := ex.execStmt(st.Init); c != ctrlNone {
				return c
			}
		}
		for {
			ex.setCtx(st)
			ex.glue()
			if st.Cond != nil && !truthy(ex.eval(st.Cond), st.Pos()) {
				break
			}
			c := ex.execBlock(st.Body)
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return c
			}
			if st.Post != nil {
				ex.setCtx(st.Post)
				if c := ex.execStmt(st.Post); c != ctrlNone {
					return c
				}
			}
			ex.spend(st.Pos())
		}
	case *minilang.WhileStmt:
		for {
			ex.setCtx(st)
			ex.glue()
			if !truthy(ex.eval(st.Cond), st.Pos()) {
				break
			}
			c := ex.execBlock(st.Body)
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return c
			}
			ex.spend(st.Pos())
		}
	default:
		panic(fmt.Sprintf("interp: unknown statement %T", s))
	}
	return ctrlNone
}

func (ex *exec) eval(e minilang.Expr) Value {
	switch x := e.(type) {
	case *minilang.NumLit:
		return Value{Num: x.Value}
	case *minilang.StrLit:
		panic(fmt.Sprintf("%s: string literal outside print", x.Pos()))
	case *minilang.VarRef:
		return ex.lookup(x.Name, x.Pos())
	case *minilang.FuncRefExpr:
		return Value{Fn: x.Name}
	case *minilang.IndexExpr:
		arr := ex.lookup(x.Name, x.Pos())
		if arr.Arr == nil {
			panic(fmt.Sprintf("%s: %q is not an array", x.Pos(), x.Name))
		}
		idx := int(num(ex.eval(x.Idx), x.Pos(), "index"))
		if idx < 0 || idx >= len(arr.Arr) {
			panic(fmt.Sprintf("%s: index %d out of range [0,%d)", x.Pos(), idx, len(arr.Arr)))
		}
		return Value{Num: arr.Arr[idx]}
	case *minilang.UnaryExpr:
		v := num(ex.eval(x.X), x.Pos(), "operand")
		if x.Op == minilang.TokMinus {
			return Value{Num: -v}
		}
		return boolVal(v == 0)
	case *minilang.BinaryExpr:
		return ex.evalBinary(x)
	case *minilang.CallExpr:
		return ex.evalCall(x)
	}
	panic(fmt.Sprintf("interp: unknown expression %T", e))
}

func (ex *exec) evalBinary(x *minilang.BinaryExpr) Value {
	// Short-circuit logical operators.
	switch x.Op {
	case minilang.TokAndAnd:
		if !truthy(ex.eval(x.L), x.Pos()) {
			return Value{}
		}
		return boolVal(truthy(ex.eval(x.R), x.Pos()))
	case minilang.TokOrOr:
		if truthy(ex.eval(x.L), x.Pos()) {
			return Value{Num: 1}
		}
		return boolVal(truthy(ex.eval(x.R), x.Pos()))
	}
	l := num(ex.eval(x.L), x.Pos(), "left operand")
	r := num(ex.eval(x.R), x.Pos(), "right operand")
	switch x.Op {
	case minilang.TokPlus:
		return Value{Num: l + r}
	case minilang.TokMinus:
		return Value{Num: l - r}
	case minilang.TokStar:
		return Value{Num: l * r}
	case minilang.TokSlash:
		if r == 0 {
			panic(fmt.Sprintf("%s: division by zero", x.Pos()))
		}
		return Value{Num: l / r}
	case minilang.TokPercent:
		if r == 0 {
			panic(fmt.Sprintf("%s: modulo by zero", x.Pos()))
		}
		return Value{Num: math.Mod(l, r)}
	case minilang.TokEq:
		return boolVal(l == r)
	case minilang.TokNe:
		return boolVal(l != r)
	case minilang.TokLt:
		return boolVal(l < r)
	case minilang.TokLe:
		return boolVal(l <= r)
	case minilang.TokGt:
		return boolVal(l > r)
	case minilang.TokGe:
		return boolVal(l >= r)
	}
	panic(fmt.Sprintf("interp: unknown binary operator %v", x.Op))
}
