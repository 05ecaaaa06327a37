// Package ir lowers MiniMP functions to a control-flow graph of basic
// blocks and provides two classic analyses over it: dominators and
// natural loops. Its one shipped reader is the Table III overhead
// baseline (package exp); the VM's tests hold its bytecode to this
// lowering. The PSG builder does not use it: it walks the checked AST
// directly (package psg).
package ir

import (
	"fmt"

	"scalana/internal/minilang"
)

// Op is the kind of an IR instruction.
type Op int

// Instruction kinds. Plain expression evaluation and assignment lower to
// OpEval; call-like constructs each get their own instruction, in
// evaluation order.
const (
	OpEval Op = iota
	OpCall
	OpIndirectCall
	OpMPI
	OpCompute
	OpReturn
)

func (o Op) String() string {
	switch o {
	case OpEval:
		return "eval"
	case OpCall:
		return "call"
	case OpIndirectCall:
		return "icall"
	case OpMPI:
		return "mpi"
	case OpCompute:
		return "compute"
	case OpReturn:
		return "return"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Instr is one IR instruction.
type Instr struct {
	Op     Op
	Node   minilang.Node      // originating AST node
	Call   *minilang.CallExpr // non-nil for call-like ops
	Callee string             // for OpCall: target function name
}

// BlockKind annotates why a block was created; tests use it to relate
// CFG structure back to syntax.
type BlockKind int

// Block kinds.
const (
	BlockPlain BlockKind = iota
	BlockEntry
	BlockExit
	BlockLoopHead // the condition block of a for/while loop
	BlockLoopBody
	BlockLoopPost // the post-statement block of a for loop
	BlockThen
	BlockElse
	BlockMerge
)

// Block is a basic block.
type Block struct {
	ID     int
	Kind   BlockKind
	Instrs []Instr
	Succs  []*Block
	Preds  []*Block

	// LoopNode is the ForStmt/WhileStmt that created this BlockLoopHead.
	LoopNode minilang.Node
}

// Func is the CFG of one function. Blocks[0] is the entry; Exit is the
// unique exit block (reached by returns and fall-through).
type Func struct {
	Name   string
	Decl   *minilang.FuncDecl
	Blocks []*Block
	Exit   *Block
}

type lowerer struct {
	fn     *Func
	cur    *Block
	breaks []*Block // innermost-last break targets
	conts  []*Block // innermost-last continue targets
}

// Lower builds the CFG for a single function.
func Lower(decl *minilang.FuncDecl) *Func {
	fn := &Func{Name: decl.Name, Decl: decl}
	lw := &lowerer{fn: fn}
	entry := lw.newBlock(BlockEntry)
	fn.Exit = &Block{Kind: BlockExit}
	lw.cur = entry
	lw.lowerBlock(decl.Body)
	lw.link(lw.cur, fn.Exit)
	fn.Exit.ID = len(fn.Blocks)
	fn.Blocks = append(fn.Blocks, fn.Exit)
	return fn
}

// LowerProgram lowers every function in the program.
func LowerProgram(prog *minilang.Program) map[string]*Func {
	out := make(map[string]*Func, len(prog.Funcs))
	for _, fd := range prog.Funcs {
		out[fd.Name] = Lower(fd)
	}
	return out
}

func (lw *lowerer) newBlock(kind BlockKind) *Block {
	b := &Block{ID: len(lw.fn.Blocks), Kind: kind}
	lw.fn.Blocks = append(lw.fn.Blocks, b)
	return b
}

func (lw *lowerer) link(from, to *Block) {
	if from == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// emit appends an instruction to the current block (if reachable).
func (lw *lowerer) emit(in Instr) {
	if lw.cur != nil {
		lw.cur.Instrs = append(lw.cur.Instrs, in)
	}
}

func (lw *lowerer) lowerBlock(b *minilang.Block) {
	for _, s := range b.Stmts {
		lw.lowerStmt(s)
	}
}

func (lw *lowerer) lowerStmt(s minilang.Stmt) {
	switch st := s.(type) {
	case *minilang.VarDecl:
		lw.lowerExprCalls(st.Init)
		lw.emit(Instr{Op: OpEval, Node: st})
	case *minilang.AssignStmt:
		if st.Idx != nil {
			lw.lowerExprCalls(st.Idx)
		}
		lw.lowerExprCalls(st.Val)
		lw.emit(Instr{Op: OpEval, Node: st})
	case *minilang.ExprStmt:
		lw.lowerExprCalls(st.X)
	case *minilang.ReturnStmt:
		if st.Value != nil {
			lw.lowerExprCalls(st.Value)
		}
		lw.emit(Instr{Op: OpReturn, Node: st})
		lw.link(lw.cur, lw.fn.Exit)
		lw.cur = nil // code after return is unreachable
	case *minilang.BreakStmt:
		if n := len(lw.breaks); n > 0 {
			lw.link(lw.cur, lw.breaks[n-1])
		}
		lw.cur = nil
	case *minilang.ContinueStmt:
		if n := len(lw.conts); n > 0 {
			lw.link(lw.cur, lw.conts[n-1])
		}
		lw.cur = nil
	case *minilang.Block:
		lw.lowerBlock(st)
	case *minilang.IfStmt:
		lw.lowerIf(st)
	case *minilang.ForStmt:
		lw.lowerFor(st)
	case *minilang.WhileStmt:
		lw.lowerWhile(st)
	}
}

func (lw *lowerer) lowerIf(st *minilang.IfStmt) {
	lw.lowerExprCalls(st.Cond)
	lw.emit(Instr{Op: OpEval, Node: st}) // the branch decision itself
	condBlock := lw.cur

	thenB := lw.newBlock(BlockThen)
	merge := lw.newBlock(BlockMerge)
	lw.link(condBlock, thenB)
	lw.cur = thenB
	lw.lowerBlock(st.Then)
	lw.link(lw.cur, merge)

	if st.Else != nil {
		elseB := lw.newBlock(BlockElse)
		lw.link(condBlock, elseB)
		lw.cur = elseB
		lw.lowerBlock(st.Else)
		lw.link(lw.cur, merge)
	} else {
		lw.link(condBlock, merge)
	}
	lw.cur = merge
}

func (lw *lowerer) lowerFor(st *minilang.ForStmt) {
	if st.Init != nil {
		lw.lowerStmt(st.Init)
	}
	head := lw.newBlock(BlockLoopHead)
	head.LoopNode = st
	lw.link(lw.cur, head)
	lw.cur = head
	if st.Cond != nil {
		lw.lowerExprCalls(st.Cond)
	}
	lw.emit(Instr{Op: OpEval, Node: st})

	body := lw.newBlock(BlockLoopBody)
	post := lw.newBlock(BlockLoopPost)
	exit := lw.newBlock(BlockMerge)
	lw.link(head, body)
	lw.link(head, exit)

	lw.breaks = append(lw.breaks, exit)
	lw.conts = append(lw.conts, post)
	lw.cur = body
	lw.lowerBlock(st.Body)
	lw.link(lw.cur, post)
	lw.breaks = lw.breaks[:len(lw.breaks)-1]
	lw.conts = lw.conts[:len(lw.conts)-1]

	lw.cur = post
	if st.Post != nil {
		lw.lowerStmt(st.Post)
	}
	lw.link(lw.cur, head) // back edge
	lw.cur = exit
}

func (lw *lowerer) lowerWhile(st *minilang.WhileStmt) {
	head := lw.newBlock(BlockLoopHead)
	head.LoopNode = st
	lw.link(lw.cur, head)
	lw.cur = head
	lw.lowerExprCalls(st.Cond)
	lw.emit(Instr{Op: OpEval, Node: st})

	body := lw.newBlock(BlockLoopBody)
	exit := lw.newBlock(BlockMerge)
	lw.link(head, body)
	lw.link(head, exit)

	lw.breaks = append(lw.breaks, exit)
	lw.conts = append(lw.conts, head)
	lw.cur = body
	lw.lowerBlock(st.Body)
	lw.link(lw.cur, head) // back edge
	lw.breaks = lw.breaks[:len(lw.breaks)-1]
	lw.conts = lw.conts[:len(lw.conts)-1]
	lw.cur = exit
}

// lowerExprCalls walks an expression in evaluation order and emits one
// instruction per call-like subexpression. Short-circuit operators are
// treated as straight-line for instruction emission: the PSG's granularity
// is loops/branches/calls, so conditional evaluation inside a single
// expression does not change the graph shape.
func (lw *lowerer) lowerExprCalls(e minilang.Expr) {
	switch ex := e.(type) {
	case *minilang.NumLit, *minilang.StrLit, *minilang.VarRef, *minilang.FuncRefExpr:
	case *minilang.IndexExpr:
		lw.lowerExprCalls(ex.Idx)
	case *minilang.UnaryExpr:
		lw.lowerExprCalls(ex.X)
	case *minilang.BinaryExpr:
		lw.lowerExprCalls(ex.L)
		lw.lowerExprCalls(ex.R)
	case *minilang.CallExpr:
		for _, a := range ex.Args {
			lw.lowerExprCalls(a)
		}
		switch {
		case ex.Indirect:
			lw.emit(Instr{Op: OpIndirectCall, Node: ex, Call: ex})
		case ex.Builtin == nil:
			lw.emit(Instr{Op: OpCall, Node: ex, Call: ex, Callee: ex.Name})
		case ex.Builtin.Kind == minilang.BuiltinComm:
			lw.emit(Instr{Op: OpMPI, Node: ex, Call: ex})
		case ex.Builtin.Kind == minilang.BuiltinCompute:
			lw.emit(Instr{Op: OpCompute, Node: ex, Call: ex})
		default:
			// Query/math/alloc/IO builtins fold into surrounding evaluation.
		}
	}
}
