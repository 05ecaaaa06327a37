package vm

import (
	"fmt"

	"scalana/internal/minilang"
	"scalana/internal/mpisim"
)

// The bytecode compiler lowers one function's AST to a flat register
// machine. Registers are frame slots: parameters and locals get stable
// slots assigned by lexical scope (sound because the checker guarantees
// declare-before-use and per-scope uniqueness), and expression
// temporaries are allocated above the live locals and released at every
// statement boundary.
//
// The compiler's contract is behavioral identity with the reference
// tree-walker (internal/vm/difftest/interp): it moves the attribution
// context wherever an advance can see the tree-walker's move and charges
// glue at exactly the points the tree-walker does (opStmt, and the
// context sites opCompute and opMPI carry),
// keeps the interpreter's left-to-right evaluation and conversion order
// (opChkNum lets a binary operator convert its left operand before a
// right operand with an effect runs), and reproduces the interpreter's
// panic messages byte for byte. See DESIGN.md §2 for the full
// determinism contract.

// binding is a variable's slot; shadows is the index in compiler.binds of
// the binding of the same name it hides, or -1. A scope is a mark on one
// stack of them: where its bindings begin, and the locals watermark to
// restore on exit.
type binding struct {
	name    string
	slot    int32
	shadows int32
}

type scope struct {
	base  int
	floor int32
}

type loopPatch struct {
	breaks    []int32 // instruction indices whose target is the loop exit
	continues []int32 // instruction indices whose target is the continue point
}

// compiler lowers the functions of one program, one at a time: its
// binding stack, name map, loop stack and interning maps are emptied, not
// remade, between functions.
type compiler struct {
	code   *Code
	fns    []string
	binds  []binding
	scopes []scope
	// inner maps a name to its innermost binding, so a lookup is one map
	// read however many bindings are open.
	inner map[string]int32
	floor int32 // next local slot
	reg   int32 // next temporary slot (>= floor)
	// loops holds the open loops' patch lists, innermost last; a closed
	// loop's lists stay past the end, to be reused.
	loops []loopPatch

	posIdx   map[minilang.Pos]int32
	ctxIdx   map[minilang.NodeID]int32
	constIdx map[uint64]int32 // by the constant's bits
	nameIdx  map[string]int32
}

// newCompiler returns a compiler for a program whose function-name table,
// which &name constants index, is fns.
func newCompiler(fns []string) *compiler {
	return &compiler{
		fns:      fns,
		inner:    map[string]int32{},
		posIdx:   map[minilang.Pos]int32{},
		ctxIdx:   map[minilang.NodeID]int32{},
		constIdx: map[uint64]int32{},
		nameIdx:  map[string]int32{},
	}
}

// compileFunc lowers one function declaration of nodes AST nodes to
// bytecode. Its tables are sized from that count: across the bundled
// apps and the committed corpus a function compiles to at most 0.9
// instructions a node and at most half a position, a site and a constant
// a node.
func (c *compiler) compileFunc(fn *minilang.FuncDecl, nodes int) (*Code, error) {
	c.code = &Code{
		fn:       fn,
		fns:      c.fns,
		instrs:   make([]instr, 0, nodes+1),
		poss:     make([]minilang.Pos, 0, nodes/2+1),
		ctxNodes: make([]minilang.NodeID, 0, nodes/2+1),
		consts:   make([]Value, 0, nodes/2+1),
	}
	c.binds, c.scopes, c.loops = c.binds[:0], c.scopes[:0], c.loops[:0]
	c.floor, c.reg = 0, 0
	clear(c.inner)
	clear(c.posIdx)
	clear(c.ctxIdx)
	clear(c.constIdx)
	clear(c.nameIdx)
	c.pushScope()
	for _, p := range fn.Params {
		c.bind(p, c.declareSlot())
	}
	c.code.litBase = c.floor
	c.stmtLits(fn.Body)
	c.code.lits = c.code.consts[:len(c.code.consts):len(c.code.consts)]
	if err := c.block(fn.Body); err != nil {
		return nil, err
	}
	c.popScope()
	c.emit(instr{op: opRet, a: -1})
	return c.code, nil
}

func (c *compiler) emit(in instr) int32 {
	c.code.instrs = append(c.code.instrs, in)
	return int32(len(c.code.instrs) - 1)
}

func (c *compiler) pos(p minilang.Pos) int32 {
	if i, ok := c.posIdx[p]; ok {
		return i
	}
	i := int32(len(c.code.poss))
	c.code.poss = append(c.code.poss, p)
	c.posIdx[p] = i
	return i
}

// ctx interns an attribution site, deduplicated by node ID.
func (c *compiler) ctx(n minilang.Node) int32 {
	id := n.ID()
	if i, ok := c.ctxIdx[id]; ok {
		return i
	}
	i := int32(len(c.code.ctxNodes))
	c.code.ctxNodes = append(c.code.ctxNodes, id)
	c.ctxIdx[id] = i
	return i
}

func (c *compiler) name(s string) int32 {
	if i, ok := c.nameIdx[s]; ok {
		return i
	}
	i := int32(len(c.code.names))
	c.code.names = append(c.code.names, s)
	c.nameIdx[s] = i
	return i
}

// constant interns v and reports whether it was new.
func (c *compiler) constant(v Value) (int32, bool) {
	if i, ok := c.constIdx[v.bits()]; ok {
		return i, false
	}
	i := int32(len(c.code.consts))
	c.code.consts = append(c.code.consts, v)
	c.constIdx[v.bits()] = i
	return i, true
}

// fnValue returns the reference &name evaluates to.
func (c *compiler) fnValue(name string, pos minilang.Pos) (Value, error) {
	for id, fn := range c.fns {
		if fn == name {
			return fnRef(int32(id)), nil
		}
	}
	return 0, fmt.Errorf("vm: %s: &%s: no such function", pos, name)
}

// literal places the literal v: in dst if one is asked for, else where it
// already is — the register it was given when its function was compiled.
func (c *compiler) literal(v Value, dst int32) int32 {
	k, _ := c.constant(v)
	if dst < 0 && k < int32(len(c.code.lits)) {
		return c.code.litBase + k
	}
	r := c.place(dst)
	c.emit(instr{op: opConst, a: r, b: k})
	return r
}

// stmtLits and exprLits intern the literals of a function body that are
// read where they stand — an operand, an index, a condition, a returned
// value — in source order, as its first constants, and reserve a register
// for each after the parameters: enter fills them, so such a literal
// costs no instruction. A literal stored into a variable or passed as an
// argument is still loaded by opConst, as it must be copied anyway. A
// reference to no function is left for the compiler to report where it
// stands.
func (c *compiler) stmtLits(s minilang.Stmt) {
	switch st := s.(type) {
	case *minilang.VarDecl:
		c.exprLits(st.Init, false)
	case *minilang.AssignStmt:
		c.exprLits(st.Idx, true)
		c.exprLits(st.Val, st.Idx != nil)
	case *minilang.ExprStmt:
		c.exprLits(st.X, true)
	case *minilang.ReturnStmt:
		c.exprLits(st.Value, true)
	case *minilang.Block:
		for _, s := range st.Stmts {
			c.stmtLits(s)
		}
	case *minilang.IfStmt:
		c.exprLits(st.Cond, true)
		c.stmtLits(st.Then)
		if st.Else != nil {
			c.stmtLits(st.Else)
		}
	case *minilang.ForStmt:
		c.stmtLits(st.Init)
		c.exprLits(st.Cond, true)
		c.stmtLits(st.Post)
		c.stmtLits(st.Body)
	case *minilang.WhileStmt:
		c.exprLits(st.Cond, true)
		c.stmtLits(st.Body)
	}
}

// exprLits is stmtLits for e; inPlace reports whether e is compiled with
// no destination register (expr's dst < 0).
func (c *compiler) exprLits(e minilang.Expr, inPlace bool) {
	var v Value
	switch x := e.(type) {
	case *minilang.NumLit:
		v = Value(x.Value)
	case *minilang.FuncRefExpr:
		ref, err := c.fnValue(x.Name, x.Pos())
		if err != nil {
			return
		}
		v = ref
	case *minilang.IndexExpr:
		c.exprLits(x.Idx, true)
		return
	case *minilang.UnaryExpr:
		c.exprLits(x.X, true)
		return
	case *minilang.BinaryExpr:
		c.exprLits(x.L, true)
		c.exprLits(x.R, true)
		return
	case *minilang.CallExpr:
		// A builtin other than print reads its arguments in place
		// (operandList); a call and print copy them.
		inPlace := x.Builtin != nil && x.Builtin.Kind != minilang.BuiltinIO
		for _, a := range x.Args {
			c.exprLits(a, inPlace)
		}
		return
	default:
		return
	}
	if !inPlace {
		return
	}
	if _, isNew := c.constant(v); isNew {
		c.declareSlot()
	}
}

func (c *compiler) pushScope() {
	c.scopes = append(c.scopes, scope{base: len(c.binds), floor: c.floor})
}

func (c *compiler) popScope() {
	s := c.scopes[len(c.scopes)-1]
	c.scopes = c.scopes[:len(c.scopes)-1]
	for i := len(c.binds) - 1; i >= s.base; i-- {
		if b := c.binds[i]; b.shadows < 0 {
			delete(c.inner, b.name)
		} else {
			c.inner[b.name] = b.shadows
		}
	}
	c.binds = c.binds[:s.base]
	c.floor = s.floor
	c.reg = c.floor
}

// declareSlot reserves the next local slot, keeping temporaries above it.
func (c *compiler) declareSlot() int32 {
	slot := c.floor
	c.floor++
	if c.reg < c.floor {
		c.reg = c.floor
	}
	c.grow(c.floor)
	return slot
}

func (c *compiler) bind(name string, slot int32) {
	shadows, ok := c.inner[name]
	if !ok {
		shadows = -1
	}
	c.inner[name] = int32(len(c.binds))
	c.binds = append(c.binds, binding{name, slot, shadows})
}

// lookup resolves name innermost first, so a shadowing binding wins.
func (c *compiler) lookup(name string, pos minilang.Pos) (int32, error) {
	if i, ok := c.inner[name]; ok {
		return c.binds[i].slot, nil
	}
	return 0, fmt.Errorf("vm: %s: undefined variable %q", pos, name)
}

func (c *compiler) tmp() int32 {
	r := c.reg
	c.reg++
	c.grow(c.reg)
	return r
}

func (c *compiler) grow(n int32) {
	if n > c.code.nSlots {
		c.code.nSlots = n
	}
}

// prologue emits the context move and glue charge a statement begins
// with, as one instruction.
func (c *compiler) prologue(n minilang.Node) {
	c.emit(instr{op: opStmt, a: c.ctx(n)})
}

// patch points instruction i's jump target at the next emitted
// instruction.
func (c *compiler) patch(i int32) {
	in := &c.code.instrs[i]
	t := int32(len(c.code.instrs))
	switch {
	case in.op == opJmp:
		in.a = t
	case in.op >= opJmpUnlessEq && in.op <= opJmpUnlessGe:
		in.c = t
	default:
		in.b = t
	}
}

func (c *compiler) block(b *minilang.Block) error {
	c.pushScope()
	defer c.popScope()
	for _, s := range b.Stmts {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) stmt(s minilang.Stmt) error {
	// Temporaries never outlive a statement.
	defer func() { c.reg = c.floor }()
	// A statement that charges no glue (a loop, whose head has its own
	// prologue, a return, break, continue or block) moves no context,
	// though the interpreter does: only an advance reads the context,
	// and each instruction that advances first moves it to a site of its
	// own, which has a vertex in every instance.
	switch s.(type) {
	case *minilang.VarDecl, *minilang.AssignStmt, *minilang.ExprStmt, *minilang.IfStmt:
		c.prologue(s)
	}
	switch st := s.(type) {
	case *minilang.VarDecl:
		// The slot is reserved before the initializer runs (temporaries
		// stay above it) but the name binds after, so the initializer
		// resolves any same-named variable to the enclosing scope, just
		// like the interpreter's eval-then-declare order.
		slot := c.declareSlot()
		if _, _, err := c.expr(st.Init, slot); err != nil {
			return err
		}
		c.bind(st.Name, slot)
	case *minilang.AssignStmt:
		slot, err := c.lookup(st.Name, st.Pos())
		if err != nil {
			return err
		}
		if st.Idx != nil {
			p := c.pos(st.Pos())
			c.emit(instr{op: opArrChk, a: slot, d: c.name(st.Name), pos: p})
			idx, _, err := c.expr(st.Idx, -1)
			if err != nil {
				return err
			}
			// Index conversion and bounds check happen before the value
			// expression runs, matching the interpreter.
			c.emit(instr{op: opIdxChk, a: slot, b: idx, pos: p})
			val, _, err := c.expr(st.Val, -1)
			if err != nil {
				return err
			}
			c.emit(instr{op: opStoreIdx, a: slot, b: idx, c: val, pos: p})
			return nil
		}
		if _, _, err := c.expr(st.Val, slot); err != nil {
			return err
		}
	case *minilang.ExprStmt:
		if _, _, err := c.expr(st.X, -1); err != nil {
			return err
		}
	case *minilang.ReturnStmt:
		if st.Value == nil {
			c.emit(instr{op: opRet, a: -1})
			return nil
		}
		r, _, err := c.expr(st.Value, -1)
		if err != nil {
			return err
		}
		c.emit(instr{op: opRet, a: r})
	case *minilang.BreakStmt:
		if len(c.loops) == 0 {
			return fmt.Errorf("vm: %s: break outside loop", st.Pos())
		}
		l := &c.loops[len(c.loops)-1]
		l.breaks = append(l.breaks, c.emit(instr{op: opJmp}))
	case *minilang.ContinueStmt:
		if len(c.loops) == 0 {
			return fmt.Errorf("vm: %s: continue outside loop", st.Pos())
		}
		l := &c.loops[len(c.loops)-1]
		l.continues = append(l.continues, c.emit(instr{op: opJmp}))
	case *minilang.Block:
		return c.block(st)
	case *minilang.IfStmt:
		return c.ifStmt(st)
	case *minilang.ForStmt:
		return c.forStmt(st)
	case *minilang.WhileStmt:
		return c.whileStmt(st)
	default:
		return fmt.Errorf("vm: unknown statement %T", s)
	}
	return nil
}

func (c *compiler) ifStmt(st *minilang.IfStmt) error {
	jf, err := c.branchUnless(st.Cond, c.pos(st.Pos()))
	if err != nil {
		return err
	}
	c.reg = c.floor
	if err := c.block(st.Then); err != nil {
		return err
	}
	if st.Else == nil {
		c.patch(jf)
		return nil
	}
	end := c.emit(instr{op: opJmp})
	c.patch(jf)
	if err := c.block(st.Else); err != nil {
		return err
	}
	c.patch(end)
	return nil
}

func (c *compiler) forStmt(st *minilang.ForStmt) error {
	c.pushScope()
	defer c.popScope()
	if st.Init != nil {
		if err := c.stmt(st.Init); err != nil {
			return err
		}
	}
	head := int32(len(c.code.instrs))
	c.prologue(st)
	var jf int32 = -1
	if st.Cond != nil {
		var err error
		if jf, err = c.branchUnless(st.Cond, c.pos(st.Pos())); err != nil {
			return err
		}
		c.reg = c.floor
	}
	l, err := c.loopBody(st.Body)
	if err != nil {
		return err
	}
	// The continue point: the post statement if present, else the back
	// jump to the head.
	for _, i := range l.continues {
		c.patch(i)
	}
	if st.Post != nil {
		if err := c.stmt(st.Post); err != nil {
			return err
		}
	}
	c.emit(instr{op: opJmp, a: head, pos: c.pos(st.Pos())})
	if jf >= 0 {
		c.patch(jf)
	}
	for _, i := range l.breaks {
		c.patch(i)
	}
	return nil
}

func (c *compiler) whileStmt(st *minilang.WhileStmt) error {
	head := int32(len(c.code.instrs))
	c.prologue(st)
	jf, err := c.branchUnless(st.Cond, c.pos(st.Pos()))
	if err != nil {
		return err
	}
	c.reg = c.floor
	l, err := c.loopBody(st.Body)
	if err != nil {
		return err
	}
	for _, i := range l.continues {
		c.code.instrs[i].a = head
	}
	c.emit(instr{op: opJmp, a: head, pos: c.pos(st.Pos())})
	c.patch(jf)
	for _, i := range l.breaks {
		c.patch(i)
	}
	return nil
}

// loopBody compiles a loop's body and returns the jumps its break and
// continue statements left for the caller to patch. The lists reuse the
// storage of a loop closed before.
func (c *compiler) loopBody(body *minilang.Block) (loopPatch, error) {
	n := len(c.loops)
	if n < cap(c.loops) {
		c.loops = c.loops[:n+1]
		l := &c.loops[n]
		l.breaks, l.continues = l.breaks[:0], l.continues[:0]
	} else {
		c.loops = append(c.loops, loopPatch{})
	}
	err := c.block(body)
	l := c.loops[n]
	c.loops = c.loops[:n]
	return l, err
}

// branchUnless compiles a condition and the jump taken when it is false,
// and returns the jump for the caller to patch; p positions a truthiness
// failure. A comparison is the jump: one fused compare-and-branch.
//
// The interpreter moves the context back to an if statement once its
// condition has run; the bytecode does not, because nothing can see that
// move. Only an advance reads the context, every instruction that
// advances (opStmt, opCompute, opMPI) first moves it to a site of its
// own, and psg.Build gives every such site of every instance a vertex
// (TestEverySiteHasAVertex), so the next advance always finds the
// context moved again.
func (c *compiler) branchUnless(cond minilang.Expr, p int32) (int32, error) {
	if x, ok := cond.(*minilang.BinaryExpr); ok {
		if jo, ok := jmpUnless[x.Op]; ok {
			l, r, err := c.operands(x)
			if err != nil {
				return 0, err
			}
			return c.emit(instr{op: jo, a: l, b: r, pos: c.pos(x.Pos())}), nil
		}
	}
	v, _, err := c.expr(cond, -1)
	if err != nil {
		return 0, err
	}
	return c.emit(instr{op: opJmpFalse, a: v, pos: p}), nil
}

// expr compiles e. dst >= 0 forces the result into that register;
// dst < 0 lets the result live anywhere (a variable's own slot for a
// plain reference). It reports the result register and whether the
// result is statically known to be a number, which elides operand
// checks that can never fire.
func (c *compiler) expr(e minilang.Expr, dst int32) (int32, bool, error) {
	switch x := e.(type) {
	case *minilang.NumLit:
		return c.literal(Value(x.Value), dst), true, nil
	case *minilang.StrLit:
		// Checked programs cannot reach this; reproduce the
		// interpreter's runtime panic for unchecked ones.
		c.emit(instr{op: opStrPanic, pos: c.pos(x.Pos())})
		return c.place(dst), true, nil
	case *minilang.VarRef:
		slot, err := c.lookup(x.Name, x.Pos())
		if err != nil {
			return 0, false, err
		}
		if dst < 0 || dst == slot {
			return slot, false, nil
		}
		c.emit(instr{op: opMove, a: dst, b: slot})
		return dst, false, nil
	case *minilang.FuncRefExpr:
		ref, err := c.fnValue(x.Name, x.Pos())
		if err != nil {
			return 0, false, err
		}
		return c.literal(ref, dst), false, nil
	case *minilang.IndexExpr:
		slot, err := c.lookup(x.Name, x.Pos())
		if err != nil {
			return 0, false, err
		}
		p := c.pos(x.Pos())
		c.emit(instr{op: opArrChk, a: slot, d: c.name(x.Name), pos: p})
		idx, _, err := c.expr(x.Idx, -1)
		if err != nil {
			return 0, false, err
		}
		r := c.place(dst)
		c.emit(instr{op: opLoadIdx, a: slot, b: idx, c: r, pos: p})
		return r, true, nil
	case *minilang.UnaryExpr:
		v, _, err := c.expr(x.X, -1)
		if err != nil {
			return 0, false, err
		}
		r := c.place(dst)
		o := opNot
		if x.Op == minilang.TokMinus {
			o = opNeg
		}
		c.emit(instr{op: o, a: v, b: r, pos: c.pos(x.Pos())})
		return r, true, nil
	case *minilang.BinaryExpr:
		return c.binary(x, dst)
	case *minilang.CallExpr:
		return c.call(x, dst)
	}
	return 0, false, fmt.Errorf("vm: unknown expression %T", e)
}

// place resolves a destination register: the caller's requested one, or
// a fresh temporary.
func (c *compiler) place(dst int32) int32 {
	if dst >= 0 {
		return dst
	}
	return c.tmp()
}

var binOps = map[minilang.TokKind]op{
	minilang.TokPlus:    opAdd,
	minilang.TokMinus:   opSub,
	minilang.TokStar:    opMul,
	minilang.TokSlash:   opDiv,
	minilang.TokPercent: opMod,
	minilang.TokEq:      opEq,
	minilang.TokNe:      opNe,
	minilang.TokLt:      opLt,
	minilang.TokLe:      opLe,
	minilang.TokGt:      opGt,
	minilang.TokGe:      opGe,
}

// jmpUnless holds the fused compare-and-branch of each comparison.
var jmpUnless = map[minilang.TokKind]op{
	minilang.TokEq: opJmpUnlessEq,
	minilang.TokNe: opJmpUnlessNe,
	minilang.TokLt: opJmpUnlessLt,
	minilang.TokLe: opJmpUnlessLe,
	minilang.TokGt: opJmpUnlessGt,
	minilang.TokGe: opJmpUnlessGe,
}

func (c *compiler) binary(x *minilang.BinaryExpr, dst int32) (int32, bool, error) {
	p := c.pos(x.Pos())
	switch x.Op {
	case minilang.TokAndAnd, minilang.TokOrOr:
		// Short-circuit, with the interpreter's exact result values:
		// && yields 0 when L is false, boolVal(truthy(R)) otherwise;
		// || yields 1 when L is true.
		r := c.place(dst)
		l, _, err := c.expr(x.L, -1)
		if err != nil {
			return 0, false, err
		}
		// opJmpFalse/opJmpTrue perform the interpreter's truthiness check
		// (numeric conversion with the "condition" role) themselves.
		jshort := c.emit(instr{op: opJmpFalse, a: l, pos: p})
		if x.Op == minilang.TokOrOr {
			c.code.instrs[jshort].op = opJmpTrue
		}
		rr, _, err := c.expr(x.R, -1)
		if err != nil {
			return 0, false, err
		}
		c.emit(instr{op: opBool, a: rr, b: r, pos: p})
		end := c.emit(instr{op: opJmp})
		c.patch(jshort)
		short := 0.0
		if x.Op == minilang.TokOrOr {
			short = 1
		}
		k, _ := c.constant(Value(short))
		c.emit(instr{op: opConst, a: r, b: k})
		c.patch(end)
		return r, true, nil
	}
	o, ok := binOps[x.Op]
	if !ok {
		return 0, false, fmt.Errorf("vm: unknown binary operator %v", x.Op)
	}
	l, r, err := c.operands(x)
	if err != nil {
		return 0, false, err
	}
	d := c.place(dst)
	c.emit(instr{op: o, a: l, b: r, c: d, pos: p})
	return d, true, nil
}

// operands compiles a binary operator's operands, left then right. The
// operator converts both itself; the interpreter converts the left one
// before it evaluates the right, so the left is checked here first only
// when that order can show — when the right operand can have an effect,
// a call's or an error of its own. A variable or a literal has none.
func (c *compiler) operands(x *minilang.BinaryExpr) (l, r int32, err error) {
	l, lNum, err := c.expr(x.L, -1)
	if err != nil {
		return 0, 0, err
	}
	switch x.R.(type) {
	case *minilang.VarRef, *minilang.NumLit, *minilang.FuncRefExpr:
	default:
		if !lNum {
			c.emit(instr{op: opChkNum, a: l, pos: c.pos(x.Pos())})
		}
	}
	r, _, err = c.expr(x.R, -1)
	return l, r, err
}

// args compiles a call's arguments into a fresh contiguous register
// block, which the callee's frame is copied from, and returns its base.
func (c *compiler) args(list []minilang.Expr) (int32, error) {
	base := c.reg
	c.reg += int32(len(list))
	c.grow(c.reg)
	top := c.reg
	for i, a := range list {
		if _, _, err := c.expr(a, base+int32(i)); err != nil {
			return 0, err
		}
		c.reg = top // release argument subexpression temporaries
	}
	return base, nil
}

// operandList compiles a builtin's arguments, left to right, each to
// wherever it lands — a variable's slot, a literal's register, a
// temporary kept live to the end of the statement — and returns the index
// in code.args of the list of those registers. No argument can change a
// variable another one read, so none is copied.
func (c *compiler) operandList(list []minilang.Expr) (int32, error) {
	var buf [6]int32 // the most a builtin takes
	regs := buf[:0]
	for _, a := range list {
		r, _, err := c.expr(a, -1)
		if err != nil {
			return 0, err
		}
		regs = append(regs, r)
	}
	start := int32(len(c.code.args))
	c.code.args = append(c.code.args, regs...)
	return start, nil
}

func (c *compiler) call(x *minilang.CallExpr, dst int32) (int32, bool, error) {
	if x.Builtin != nil {
		return c.builtin(x, dst)
	}
	r := c.place(dst)
	base, err := c.args(x.Args)
	if err != nil {
		return 0, false, err
	}
	if x.Indirect {
		slot, err := c.lookup(x.Name, x.Pos())
		if err != nil {
			return 0, false, err
		}
		site := int32(len(c.code.indirects))
		c.code.indirects = append(c.code.indirects, indSite{
			node: x.ID(), varName: x.Name, argc: int32(len(x.Args)), pos: x.Pos(),
		})
		c.emit(instr{op: opCallInd, a: site, b: base, c: r, d: slot, pos: c.pos(x.Pos())})
		return r, false, nil
	}
	site := int32(len(c.code.calls))
	c.code.calls = append(c.code.calls, callSite{
		node: x.ID(), callee: x.Name, argc: int32(len(x.Args)), pos: x.Pos(),
	})
	c.emit(instr{op: opCall, a: site, b: base, c: r, pos: c.pos(x.Pos())})
	return r, false, nil
}

func (c *compiler) builtin(x *minilang.CallExpr, dst int32) (int32, bool, error) {
	b := x.Builtin
	p := c.pos(x.Pos())
	switch b.Kind {
	case minilang.BuiltinIO:
		return c.print(x, dst)
	case minilang.BuiltinComm:
		r := c.place(dst)
		ops, err := c.operandList(x.Args)
		if err != nil {
			return 0, false, err
		}
		mop, ok := mpisim.OpNamed(b.Name)
		if !ok || mop == mpisim.OpNone {
			return 0, false, fmt.Errorf("vm: unhandled MPI builtin %q", b.Name)
		}
		// Arguments evaluate under the enclosing context; the operation
		// itself runs at the MPI vertex.
		c.emit(instr{op: opMPI, a: ops, b: c.ctx(x), c: r, d: int32(mop), pos: p})
		return r, true, nil
	case minilang.BuiltinQuery:
		r := c.place(dst)
		o := opRank
		if b.Name == "mpi_size" {
			o = opSize
		}
		c.emit(instr{op: o, a: r})
		return r, true, nil
	case minilang.BuiltinCompute:
		r := c.place(dst)
		ops, err := c.operandList(x.Args)
		if err != nil {
			return 0, false, err
		}
		c.emit(instr{op: opCompute, a: ops, b: c.ctx(x), c: r, pos: p})
		return r, true, nil
	case minilang.BuiltinAlloc:
		v, _, err := c.expr(x.Args[0], -1)
		if err != nil {
			return 0, false, err
		}
		r := c.place(dst)
		c.emit(instr{op: opAlloc, a: v, b: r, pos: p})
		return r, false, nil
	case minilang.BuiltinMath:
		switch b.Name {
		case "rand":
			r := c.place(dst)
			c.emit(instr{op: opRand, a: r})
			return r, true, nil
		case "len":
			v, _, err := c.expr(x.Args[0], -1)
			if err != nil {
				return 0, false, err
			}
			r := c.place(dst)
			c.emit(instr{op: opLen, a: v, b: r, pos: p})
			return r, true, nil
		}
		for i, n := range mathNames {
			if n != b.Name {
				continue
			}
			ops, err := c.operandList(x.Args)
			if err != nil {
				return 0, false, err
			}
			args := c.code.args[ops:]
			r := c.place(dst)
			if b.Arity == 2 {
				c.emit(instr{op: opMath2, a: args[0], b: args[1], c: r, d: int32(i), pos: p})
			} else {
				c.emit(instr{op: opMath1, a: args[0], b: r, d: int32(i), pos: p})
			}
			return r, true, nil
		}
	}
	return 0, false, fmt.Errorf("vm: unhandled builtin %q", b.Name)
}

func (c *compiler) print(x *minilang.CallExpr, dst int32) (int32, bool, error) {
	spec := printSpec{}
	// Evaluate the non-string arguments left to right into temporaries
	// that stay live until the print executes.
	nvals := 0
	for _, a := range x.Args {
		if _, isStr := a.(*minilang.StrLit); !isStr {
			nvals++
		}
	}
	base := c.reg
	c.reg += int32(nvals)
	c.grow(c.reg)
	top := c.reg
	vi := int32(0)
	for _, a := range x.Args {
		if s, isStr := a.(*minilang.StrLit); isStr {
			spec.parts = append(spec.parts, printPart{str: s.Value, isStr: true})
			continue
		}
		if _, _, err := c.expr(a, base+vi); err != nil {
			return 0, false, err
		}
		c.reg = top
		spec.parts = append(spec.parts, printPart{reg: base + vi})
		vi++
	}
	idx := int32(len(c.code.prints))
	c.code.prints = append(c.code.prints, spec)
	r := c.place(dst)
	c.emit(instr{op: opPrint, a: idx, b: r})
	return r, true, nil
}
