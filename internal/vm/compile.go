package vm

import (
	"fmt"

	"scalana/internal/minilang"
)

// The bytecode compiler lowers one function's AST to a flat register
// machine. Registers are frame slots: parameters and locals get stable
// slots assigned by lexical scope (sound because the checker guarantees
// declare-before-use and per-scope uniqueness), and expression
// temporaries are allocated above the live locals and released at every
// statement boundary.
//
// The compiler's contract is behavioral identity with the reference
// tree-walker (internal/vm/difftest/interp): it emits explicit
// opSetCtx/opGlue instructions at exactly the points the tree-walker
// moves the attribution context and charges glue, keeps
// the interpreter's left-to-right evaluation and conversion order
// (opChkNum lets a binary operator convert its left operand before the
// right operand runs), and reproduces the interpreter's panic messages
// byte for byte. See DESIGN.md §10 for the full determinism contract.

type scope struct {
	names map[string]int32
	floor int32 // locals watermark to restore on exit
}

type loopPatch struct {
	breaks    []int32 // instruction indices whose target is the loop exit
	continues []int32 // instruction indices whose target is the continue point
}

type compiler struct {
	code   *Code
	scopes []scope
	floor  int32 // next local slot
	reg    int32 // next temporary slot (>= floor)
	loops  []*loopPatch

	posIdx  map[minilang.Pos]int32
	ctxIdx  map[minilang.NodeID]int32
	numIdx  map[float64]int32
	nameIdx map[string]int32
}

// compileFunc lowers one function declaration to bytecode; fns is the
// program's function-name table, which &name constants index.
func compileFunc(fn *minilang.FuncDecl, fns []string) (*Code, error) {
	c := &compiler{
		code:    &Code{fn: fn, fns: fns},
		posIdx:  map[minilang.Pos]int32{},
		ctxIdx:  map[minilang.NodeID]int32{},
		numIdx:  map[float64]int32{},
		nameIdx: map[string]int32{},
	}
	c.pushScope()
	for _, p := range fn.Params {
		c.bind(p, c.declareSlot())
	}
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

// ctx interns an attribution site. One node can be the target of several
// opSetCtx instructions (an if statement sets its context twice), so
// sites are deduplicated by node ID.
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

func (c *compiler) numConst(v float64) int32 {
	if i, ok := c.numIdx[v]; ok {
		return i
	}
	i := int32(len(c.code.consts))
	c.code.consts = append(c.code.consts, Value(v))
	c.numIdx[v] = i
	return i
}

func (c *compiler) fnConst(name string, pos minilang.Pos) (int32, error) {
	for id, fn := range c.code.fns {
		if fn == name {
			c.code.consts = append(c.code.consts, fnRef(int32(id)))
			return int32(len(c.code.consts) - 1), nil
		}
	}
	return 0, fmt.Errorf("vm: %s: &%s: no such function", pos, name)
}

func (c *compiler) pushScope() {
	c.scopes = append(c.scopes, scope{names: map[string]int32{}, floor: c.floor})
}

func (c *compiler) popScope() {
	s := c.scopes[len(c.scopes)-1]
	c.scopes = c.scopes[:len(c.scopes)-1]
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
	c.scopes[len(c.scopes)-1].names[name] = slot
}

func (c *compiler) lookup(name string, pos minilang.Pos) (int32, error) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if slot, ok := c.scopes[i].names[name]; ok {
			return slot, nil
		}
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

// setCtx emits the context move every statement begins with.
func (c *compiler) setCtx(n minilang.Node) {
	c.emit(instr{op: opSetCtx, a: c.ctx(n)})
}

func (c *compiler) glue() {
	c.emit(instr{op: opGlue})
}

// patch points instruction i's jump target at the next emitted
// instruction.
func (c *compiler) patch(i int32) {
	in := &c.code.instrs[i]
	t := int32(len(c.code.instrs))
	if in.op == opJmp {
		in.a = t
	} else {
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
	c.setCtx(s)
	switch st := s.(type) {
	case *minilang.VarDecl:
		c.glue()
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
		c.glue()
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
		c.glue()
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
		l := c.loops[len(c.loops)-1]
		l.breaks = append(l.breaks, c.emit(instr{op: opJmp}))
	case *minilang.ContinueStmt:
		if len(c.loops) == 0 {
			return fmt.Errorf("vm: %s: continue outside loop", st.Pos())
		}
		l := c.loops[len(c.loops)-1]
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
	c.glue()
	cond, isNum, err := c.expr(st.Cond, -1)
	if err != nil {
		return err
	}
	p := c.pos(st.Pos())
	if !isNum {
		// The interpreter's truthiness check fires before the second
		// context move; keep that order for erroring runs too.
		c.emit(instr{op: opChkNum, a: cond, b: whatCond, pos: p})
	}
	c.setCtx(st)
	jf := c.emit(instr{op: opJmpFalse, a: cond, pos: p})
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
	c.setCtx(st)
	c.glue()
	var jf int32 = -1
	if st.Cond != nil {
		cond, _, err := c.expr(st.Cond, -1)
		if err != nil {
			return err
		}
		jf = c.emit(instr{op: opJmpFalse, a: cond, pos: c.pos(st.Pos())})
		c.reg = c.floor
	}
	l := &loopPatch{}
	c.loops = append(c.loops, l)
	if err := c.block(st.Body); err != nil {
		return err
	}
	c.loops = c.loops[:len(c.loops)-1]
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
	c.setCtx(st)
	c.glue()
	cond, _, err := c.expr(st.Cond, -1)
	if err != nil {
		return err
	}
	jf := c.emit(instr{op: opJmpFalse, a: cond, pos: c.pos(st.Pos())})
	c.reg = c.floor
	l := &loopPatch{}
	c.loops = append(c.loops, l)
	if err := c.block(st.Body); err != nil {
		return err
	}
	c.loops = c.loops[:len(c.loops)-1]
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

// expr compiles e. dst >= 0 forces the result into that register;
// dst < 0 lets the result live anywhere (a variable's own slot for a
// plain reference). It reports the result register and whether the
// result is statically known to be a number, which elides operand
// checks that can never fire.
func (c *compiler) expr(e minilang.Expr, dst int32) (int32, bool, error) {
	switch x := e.(type) {
	case *minilang.NumLit:
		r := c.place(dst)
		c.emit(instr{op: opConst, a: r, b: c.numConst(x.Value)})
		return r, true, nil
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
		k, err := c.fnConst(x.Name, x.Pos())
		if err != nil {
			return 0, false, err
		}
		r := c.place(dst)
		c.emit(instr{op: opConst, a: r, b: k})
		return r, false, nil
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
		c.emit(instr{op: opConst, a: r, b: c.numConst(short)})
		c.patch(end)
		return r, true, nil
	}
	o, ok := binOps[x.Op]
	if !ok {
		return 0, false, fmt.Errorf("vm: unknown binary operator %v", x.Op)
	}
	l, lNum, err := c.expr(x.L, -1)
	if err != nil {
		return 0, false, err
	}
	if !lNum {
		// The interpreter converts the left operand before evaluating
		// the right one; check here so a non-number fails at the same
		// point in the event stream.
		c.emit(instr{op: opChkNum, a: l, b: whatLeft, pos: p})
	}
	r, rNum, err := c.expr(x.R, -1)
	if err != nil {
		return 0, false, err
	}
	if !rNum {
		c.emit(instr{op: opChkNum, a: r, b: whatRight, pos: p})
	}
	d := c.place(dst)
	c.emit(instr{op: o, a: l, b: r, c: d, pos: p})
	return d, true, nil
}

// args compiles a call's arguments into a fresh contiguous register
// block and returns its base.
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
		base, err := c.args(x.Args)
		if err != nil {
			return 0, false, err
		}
		mop, ok := mpiOpByName[b.Name]
		if !ok {
			return 0, false, fmt.Errorf("vm: unhandled MPI builtin %q", b.Name)
		}
		// Arguments evaluate under the enclosing context; the operation
		// itself runs at the MPI vertex.
		c.setCtx(x)
		c.emit(instr{op: opMPI, a: base, c: r, d: int32(mop), pos: p})
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
		base, err := c.args(x.Args)
		if err != nil {
			return 0, false, err
		}
		c.setCtx(x)
		c.emit(instr{op: opCompute, a: base, c: r, pos: p})
		return r, true, nil
	case minilang.BuiltinAlloc:
		base, err := c.args(x.Args)
		if err != nil {
			return 0, false, err
		}
		r := c.place(dst)
		c.emit(instr{op: opAlloc, a: base, b: r, pos: p})
		return r, false, nil
	case minilang.BuiltinMath:
		switch b.Name {
		case "rand":
			r := c.place(dst)
			c.emit(instr{op: opRand, a: r})
			return r, true, nil
		case "len":
			base, err := c.args(x.Args)
			if err != nil {
				return 0, false, err
			}
			r := c.place(dst)
			c.emit(instr{op: opLen, a: base, b: r, pos: p})
			return r, true, nil
		}
		for i, n := range mathNames {
			if n != b.Name {
				continue
			}
			base, err := c.args(x.Args)
			if err != nil {
				return 0, false, err
			}
			r := c.place(dst)
			if b.Arity == 2 {
				c.emit(instr{op: opMath2, a: base, b: base + 1, c: r, d: int32(i), pos: p})
			} else {
				c.emit(instr{op: opMath1, a: base, b: r, d: int32(i), pos: p})
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
