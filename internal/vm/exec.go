package vm

import (
	"fmt"
	"io"
	"math"

	"scalana/internal/minilang"
	"scalana/internal/mpisim"
	"scalana/internal/psg"
)

// glueIns is the abstract instruction count charged per statement,
// modelling the scalar bookkeeping code between the bulk compute/MPI
// operations.
const glueIns = 24

// IndirectObserver is notified when an indirect call resolves its target
// at run time (paper §III-B3). The ScalAna profiler records which
// targets fired (prof.IndirectRecord); the PSG already holds them all.
type IndirectObserver func(rank int, inst *psg.Instance, site minilang.NodeID, target string)

// Runner executes a compiled Program on simulated ranks.
type Runner struct {
	Prog *Program
	// Stdout receives print() output; nil discards it.
	Stdout io.Writer
	// OnIndirect observes runtime indirect-call resolution.
	OnIndirect IndirectObserver
}

// NewRunner builds a Runner for p.
func NewRunner(p *Program) *Runner {
	return &Runner{Prog: p}
}

// MaxCallDepth bounds a rank's MiniMP call stack. The stack is data, so a
// runaway recursion fails its rank with a positioned error instead of
// exhausting the host.
const MaxCallDepth = 1000

// MaxSteps bounds the backward jumps and calls one rank may execute: a
// count, not a clock, so a program that never ends — while (1) {} — fails
// its rank at the same statement on every run and every host.
const MaxSteps = 1 << 22

// MaxArrayElems bounds what one rank may allocate: each alloc(n) charges
// n+1 against it, so neither the elements nor the number of arrays can
// exhaust the host (8192 ranks at the limit hold 4 GiB).
const MaxArrayElems = 1 << 16

// Stepper sets up one run of np ranks — a machine a rank, their register
// files and call stacks carved from one slab each — and returns the
// stepper to hand to mpisim.World.Run.
func (r *Runner) Stepper(np int) mpisim.Stepper {
	main := r.Prog.main
	nRegs, nCalls := int(r.Prog.stackRegs), int(r.Prog.stackDepth)
	machines := make([]machine, np)
	regs := make([]Value, np*nRegs)
	calls := make([]frame, np*nCalls)
	for i := range machines {
		m := &machines[i]
		m.r = r
		m.regs = regs[i*nRegs : (i+1)*nRegs : (i+1)*nRegs]
		m.calls = append(calls[i*nCalls:i*nCalls:(i+1)*nCalls], frame{l: main})
		m.steps, m.arrLeft = MaxSteps, MaxArrayElems
	}
	return func(p *mpisim.Proc) bool { return machines[p.Rank].step(p) }
}

// frame is one activation on a machine's call stack.
type frame struct {
	l *Link
	// pc is where the activation continues: after the call it made, or
	// after the MPI operation it parked in.
	pc int32
	// base is the frame's first register in machine.regs; dst is the
	// register of the caller's frame that receives the return value.
	base, dst int32
}

// machine is the per-rank execution state: an explicit call stack over
// one register file, so that a rank parked in an MPI operation is a few
// saved words, not a suspended Go stack. Registers are reused as the
// stack moves, and steady-state execution performs no allocations: slots
// are written before they are read (the checker's declare-before-use
// guarantee), which makes zeroing unnecessary.
type machine struct {
	r     *Runner
	regs  []Value
	calls []frame
	// anyReg is 1 + the register waiting for the source of the RecvAny the
	// rank parked in; 0 when there is none.
	anyReg int32
	// steps is what is left of the rank's MaxSteps, arrLeft of its
	// MaxArrayElems.
	steps, arrLeft int32
	// heap holds the rank's arrays end to end; an array Value is an offset
	// and a length into it, so a forged one fails (or reads) only this rank.
	heap []float64
}

// arr returns the elements v refers to.
//
//scalana:hot
func (m *machine) arr(v Value) []float64 {
	off := int(v.bits() >> arrBits & arrMask)
	return m.heap[off : off+v.arrLen()]
}

// Precomputed conversion-role strings so the hot path never
// concatenates (the messages only surface in panics).
var (
	mpiArgWhats  [len(mpiNames)]string
	mathArgWhats [len(mathNames)]string
)

func init() {
	for i, n := range mpiNames {
		mpiArgWhats[i] = n + " argument"
	}
	for i, n := range mathNames {
		mathArgWhats[i] = n + " argument"
	}
}

// num, truthy, and boolVal mirror the interpreter's helpers, panic
// messages included. The position is code.poss[pos], read only to panic.
//
//scalana:hot
func num(v Value, code *Code, pos int32, what string) float64 {
	if v != v { // only a NaN can be a reference
		chkNaN(v, code, pos, what)
	}
	return float64(v)
}

// chkNaN is num's slow half, outlined so that num (≈a quarter of sweep CPU
// when it was a call) inlines into every arithmetic opcode: a NaN the
// program computed passes, a reference panics.
//
//go:noinline
func chkNaN(v Value, code *Code, pos int32, what string) {
	if !v.IsNum() {
		panic(fmt.Sprintf("%s: %s must be a number, got %s", code.poss[pos], what, v.format(code.fns)))
	}
}

// truthy coerces a condition value, panicking on non-numbers.
//
//scalana:hot
func truthy(v Value, code *Code, pos int32) bool {
	return num(v, code, pos, "condition") != 0
}

// boolVal converts a Go bool to the VM's numeric truth values.
//
//scalana:hot
func boolVal(b bool) Value {
	if b {
		return 1
	}
	return 0
}

// enter pushes an activation of l with args as its first registers. dst
// and pos belong to the call site: where the value goes, and where a call
// too deep is reported.
//
//scalana:hot
func (m *machine) enter(l *Link, args []Value, dst int32, pos *minilang.Pos) {
	n := len(m.calls)
	if n >= MaxCallDepth {
		panic(fmt.Sprintf("%s: call to %q exceeds the call depth limit of %d", *pos, l.code.fn.Name, MaxCallDepth))
	}
	m.spend(pos)
	top := &m.calls[n-1]
	base := top.base + top.l.code.nSlots
	if need := int(base + l.code.nSlots); need > len(m.regs) {
		// Only a recursive program outgrows Program.stackRegs.
		grown := make([]Value, max(need, 2*len(m.regs)))
		copy(grown, m.regs[:base])
		m.regs = grown
	}
	copy(m.regs[base:], args)
	m.calls = append(m.calls, frame{l: l, base: base, dst: dst})
}

// spend takes one step — a backward jump or a call, at pos — from the
// rank's budget.
//
//scalana:hot
func (m *machine) spend(pos *minilang.Pos) {
	if m.steps--; m.steps < 0 {
		outOfSteps(pos)
	}
}

// outOfSteps is outlined from spend, as chkNaN is from num.
//
//go:noinline
func outOfSteps(pos *minilang.Pos) {
	panic(fmt.Sprintf("%s: rank exceeds the step budget of %d backward jumps and calls", *pos, MaxSteps))
}

// alloc is alloc(n) at pos: it charges int(n)+1 to the rank's array budget
// and appends the zeroed elements to its heap.
func (m *machine) alloc(n float64, pos *minilang.Pos) Value {
	if n <= -1 {
		panic(fmt.Sprintf("%s: alloc of negative length %.0f", *pos, math.Trunc(n)))
	}
	if !(n < float64(m.arrLeft)) { // NaN and +Inf too
		panic(fmt.Sprintf("%s: alloc of %g elements exceeds what is left of the rank's array budget of %d", *pos, n, MaxArrayElems))
	}
	ln, off := int(n), len(m.heap)
	m.arrLeft -= int32(ln) + 1
	m.heap = append(m.heap, make([]float64, ln)...)
	return arrRef(off, ln)
}

// step runs the rank's program from where it stopped until it finishes
// (true) or parks in an MPI operation (false). It is the bytecode
// dispatch loop — the hottest function in a sweep.
//
//scalana:hot
func (m *machine) step(p *mpisim.Proc) bool {
	if m.anyReg != 0 {
		top := &m.calls[len(m.calls)-1]
		m.regs[top.base+m.anyReg-1] = Value(p.MatchedSource())
		m.anyReg = 0
	}
	// One iteration an activation: entered, returned to, or resumed.
	for {
		fr := &m.calls[len(m.calls)-1]
		l := fr.l
		code := l.code
		instrs := code.instrs
		f := m.regs[fr.base : fr.base+code.nSlots]
		pc := int(fr.pc)
	dispatch:
		for {
			in := instrs[pc]
			pc++
			switch in.op {
			case opNop:
			case opConst:
				f[in.a] = code.consts[in.b]
			case opMove:
				f[in.a] = f[in.b]
			case opSetCtx:
				if v := l.ctx[in.a]; v != nil {
					p.Ctx = v
				}
			case opGlue:
				p.Glue(glueIns)
			case opJmp:
				if int(in.a) < pc {
					m.spend(&code.poss[in.pos])
				}
				pc = int(in.a)
			case opJmpFalse:
				if !truthy(f[in.a], code, in.pos) {
					pc = int(in.b)
				}
			case opJmpTrue:
				if truthy(f[in.a], code, in.pos) {
					pc = int(in.b)
				}
			case opRet:
				var v Value
				if in.a >= 0 {
					v = f[in.a]
				}
				top, dst := len(m.calls)-1, fr.dst
				m.calls = m.calls[:top]
				if top == 0 {
					return true
				}
				m.regs[m.calls[top-1].base+dst] = v
				break dispatch
			case opChkNum:
				num(f[in.a], code, in.pos, whats[in.b])

			case opNeg:
				f[in.b] = Value(-num(f[in.a], code, in.pos, "operand"))
			case opNot:
				f[in.b] = boolVal(num(f[in.a], code, in.pos, "operand") == 0)
			case opBool:
				f[in.b] = boolVal(truthy(f[in.a], code, in.pos))
			case opAdd:
				f[in.c] = f[in.a] + f[in.b]
			case opSub:
				f[in.c] = f[in.a] - f[in.b]
			case opMul:
				f[in.c] = f[in.a] * f[in.b]
			case opDiv:
				if f[in.b] == 0 {
					panic(fmt.Sprintf("%s: division by zero", code.poss[in.pos]))
				}
				f[in.c] = f[in.a] / f[in.b]
			case opMod:
				if f[in.b] == 0 {
					panic(fmt.Sprintf("%s: modulo by zero", code.poss[in.pos]))
				}
				f[in.c] = Value(math.Mod(float64(f[in.a]), float64(f[in.b])))
			case opEq:
				f[in.c] = boolVal(f[in.a] == f[in.b])
			case opNe:
				f[in.c] = boolVal(f[in.a] != f[in.b])
			case opLt:
				f[in.c] = boolVal(f[in.a] < f[in.b])
			case opLe:
				f[in.c] = boolVal(f[in.a] <= f[in.b])
			case opGt:
				f[in.c] = boolVal(f[in.a] > f[in.b])
			case opGe:
				f[in.c] = boolVal(f[in.a] >= f[in.b])

			case opArrChk:
				if !f[in.a].isArr() {
					panic(fmt.Sprintf("%s: %q is not an array", code.poss[in.pos], code.names[in.d]))
				}
			case opLoadIdx:
				arr := m.arr(f[in.a])
				idx := int(num(f[in.b], code, in.pos, "index"))
				if idx < 0 || idx >= len(arr) {
					panic(fmt.Sprintf("%s: index %d out of range [0,%d)", code.poss[in.pos], idx, len(arr)))
				}
				f[in.c] = Value(arr[idx])
			case opIdxChk:
				arr := m.arr(f[in.a])
				idx := int(num(f[in.b], code, in.pos, "index"))
				if idx < 0 || idx >= len(arr) {
					panic(fmt.Sprintf("%s: index %d out of range [0,%d)", code.poss[in.pos], idx, len(arr)))
				}
			case opStoreIdx:
				m.arr(f[in.a])[int(f[in.b])] = num(f[in.c], code, in.pos, "array element")
			case opAlloc:
				f[in.b] = m.alloc(num(f[in.a], code, in.pos, "alloc argument"), &code.poss[in.pos])
			case opLen:
				if !f[in.a].isArr() {
					panic(fmt.Sprintf("%s: len of non-array", code.poss[in.pos]))
				}
				f[in.b] = Value(f[in.a].arrLen())

			case opMath1:
				v := num(f[in.a], code, in.pos, mathArgWhats[in.d])
				var out float64
				switch mathFn(in.d) {
				case mathSqrt:
					out = math.Sqrt(v)
				case mathLog:
					out = math.Log(v)
				case mathLog2:
					out = math.Log2(v)
				case mathExp:
					out = math.Exp(v)
				case mathFloor:
					out = math.Floor(v)
				case mathCeil:
					out = math.Ceil(v)
				case mathAbs:
					out = math.Abs(v)
				}
				f[in.b] = Value(out)
			case opMath2:
				what := mathArgWhats[in.d]
				v0 := num(f[in.a], code, in.pos, what)
				v1 := num(f[in.b], code, in.pos, what)
				var out float64
				switch mathFn(in.d) {
				case mathMin:
					out = math.Min(v0, v1)
				case mathMax:
					out = math.Max(v0, v1)
				case mathPow:
					out = math.Pow(v0, v1)
				}
				f[in.c] = Value(out)
			case opRand:
				f[in.a] = Value(p.Rand())
			case opRank:
				f[in.a] = Value(p.Rank)
			case opSize:
				f[in.a] = Value(p.NP())
			case opCompute:
				b := in.a
				n0 := num(f[b], code, in.pos, "compute argument")
				n1 := num(f[b+1], code, in.pos, "compute argument")
				n2 := num(f[b+2], code, in.pos, "compute argument")
				n3 := num(f[b+3], code, in.pos, "compute argument")
				p.Compute(n0, n1, n2, n3)
				f[in.c] = 0
			case opMPI:
				if !m.mpi(p, code, f, in) {
					fr.pc = int32(pc)
					return false
				}
			case opPrint:
				m.print(p, code, f, in)

			case opCall:
				cs := &code.calls[in.a]
				child := l.calls[in.a]
				if child == nil {
					panic(fmt.Sprintf("%s: no PSG instance for call to %q (site %d in %s)",
						cs.pos, cs.callee, cs.node, l.inst.Path))
				}
				fr.pc = int32(pc)
				m.enter(child, f[in.b:in.b+cs.argc], in.c, &cs.pos)
				break dispatch
			case opCallInd:
				is := &code.indirects[in.a]
				if !f[in.d].isFn() {
					panic(fmt.Sprintf("%s: %q does not hold a function reference", is.pos, is.varName))
				}
				id := f[in.d].fnID()
				var child *Link
				if targets := l.indirect[in.a]; id < len(targets) {
					child = targets[id]
				}
				if child == nil {
					m.r.Prog.missingTarget(l, in.a, code.fns[id])
				}
				if got, want := is.argc, int32(len(child.code.fn.Params)); got != want {
					panic(fmt.Sprintf("vm: %s expects %d args, got %d", child.code.fn.Name, want, got))
				}
				if m.r.OnIndirect != nil {
					m.r.OnIndirect(p.Rank, l.inst, is.node, code.fns[id])
				}
				fr.pc = int32(pc)
				m.enter(child, f[in.b:in.b+is.argc], in.c, &is.pos)
				break dispatch

			case opStrPanic:
				panic(fmt.Sprintf("%s: string literal outside print", code.poss[in.pos]))
			default:
				panic(fmt.Sprintf("vm: unknown opcode %d", in.op))
			}
		}
	}
}

// mpi dispatches one MPI builtin. Argument conversion order and error
// roles match the interpreter's evalMPI exactly. It reports false when the
// operation parked: the result register is already written (the source of
// a RecvAny follows through anyReg), so the program continues at the next
// instruction.
//
//scalana:hot
func (m *machine) mpi(p *mpisim.Proc, code *Code, f []Value, in instr) bool {
	pos := in.pos
	o := mpiOp(in.d)
	what := mpiArgWhats[o]
	b := in.a
	switch o {
	case mpiSend:
		a0 := int(num(f[b], code, pos, what))
		a1 := int(num(f[b+1], code, pos, what))
		a2 := num(f[b+2], code, pos, what)
		p.Send(a0, a1, a2)
		f[in.c] = 0
	case mpiRecv:
		a0 := int(num(f[b], code, pos, what))
		a1 := int(num(f[b+1], code, pos, what))
		a2 := num(f[b+2], code, pos, what)
		f[in.c] = 0
		return p.Recv(a0, a1, a2)
	case mpiRecvAny:
		a0 := int(num(f[b], code, pos, what))
		a1 := num(f[b+1], code, pos, what)
		src := p.RecvAny(a0, a1)
		if src == mpisim.Parked {
			m.anyReg = in.c + 1
			return false
		}
		f[in.c] = Value(src)
	case mpiIsend:
		a0 := int(num(f[b], code, pos, what))
		a1 := int(num(f[b+1], code, pos, what))
		a2 := num(f[b+2], code, pos, what)
		f[in.c] = Value(p.Isend(a0, a1, a2).ID())
	case mpiIrecv:
		a0 := int(num(f[b], code, pos, what))
		a1 := int(num(f[b+1], code, pos, what))
		a2 := num(f[b+2], code, pos, what)
		f[in.c] = Value(p.Irecv(a0, a1, a2).ID())
	case mpiIrecvAny:
		a0 := int(num(f[b], code, pos, what))
		a1 := num(f[b+1], code, pos, what)
		f[in.c] = Value(p.IrecvAny(a0, a1).ID())
	case mpiWait:
		a0 := int(num(f[b], code, pos, what))
		f[in.c] = 0
		return p.Wait(a0)
	case mpiWaitall:
		f[in.c] = 0
		return p.Waitall()
	case mpiSendrecv:
		a0 := int(num(f[b], code, pos, what))
		a1 := int(num(f[b+1], code, pos, what))
		a2 := num(f[b+2], code, pos, what)
		a3 := int(num(f[b+3], code, pos, what))
		a4 := int(num(f[b+4], code, pos, what))
		a5 := num(f[b+5], code, pos, what)
		f[in.c] = 0
		return p.Sendrecv(a0, a1, a2, a3, a4, a5)
	case mpiBarrier:
		f[in.c] = 0
		return p.Barrier()
	case mpiBcast:
		a0 := int(num(f[b], code, pos, what))
		a1 := num(f[b+1], code, pos, what)
		f[in.c] = 0
		return p.Bcast(a0, a1)
	case mpiReduce:
		a0 := int(num(f[b], code, pos, what))
		a1 := num(f[b+1], code, pos, what)
		f[in.c] = 0
		return p.Reduce(a0, a1)
	case mpiAllreduce:
		a0 := num(f[b], code, pos, what)
		f[in.c] = 0
		return p.Allreduce(a0)
	case mpiAlltoall:
		a0 := num(f[b], code, pos, what)
		f[in.c] = 0
		return p.Alltoall(a0)
	case mpiAllgather:
		a0 := num(f[b], code, pos, what)
		f[in.c] = 0
		return p.Allgather(a0)
	default:
		panic(fmt.Sprintf("vm: unhandled MPI builtin %q", mpiNames[o]))
	}
	return true
}

// print mirrors interp's evalPrint output format; with a nil Stdout the
// arguments were still evaluated by the preceding instructions.
func (m *machine) print(p *mpisim.Proc, code *Code, f []Value, in instr) {
	f[in.b] = 0
	if m.r.Stdout == nil {
		return
	}
	spec := &code.prints[in.a]
	out := fmt.Sprintf("[rank %d]", p.Rank)
	for _, part := range spec.parts {
		if part.isStr {
			out += " " + part.str
		} else {
			out += " " + f[part.reg].format(code.fns)
		}
	}
	fmt.Fprintln(m.r.Stdout, out)
}
