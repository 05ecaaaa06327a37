package vm

import (
	"fmt"
	"math"

	"scalana/internal/minilang"
)

// Value is a MiniMP runtime value in one pointer-free word: a number, or a
// reference boxed into NaN space — bits 62..50 all set, bit 48 the kind,
// the low 48 bits the payload: a function's index in the Program's name
// table, or an array's offset<<24 | length in its rank's heap. Every other
// word is a number, the host's NaNs included: none has bit 50 set, and no
// arithmetic reads a box, so none makes one (DESIGN.md §10). The zero Value
// is the number 0.
type Value float64

const (
	boxBits  = 0x7FFC << 48 // bits 62..50
	kindMask = 0xFFFF << 48
	kindFn   = 0x7FFC << 48
	kindArr  = 0x7FFD << 48
	arrBits  = 24 // an array box's offset and length fields
	arrMask  = 1<<arrBits - 1
)

const _ = uint(arrMask - MaxArrayElems) // an offset or a length fits its field

func (v Value) bits() uint64 { return math.Float64bits(float64(v)) }

// IsNum reports whether v is a plain number.
func (v Value) IsNum() bool { return v.bits()&boxBits != boxBits }

func (v Value) isFn() bool  { return v.bits()&kindMask == kindFn }
func (v Value) isArr() bool { return v.bits()&kindMask == kindArr }
func (v Value) fnID() int   { return int(v.bits() &^ kindMask) }
func (v Value) arrLen() int { return int(v.bits() & arrMask) }

// fnRef boxes function id; arrRef boxes the array of n elements at off.
func fnRef(id int32) Value { return Value(math.Float64frombits(kindFn | uint64(id))) }
func arrRef(off, n int) Value {
	return Value(math.Float64frombits(kindArr | uint64(off)<<arrBits | uint64(n)))
}

// format prints v as MiniMP does; fns names the function references.
func (v Value) format(fns []string) string {
	switch {
	case v.isFn():
		return "&" + fns[v.fnID()]
	case v.isArr():
		return fmt.Sprintf("array[%d]", v.arrLen())
	default:
		return fmt.Sprintf("%g", float64(v))
	}
}

// op is a bytecode opcode. The set is deliberately close to the
// interpreter's evaluation steps: every point where the tree-walker
// charges glue, moves the attribution context, or converts a value has a
// corresponding instruction, which is what makes the two paths emit
// byte-identical event streams.
type op uint8

const (
	opNop op = iota

	// Values and moves.
	opConst // R[a] = consts[b]
	opMove  // R[a] = R[b]

	// Attribution and accounting.
	opSetCtx // p.Ctx = link.ctx[a] unless nil
	opGlue   // charge glueIns abstract instructions

	// Control flow.
	opJmp      // pc = a
	opJmpFalse // if !truthy(R[a]) pc = b (num check, "condition")
	opJmpTrue  // if truthy(R[a]) pc = b (num check, "condition")
	opRet      // return R[a]; a < 0 returns 0

	// Checks. opChkNum verifies R[a] is a number with message whats[b];
	// it lets binary operators convert their left operand before the
	// right operand is evaluated, exactly like the interpreter.
	opChkNum

	// Unary and binary arithmetic/comparison: R[c] = R[a] op R[b].
	// Operands were verified numeric by opChkNum (or are statically
	// numeric), so these read the word as a float64 directly.
	opNeg // R[b] = -num(R[a], "operand")
	opNot // R[b] = bool(num(R[a], "operand") == 0)
	opBool
	opAdd
	opSub
	opMul
	opDiv // division-by-zero check
	opMod // modulo-by-zero check
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe

	// Arrays. opArrChk verifies R[a] holds an array (d names it for the
	// error); opIdxChk converts and bounds-checks R[b] against R[a]
	// before an element store evaluates its right-hand side, matching
	// the interpreter's check-before-eval order.
	opArrChk
	opLoadIdx  // R[c] = R[a][int(num(R[b], "index"))], bounds-checked
	opIdxChk   // convert + bounds-check R[b] against R[a]
	opStoreIdx // R[a][int(R[b])] = num(R[c], "array element")
	opAlloc    // R[b] = alloc(int(num(R[a], "alloc argument")))
	opLen      // R[b] = len(R[a])

	// Builtins.
	opMath1 // R[b] = mathFns1[d](num(R[a], name+" argument"))
	opMath2 // R[c] = mathFns2[d](num(R[a]), num(R[b]))
	opRand  // R[a] = p.Rand()
	opRank  // R[a] = rank
	opSize  // R[a] = np
	opCompute
	opMPI   // mpi op d, args R[a..], result R[c]
	opPrint // spec prints[a], result R[b] = 0

	// Calls.
	opCall    // site a, argBase b, dst c
	opCallInd // site a, argBase b, dst c, callee ref in R[d]

	// opStrPanic reproduces the interpreter's "string literal outside
	// print" runtime panic (unreachable after checking).
	opStrPanic
)

// instr is one bytecode instruction. Operand meaning is per-opcode (see
// the op constants); pos indexes Code.poss for error positions.
type instr struct {
	op         op
	a, b, c, d int32
	pos        int32
}

// whats are the operand-role strings used in conversion errors, indexed
// by opChkNum's b operand.
var whats = [...]string{"left operand", "right operand", "condition"}

const (
	whatLeft int32 = iota
	whatRight
	whatCond
)

// mathFn identifies a math builtin for opMath1/opMath2.
type mathFn int32

const (
	mathSqrt mathFn = iota
	mathLog
	mathLog2
	mathExp
	mathFloor
	mathCeil
	mathAbs
	mathMin
	mathMax
	mathPow
)

var mathNames = [...]string{"sqrt", "log", "log2", "exp", "floor", "ceil", "abs", "min", "max", "pow"}

// mpiOp identifies an MPI builtin for opMPI.
type mpiOp int32

const (
	mpiSend mpiOp = iota
	mpiRecv
	mpiRecvAny
	mpiIsend
	mpiIrecv
	mpiIrecvAny
	mpiWait
	mpiWaitall
	mpiSendrecv
	mpiBarrier
	mpiBcast
	mpiReduce
	mpiAllreduce
	mpiAlltoall
	mpiAllgather
)

var mpiNames = [...]string{
	"mpi_send", "mpi_recv", "mpi_recv_any", "mpi_isend", "mpi_irecv",
	"mpi_irecv_any", "mpi_wait", "mpi_waitall", "mpi_sendrecv",
	"mpi_barrier", "mpi_bcast", "mpi_reduce", "mpi_allreduce",
	"mpi_alltoall", "mpi_allgather",
}

var mpiOpByName = func() map[string]mpiOp {
	m := make(map[string]mpiOp, len(mpiNames))
	for i, n := range mpiNames {
		m[n] = mpiOp(i)
	}
	return m
}()

// printPart is one piece of a print() call: a literal string or the
// register holding an evaluated argument.
type printPart struct {
	str   string
	reg   int32
	isStr bool
}

// printSpec is the compiled form of one print() call.
type printSpec struct {
	parts []printPart
}

// callSite is one direct call site; the per-instance Link resolves its
// index to the callee Link.
type callSite struct {
	node   minilang.NodeID
	callee string
	argc   int32
	pos    minilang.Pos
}

// indSite is one indirect call site.
type indSite struct {
	node    minilang.NodeID
	varName string // the variable holding the function reference
	argc    int32
	pos     minilang.Pos
}

// Code is the compiled bytecode of one function. It is shared by every
// psg.Instance of the function; anything instance-specific (attribution
// vertices, callee instances) lives in the Link side tables, indexed by
// the site indices the instructions carry.
type Code struct {
	fn     *minilang.FuncDecl
	instrs []instr
	consts []Value
	poss   []minilang.Pos
	names  []string // variable names for array errors
	fns    []string // the Program's function names, by function id

	// ctxNodes are the attribution sites (opSetCtx's a indexes it).
	ctxNodes []minilang.NodeID
	// calls and indirects are the call-site tables (opCall/opCallInd's a).
	calls     []callSite
	indirects []indSite
	prints    []printSpec

	// nSlots is the frame size: parameters, locals, and temporaries.
	nSlots int32
}
