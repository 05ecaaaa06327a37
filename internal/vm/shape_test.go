package vm

import (
	"slices"
	"testing"

	"scalana/internal/apps"
	"scalana/internal/minilang"
	"scalana/internal/psg"
)

// compileSource compiles src and returns the bytecode of its function fn.
func compileSource(t *testing.T, src, fn string) *Code {
	t.Helper()
	prog, err := minilang.Parse("shape.mp", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(prog, psg.MustBuild(prog))
	if err != nil {
		t.Fatal(err)
	}
	return p.codes[fn]
}

// loopBody returns the instructions one iteration of code's only loop
// runs: from the back jump's target through the back jump.
func loopBody(t *testing.T, code *Code) []instr {
	t.Helper()
	for i, in := range code.instrs {
		if in.op == opJmp && int(in.a) <= i {
			return code.instrs[in.a : i+1]
		}
	}
	t.Fatal("no back jump")
	return nil
}

func opsOf(instrs []instr) []op {
	ops := make([]op, len(instrs))
	for i, in := range instrs {
		ops[i] = in.op
	}
	return ops
}

// TestLoopIterationShape: an iteration of bval3d's loop — the loop that is
// over half of what a zeusmp rank dispatches — runs a prologue a
// statement, one fused compare-and-branch, one compute that reads its
// literal operands where they stand, one add whose literal is a register,
// and the back jump: 7 instructions, where it ran 20 (4 context moves, 3
// glue charges, 3 number checks and 5 constant loads besides). The bound
// the dispatch ledger holds the VM to is 11.
func TestLoopIterationShape(t *testing.T) {
	const loop = `func main() {
	var n = 72;
	for (var j = 0; j < n; j = j + 1) {
		compute(4.5e5, 2.2e5, 1.1e5, 262144);
	}
}
`
	want := []op{opStmt, opJmpUnlessLt, opStmt, opCompute, opStmt, opAdd, opJmp}
	for name, code := range map[string]*Code{
		"the bval3d-shaped loop": compileSource(t, loop, "main"),
		"zeusmp's bval3d":        compileSource(t, apps.Get("zeusmp").Source, "bval3d"),
	} {
		body := loopBody(t, code)
		if got := opsOf(body); len(got) > 11 || !slices.Equal(got, want) {
			t.Errorf("%s: an iteration runs %d instructions %v, want at most 11: %v", name, len(got), got, want)
		}
	}
}

// TestStatementPrologueIsOneInstruction: a statement that charges glue
// begins with one opStmt, not a context move and a glue charge; a
// statement that charges none (return a;) begins with no context move;
// nothing emits a context move just before a compute or an MPI operation,
// which carry
// their own; and a variable or literal right operand gets no number
// check of its own.
func TestStatementPrologueIsOneInstruction(t *testing.T) {
	code := compileSource(t, `func main() {
	var a = mpi_rank();
	a = a + 1;
	a = a * a;
	mpi_allreduce(a);
	compute(a, 1, 1, 64);
	if (a) { a = 2; }
	while (a > 1) { a = a - 1; }
	return a;
}
`, "main")
	want := []op{
		opStmt, opRank, // var a = mpi_rank();
		opStmt, opAdd, // a = a + 1;
		opStmt, opMul, // a = a * a;
		opStmt, opMPI, // mpi_allreduce(a);
		opStmt, opCompute, // compute(a, 1, 1, 64);
		opStmt, opJmpFalse, opStmt, opConst, // if (a) { a = 2; }
		opStmt, opJmpUnlessGt, opStmt, opSub, opJmp, // while (a > 1) { a = a - 1; }
		opRet, // return a;
		opRet,
	}
	if got := opsOf(code.instrs); !slices.Equal(got, want) {
		t.Errorf("main compiles to\n%v, want\n%v", got, want)
	}
}
