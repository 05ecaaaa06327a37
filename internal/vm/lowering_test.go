package vm

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scalana/internal/apps"
	"scalana/internal/ir"
	"scalana/internal/minilang"
	"scalana/internal/psg"
)

// TestLoweringAgreesWithIR cross-checks the bytecode of every bundled app
// and every case of the committed synth corpus against internal/ir's
// lowering of the same functions (verifyLowering). FuzzVMvsInterp runs the
// same check on each program it compiles.
func TestLoweringAgreesWithIR(t *testing.T) {
	for file, p := range bundledPrograms(t, psg.DefaultOptions()) {
		if err := VerifyLowering(p); err != nil {
			t.Errorf("%s: %v", file, err)
		}
	}
}

// TestEverySiteHasAVertex: no attribution site of any bundled program or
// committed corpus case is contracted away in any instance, under the
// default options, the shallowest loop depth, or no contraction —
// Compile, which bundledPrograms calls, fails on such a site. That is why
// an if statement needs no context move after its condition
// (branchUnless). FuzzVMvsInterp compiles each program it generates too.
// The check is not vacuous: linked against another program's PSG, a
// site has no vertex and Compile names it.
func TestEverySiteHasAVertex(t *testing.T) {
	for _, opts := range []psg.Options{psg.DefaultOptions(), {MaxLoopDepth: 1, Contract: true}, {MaxLoopDepth: 10}} {
		bundledPrograms(t, opts)
	}
	prog := apps.Get("cg").MustParse()
	other := minilang.MustParse("other.mp", "func main() { mpi_barrier(); }")
	_, err := Compile(prog, psg.MustBuild(other))
	if err == nil || !strings.Contains(err.Error(), "vm: main: attribution site") || !strings.Contains(err.Error(), "has no vertex in instance main") {
		t.Errorf("Compile against another program's PSG: %v, want a site with no vertex", err)
	}
}

// bundledPrograms compiles every bundled app and every case of the
// committed synth corpus over PSGs built with opts, by file name.
func bundledPrograms(t *testing.T, opts psg.Options) map[string]*Program {
	t.Helper()
	var files, srcs []string
	for _, name := range apps.Names() {
		files, srcs = append(files, name+".mp"), append(srcs, apps.Get(name).Source)
	}
	data, err := os.ReadFile(filepath.Join("..", "synth", "testdata", "corpus-seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var corpus struct {
		Cases []struct{ Name, Source string }
	}
	if err := json.Unmarshal(data, &corpus); err != nil {
		t.Fatal(err)
	}
	if len(corpus.Cases) == 0 {
		t.Fatal("the committed corpus has no case")
	}
	for _, c := range corpus.Cases {
		files, srcs = append(files, c.Name+".mp"), append(srcs, c.Source)
	}
	progs := make(map[string]*Program, len(files))
	for i, file := range files {
		prog, err := minilang.Parse(file, srcs[i])
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		graph, err := psg.Build(prog, opts)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		p, err := Compile(prog, graph)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		progs[file] = p
	}
	return progs
}

// TestLoweringCheckCatchesADroppedOp: the cross-check is not vacuous. A
// function whose bytecode lost one MPI operation disagrees with its IR.
func TestLoweringCheckCatchesADroppedOp(t *testing.T) {
	prog := apps.Get("cg").MustParse()
	p, err := Compile(prog, psg.MustBuild(prog))
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range prog.Funcs {
		code := *p.codes[fn.Name]
		code.instrs = append([]instr(nil), code.instrs...)
		for i, in := range code.instrs {
			if in.op == opMPI {
				code.instrs[i].op = opNop
				err := verifyLowering(fn, &code)
				if err == nil || !strings.Contains(err.Error(), "disagrees with ir CFG") {
					t.Fatalf("%s with instruction %d dropped: %v, want a disagreement", fn.Name, i, err)
				}
				return
			}
		}
	}
	t.Fatal("cg has no MPI operation")
}

// VerifyLowering cross-checks every function of p against its internal/ir
// lowering. The package's external tests call it on what they compile.
func VerifyLowering(p *Program) error {
	for _, fn := range p.prog.Funcs {
		if err := verifyLowering(fn, p.codes[fn.Name]); err != nil {
			return err
		}
	}
	return nil
}

// verifyLowering cross-checks a function's bytecode against the
// internal/ir lowering of the same function: the reachable call-like
// instruction counts (direct, indirect, MPI, compute) and the natural
// loop count must agree between the CFG and the bytecode. The two
// lowerings are written independently, so agreement catches whole
// classes of compiler bugs (dropped calls, mis-wired loop back edges)
// that would otherwise show only as event-stream divergence.
func verifyLowering(fn *minilang.FuncDecl, code *Code) error {
	cfg := ir.Lower(fn)
	dt := ir.ComputeDominators(cfg)

	var irCalls, irInd, irMPI, irCompute int
	for _, b := range cfg.Blocks {
		if !dt.Reachable(b.ID) {
			continue
		}
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpCall:
				irCalls++
			case ir.OpIndirectCall:
				irInd++
			case ir.OpMPI:
				irMPI++
			case ir.OpCompute:
				irCompute++
			}
		}
	}
	irLoops := len(ir.FindLoops(cfg, dt))

	reach := reachableInstrs(code)
	var bcCalls, bcInd, bcMPI, bcCompute int
	backTargets := map[int32]bool{}
	for i, in := range code.instrs {
		if !reach[i] {
			continue
		}
		switch in.op {
		case opCall:
			bcCalls++
		case opCallInd:
			bcInd++
		case opMPI:
			bcMPI++
		case opCompute:
			bcCompute++
		case opJmp:
			if in.a <= int32(i) {
				backTargets[in.a] = true
			}
		}
	}
	bcLoops := len(backTargets)

	if irCalls != bcCalls || irInd != bcInd || irMPI != bcMPI || irCompute != bcCompute || irLoops != bcLoops {
		return fmt.Errorf("vm: lowering of %s disagrees with ir CFG: "+
			"calls %d/%d, indirect %d/%d, mpi %d/%d, compute %d/%d, loops %d/%d (bytecode/ir)",
			fn.Name, bcCalls, irCalls, bcInd, irInd, bcMPI, irMPI, bcCompute, irCompute, bcLoops, irLoops)
	}
	return nil
}

// reachableInstrs marks the bytecode instructions reachable from entry,
// so dead code (statements after a return) is excluded from the
// comparison exactly as ir's lowering drops it.
func reachableInstrs(code *Code) []bool {
	reach := make([]bool, len(code.instrs))
	stack := []int32{0}
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for pc < int32(len(code.instrs)) && !reach[pc] {
			reach[pc] = true
			in := code.instrs[pc]
			switch in.op {
			case opJmp:
				pc = in.a
			case opJmpFalse, opJmpTrue:
				stack = append(stack, in.b)
				pc++
			case opJmpUnlessEq, opJmpUnlessNe, opJmpUnlessLt, opJmpUnlessLe, opJmpUnlessGt, opJmpUnlessGe:
				stack = append(stack, in.c)
				pc++
			case opRet:
				pc = int32(len(code.instrs))
			default:
				pc++
			}
		}
	}
	return reach
}
