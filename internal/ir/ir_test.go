package ir

import (
	"testing"

	"scalana/internal/minilang"
)

func lowerMain(t *testing.T, src string) *Func {
	t.Helper()
	prog, err := minilang.Parse("t.mp", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Lower(prog.Func("main"))
}

func TestLowerStraightLine(t *testing.T) {
	fn := lowerMain(t, `func main() { var x = 1; var y = x + 2; }`)
	if len(fn.Blocks[0].Instrs) != 2 {
		t.Errorf("entry block has %d instrs, want 2", len(fn.Blocks[0].Instrs))
	}
	if len(fn.Blocks[0].Succs) != 1 || fn.Blocks[0].Succs[0] != fn.Exit {
		t.Error("entry should flow to exit")
	}
}

func TestLowerIfElseDiamond(t *testing.T) {
	fn := lowerMain(t, `func main() { var x = 1; if (x > 0) { x = 2; } else { x = 3; } x = 4; }`)
	entry := fn.Blocks[0]
	if len(entry.Succs) != 2 {
		t.Fatalf("cond block has %d successors, want 2", len(entry.Succs))
	}
	thenB, elseB := entry.Succs[0], entry.Succs[1]
	if thenB.Kind != BlockThen {
		t.Errorf("first successor kind = %v", thenB.Kind)
	}
	if elseB.Kind != BlockElse {
		t.Errorf("second successor kind = %v", elseB.Kind)
	}
	if thenB.Succs[0] != elseB.Succs[0] {
		t.Error("then/else must merge")
	}
}

func TestLowerForLoopShape(t *testing.T) {
	fn := lowerMain(t, `func main() { for (var i = 0; i < 3; i = i + 1) { var y = i; } }`)
	var head *Block
	for _, b := range fn.Blocks {
		if b.Kind == BlockLoopHead {
			head = b
		}
	}
	if head == nil {
		t.Fatal("no loop head block")
	}
	if head.LoopNode == nil {
		t.Error("loop head lacks its AST node")
	}
	// The head must have a back-edge predecessor (the post block).
	hasBack := false
	for _, p := range head.Preds {
		if p.Kind == BlockLoopPost {
			hasBack = true
		}
	}
	if !hasBack {
		t.Error("loop head has no back edge from the post block")
	}
}

func TestLowerBreakContinue(t *testing.T) {
	fn := lowerMain(t, `
func main() {
	for (var i = 0; i < 9; i = i + 1) {
		if (i == 2) { continue; }
		if (i == 5) { break; }
		var y = i;
	}
}`)
	// All blocks reachable except none; just verify dominators compute and
	// exactly one natural loop is found.
	dt := ComputeDominators(fn)
	loops := FindLoops(fn, dt)
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
}

func TestLowerReturnMakesCodeUnreachable(t *testing.T) {
	fn := lowerMain(t, `func main() { return; var x = 1; }`)
	dt := ComputeDominators(fn)
	n := 0
	for _, b := range fn.Blocks {
		if b.Kind != BlockExit && dt.Reachable(b.ID) {
			n += len(b.Instrs)
		}
	}
	// only the return instruction is reachable
	if n != 1 {
		t.Errorf("%d reachable instructions, want 1", n)
	}
}

func TestDominatorsDiamond(t *testing.T) {
	fn := lowerMain(t, `func main() { var x = 1; if (x > 0) { x = 2; } else { x = 3; } x = 4; }`)
	dt := ComputeDominators(fn)
	entry := fn.Blocks[0]
	for _, b := range fn.Blocks {
		if dt.Reachable(b.ID) && !dt.Dominates(entry.ID, b.ID) {
			t.Errorf("entry must dominate block %d", b.ID)
		}
	}
	// The merge block's immediate dominator is the condition block.
	var merge *Block
	for _, b := range fn.Blocks {
		if b.Kind == BlockMerge {
			merge = b
		}
	}
	if dt.idom[merge.ID] != entry.ID {
		t.Errorf("idom(merge) = %d, want %d", dt.idom[merge.ID], entry.ID)
	}
	// Then-block does not dominate merge.
	if dt.Dominates(entry.Succs[0].ID, merge.ID) {
		t.Error("then block must not dominate merge")
	}
}

func TestNaturalLoopNesting(t *testing.T) {
	fn := lowerMain(t, `
func main() {
	for (var i = 0; i < 2; i = i + 1) {
		for (var j = 0; j < 2; j = j + 1) {
			while (j < 1) { j = j + 1; }
		}
	}
	while (1 < 0) { var z = 0; }
}`)
	dt := ComputeDominators(fn)
	loops := FindLoops(fn, dt)
	if len(loops) != 4 {
		t.Fatalf("found %d loops, want 4", len(loops))
	}
	depths := map[int]int{}
	for _, l := range loops {
		depths[l.Depth]++
	}
	if depths[1] != 2 || depths[2] != 1 || depths[3] != 1 {
		t.Errorf("loop depth histogram = %v, want 2 at depth 1, 1 at 2, 1 at 3", depths)
	}
}

// TestCFGLoopsMatchASTLoops is the cross-check property: every natural
// loop detected in the CFG corresponds to a for/while statement, and every
// loop statement yields exactly one natural loop.
func TestCFGLoopsMatchASTLoops(t *testing.T) {
	src := `
func work(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) {
		if (i % 3 == 0) {
			for (var j = 0; j < i; j = j + 1) { s = s + j; }
		} else {
			while (s > 10) { s = s - 2; }
		}
	}
	return s;
}
func main() {
	var total = 0;
	for (var k = 0; k < 4; k = k + 1) { total = total + work(k); }
}`
	prog, err := minilang.Parse("t.mp", src)
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range prog.Funcs {
		fn := Lower(fd)
		dt := ComputeDominators(fn)
		loops := FindLoops(fn, dt)

		astLoops := countASTLoops(fd.Body)
		if len(loops) != astLoops {
			t.Errorf("%s: %d natural loops, %d AST loops", fd.Name, len(loops), astLoops)
		}
		for _, l := range loops {
			if l.Node == nil {
				t.Errorf("%s: natural loop with header %d has no AST node", fd.Name, l.Header.ID)
			}
		}
	}
}

func countASTLoops(b *minilang.Block) int {
	n := 0
	var walk func(s minilang.Stmt)
	walk = func(s minilang.Stmt) {
		switch st := s.(type) {
		case *minilang.ForStmt:
			n++
			walk(st.Body)
		case *minilang.WhileStmt:
			n++
			walk(st.Body)
		case *minilang.IfStmt:
			walk(st.Then)
			if st.Else != nil {
				walk(st.Else)
			}
		case *minilang.Block:
			for _, inner := range st.Stmts {
				walk(inner)
			}
		}
	}
	for _, s := range b.Stmts {
		walk(s)
	}
	return n
}

func TestInstrKinds(t *testing.T) {
	prog, err := minilang.Parse("t.mp", `
func helper(x) { return x; }
func main() {
	compute(1, 1, 1, 64);
	mpi_barrier();
	helper(3);
	var f = &helper;
	f(4);
	var y = sqrt(16);
}`)
	if err != nil {
		t.Fatal(err)
	}
	fn := Lower(prog.Func("main"))
	counts := map[Op]int{}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			counts[in.Op]++
		}
	}
	if counts[OpCompute] != 1 || counts[OpMPI] != 1 || counts[OpCall] != 1 || counts[OpIndirectCall] != 1 {
		t.Errorf("instruction counts = %v", counts)
	}
	// sqrt folds into OpEval; two var decls + one eval = 3 OpEval minimum.
	if counts[OpEval] < 2 {
		t.Errorf("too few OpEval: %v", counts)
	}
}

func TestNumInstrs(t *testing.T) {
	fn := lowerMain(t, `func main() { var a = 1; var b = 2; var c = a + b; }`)
	n := 0
	for _, b := range fn.Blocks {
		n += len(b.Instrs)
	}
	if n != 3 {
		t.Errorf("%d instructions, want 3", n)
	}
}
