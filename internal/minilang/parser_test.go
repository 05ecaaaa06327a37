package minilang

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

func parseOK(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Parse("t.mp", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

func parseErr(t *testing.T, src, wantSubstr string) {
	t.Helper()
	_, err := Parse("t.mp", src)
	if err == nil {
		t.Fatalf("expected error containing %q, got nil", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("error %q does not contain %q", err.Error(), wantSubstr)
	}
}

func TestParseAllStatementForms(t *testing.T) {
	prog := parseOK(t, `
func helper(a, b) {
	return a + b;
}
func main() {
	var x = 1;
	x = 2;
	var a = alloc(4);
	a[0] = x;
	a[x] = a[0] + 1;
	if (x > 0) { x = 3; } else { x = 4; }
	if (x > 0) { x = 5; } else if (x < 0) { x = 6; } else { x = 7; }
	for (var i = 0; i < 3; i = i + 1) { x = x + i; }
	for (; x < 100;) { x = x * 2; }
	while (x > 50) { x = x - 1; break; }
	for (var j = 0; j < 2; j = j + 1) { continue; }
	{ var scoped = 9; x = scoped; }
	helper(x, 1);
	return;
}
`)
	if prog.Func("main") == nil || prog.Func("helper") == nil {
		t.Fatal("functions missing")
	}
	if prog.nodes < 40 {
		t.Errorf("expected a rich AST, got %d nodes", prog.nodes)
	}
}

func TestParsePrecedence(t *testing.T) {
	prog := parseOK(t, `func main() { var x = 1 + 2 * 3 - 4 / 2; var y = 1 < 2 && 3 > 2 || !(1 == 2); }`)
	body := prog.Func("main").Body.Stmts
	x := body[0].(*VarDecl).Init.(*BinaryExpr)
	// (1 + 2*3) - (4/2): top node is '-'
	if x.Op != TokMinus {
		t.Errorf("top op = %v, want -", x.Op)
	}
	l := x.L.(*BinaryExpr)
	if l.Op != TokPlus {
		t.Errorf("left op = %v, want +", l.Op)
	}
	if l.R.(*BinaryExpr).Op != TokStar {
		t.Errorf("1 + 2*3 shape wrong")
	}
	y := body[1].(*VarDecl).Init.(*BinaryExpr)
	if y.Op != TokOrOr {
		t.Errorf("logical top = %v, want ||", y.Op)
	}
}

func TestParseUnaryAndFuncRef(t *testing.T) {
	prog := parseOK(t, `
func f(x) { return 0 - x; }
func main() { var g = &f; var v = -g(3) + !0; }
`)
	main := prog.Func("main").Body.Stmts
	ref := main[0].(*VarDecl).Init.(*FuncRefExpr)
	if ref.Name != "f" {
		t.Errorf("func ref name = %q", ref.Name)
	}
	call := main[1].(*VarDecl).Init.(*BinaryExpr).L.(*UnaryExpr).X.(*CallExpr)
	if !call.Indirect {
		t.Error("g(3) should be an indirect call")
	}
}

// TestAddressTaken: Check records every &name it visits, wherever the
// expression sits, as one sorted list without repeats; a program that
// takes no address records none.
func TestAddressTaken(t *testing.T) {
	prog := parseOK(t, `
func f() { return 0; }
func g() { return 1; }
func h() { return 2; }
func k(x) { return x; }
func m() { return &g; }
func main() {
	var a = alloc(4);
	var x = a[&h];
	for (var i = 0; i < 1; i = &f) { x = 0; }
	if (&k == &k) { x = 1; }
	k(&f);
}
`)
	if got, want := strings.Join(prog.AddressTaken, ","), "f,g,h,k"; got != want {
		t.Errorf("AddressTaken = %q, want %q", got, want)
	}
	prog = parseOK(t, `
func f() { return 0; }
func main() { var y = f(); }
`)
	if len(prog.AddressTaken) != 0 {
		t.Errorf("AddressTaken = %q, want none", prog.AddressTaken)
	}
}

func TestParseNestedCalls(t *testing.T) {
	prog := parseOK(t, `func main() { var v = max(min(1, 2), abs(0 - 3)); }`)
	call := prog.Func("main").Body.Stmts[0].(*VarDecl).Init.(*CallExpr)
	if call.Name != "max" || len(call.Args) != 2 {
		t.Fatalf("outer call wrong: %v", call.Name)
	}
	if call.Args[0].(*CallExpr).Name != "min" {
		t.Error("nested min missing")
	}
}

func TestParseErrors(t *testing.T) {
	parseErr(t, `func main() { var x = ; }`, "expected expression")
	parseErr(t, `func main() { x = 1; }`, "undeclared")
	parseErr(t, `func main() { var x = 1 }`, "expected ;")
	parseErr(t, `func main( { }`, "expected")
	parseErr(t, `func f() {} func f() {} func main() {}`, "redeclared")
	parseErr(t, `func f(a, a) { return a; } func main() { f(1, 2); }`, "duplicate parameter")
	parseErr(t, `var x = 3;`, "expected func")
	parseErr(t, `func main() { break; }`, "break outside loop")
	parseErr(t, `func main() { continue; }`, "continue outside loop")
	parseErr(t, `func helper() {}`, "no main function")
	parseErr(t, `func main(x) {}`, "main must take no parameters")
	parseErr(t, `func main() { nosuch(1); }`, "undefined function")
	parseErr(t, `func main() { var y = sqrt(1, 2); }`, "expects 1 arguments")
	parseErr(t, `func f(a) { return a; } func main() { f(); }`, "expects 1 arguments")
	parseErr(t, `func main() { var s = sqrt("hi"); }`, "string literal")
	parseErr(t, `func main() { var x = &nosuch; }`, "no such function")
	parseErr(t, `func main() { var x = 1; var x = 2; }`, "redeclared in this scope")
}

func TestParseShadowingAllowedAcrossScopes(t *testing.T) {
	parseOK(t, `
func main() {
	var x = 1;
	if (x > 0) {
		var x = 2;
		x = x + 1;
	}
}
`)
}

// TestScopesCloseAndRestoreShadowed: closing a scope drops its names and
// brings back the ones they shadowed, so a name is redeclared only within
// its own scope and is undeclared once its scope has closed.
func TestScopesCloseAndRestoreShadowed(t *testing.T) {
	parseOK(t, `
func f(a, b) { var a = b; { var a = 1; var b = a; } return a + b; }
func main() {
	var x = 1;
	{ var x = 2; { var x = x + 1; } x = 4; }
	x = 5;
	for (var i = 0; i < 2; i = i + 1) { var i = 7; }
	var i = f(x, 2);
}
`)
	parseErr(t, `func main() { { var z = 1; } z = 2; }`, `t.mp:1:30: assignment to undeclared variable "z"`)
	parseErr(t, `func main() { var x = 1; { var x = 2; } var x = 3; }`, `t.mp:1:41: variable "x" redeclared in this scope`)
	parseErr(t, `func main() { for (var i = 0; i < 2; i = i + 1) { } i = 1; }`, `undeclared variable "i"`)
	parseErr(t, `func main() { var y = y; }`, `undeclared variable "y"`)
}

// TestWideScopeChecksInLinearTime: a declaration and a use each cost the
// checker a map operation, not a scan of the open bindings, so n
// declarations, each reading the first, check about as fast in one scope
// as in blocks of ten, where a scan makes the one scope over fifteen
// times slower at this n.
func TestWideScopeChecksInLinearTime(t *testing.T) {
	const n = 20_000
	parse := func(src string) func() {
		return func() {
			if _, err := Parse("wide.mp", src); err != nil {
				t.Fatal(err)
			}
		}
	}
	wide, narrow := fastest(parse(declarations(n, n))), fastest(parse(declarations(n, 10)))
	if ratio := float64(wide) / float64(narrow); ratio > 8 {
		t.Errorf("parsing %d declarations in one scope takes %v, %.1f times the %v in blocks of ten", n, wide, ratio, narrow)
	}
}

// declarations returns a main of n declarations, each but the first
// reading the first, in blocks of width.
func declarations(n, width int) string {
	var b strings.Builder
	b.WriteString("func main() {\n\tvar a0 = 0;\n\t{\n")
	for i := 1; i < n; i++ {
		if i%width == 0 {
			b.WriteString("\t}\n\t{\n")
		}
		fmt.Fprintf(&b, "\t\tvar a%d = a0;\n", i)
	}
	b.WriteString("\t}\n}\n")
	return b.String()
}

// fastest returns the least of five timings of f.
func fastest(f func()) time.Duration {
	least := time.Duration(math.MaxInt64)
	for range 5 {
		start := time.Now()
		f()
		least = min(least, time.Since(start))
	}
	return least
}

func TestNodeIDsUnique(t *testing.T) {
	prog := parseOK(t, `
func main() {
	var total = 0;
	for (var i = 0; i < 10; i = i + 1) {
		if (i % 2 == 0) { total = total + i; }
	}
}
`)
	seen := map[NodeID]bool{}
	var walkStmt func(s Stmt)
	var walkExpr func(e Expr)
	check := func(n Node) {
		if seen[n.ID()] {
			t.Errorf("duplicate node ID %d (%T)", n.ID(), n)
		}
		seen[n.ID()] = true
	}
	walkExpr = func(e Expr) {
		check(e)
		switch x := e.(type) {
		case *BinaryExpr:
			walkExpr(x.L)
			walkExpr(x.R)
		case *UnaryExpr:
			walkExpr(x.X)
		case *CallExpr:
			for _, a := range x.Args {
				walkExpr(a)
			}
		case *IndexExpr:
			walkExpr(x.Idx)
		}
	}
	walkStmt = func(s Stmt) {
		check(s)
		switch st := s.(type) {
		case *VarDecl:
			walkExpr(st.Init)
		case *AssignStmt:
			if st.Idx != nil {
				walkExpr(st.Idx)
			}
			walkExpr(st.Val)
		case *IfStmt:
			walkExpr(st.Cond)
			walkStmt(st.Then)
			if st.Else != nil {
				walkStmt(st.Else)
			}
		case *ForStmt:
			if st.Init != nil {
				walkStmt(st.Init)
			}
			if st.Cond != nil {
				walkExpr(st.Cond)
			}
			if st.Post != nil {
				walkStmt(st.Post)
			}
			walkStmt(st.Body)
		case *Block:
			for _, inner := range st.Stmts {
				walkStmt(inner)
			}
		}
	}
	for _, fn := range prog.Funcs {
		check(fn)
		walkStmt(fn.Body)
	}
}

func TestSourceLine(t *testing.T) {
	src := "line one\nline two\nline three"
	prog := &Program{Source: src}
	if got := prog.SourceLine(2); got != "line two" {
		t.Errorf("line 2 = %q", got)
	}
	if got := prog.SourceLine(3); got != "line three" {
		t.Errorf("line 3 = %q", got)
	}
	if got := prog.SourceLine(0); got != "" {
		t.Errorf("line 0 = %q", got)
	}
	if got := prog.SourceLine(99); got != "" {
		t.Errorf("line 99 = %q", got)
	}
}

func TestMustParsePanicsOnBadSource(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on invalid source")
		}
	}()
	MustParse("bad.mp", "func main( {")
}

func TestParsePositionsPointAtSource(t *testing.T) {
	prog := parseOK(t, "func main() {\n\tvar x = 1;\n\tx = 2;\n}")
	stmts := prog.Func("main").Body.Stmts
	if stmts[0].Pos().Line != 2 {
		t.Errorf("var decl at line %d, want 2", stmts[0].Pos().Line)
	}
	if stmts[1].Pos().Line != 3 {
		t.Errorf("assign at line %d, want 3", stmts[1].Pos().Line)
	}
}

// TestLexErrorsAreBounded: the lexer formats only the errors Parse can
// show and counts the rest, while the error text is what it was: the
// first 20 errors, then the count of the rest. An unexpected character is
// counted before its rune is boxed for formatting, and a number literal
// ParseFloat rejects whatever its value (an exponent with no digit, a
// non-ASCII digit) without calling ParseFloat. So 100,000 of either
// allocate a few hundred objects (30 MB in 800,000 objects when each
// '@' was formatted, 100,000 objects for '€' and 300,000 for " 1e" when
// each was boxed or parsed). The characters stay under 1 MB; the number
// literals' bytes are their 100,000 tokens. The count also meets the
// parser's 200-error cap as before: 150 lexical errors leave room for 51
// syntax errors, and a token stream that is all numbers adds the one
// syntax error that hits the cap.
func TestLexErrorsAreBounded(t *testing.T) {
	shown := func(line func(i int) string, n int) string {
		lines := make([]string, 20)
		for i := range lines {
			lines[i] = line(i)
		}
		return strings.Join(lines, "\n") + fmt.Sprintf("\n... and %d more errors", n)
	}
	char := func(c string) func(i int) string {
		return func(i int) string { return fmt.Sprintf("t.mp:1:%d: unexpected character '%s'", i+1, c) }
	}
	badExp := func(i int) string {
		return fmt.Sprintf(`t.mp:1:%d: bad number literal "1e": strconv.ParseFloat: parsing "1e": invalid syntax`, 3*i+2)
	}
	for _, tc := range []struct {
		unit     string
		line     func(i int) string
		more     int
		maxBytes uint64
	}{
		{"@", char("@"), 99980, 1 << 20},
		{"€", char("€"), 99980, 1 << 20},
		{" 1e", badExp, 99981, 0},
	} {
		src := strings.Repeat(tc.unit, 100000) + "func main() {}"
		if _, err := Parse("t.mp", src); err == nil || err.Error() != shown(tc.line, tc.more) {
			t.Errorf("100,000 %q: %.200v..., want 20 errors and %d more", tc.unit, err, tc.more)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Parse("t.mp", src); err == nil {
			t.Fatal("no error")
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n >= 1000 {
			t.Errorf("parsing 100,000 %q allocated %d objects, want under 1,000", tc.unit, n)
		}
		if n := after.TotalAlloc - before.TotalAlloc; tc.maxBytes > 0 && n >= tc.maxBytes {
			t.Errorf("parsing 100,000 %q allocated %d bytes, want under %d", tc.unit, n, tc.maxBytes)
		}
	}
	capped := strings.Repeat("@", 150) + "func main() {}" + strings.Repeat(" x", 100)
	if _, err := Parse("t.mp", capped); err == nil || err.Error() != shown(char("@"), 181) {
		t.Errorf("150 lexical errors then 100 stray tokens: %.200v..., want 20 errors and 181 more", err)
	}
}
