package interp

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"scalana/internal/minilang"
	"scalana/internal/psg"
	"scalana/internal/vm"
)

// The VM boxes references into the NaN space of its one-word register; the
// oracle keeps a three-field struct. These tests hold the two to each other
// (runBoth) where the representations differ most: a program's own NaNs,
// references that travel, and the array budget.

// TestHostNaNStaysANumber: a NaN the program computes — each expression
// makes one the hardware or the math package way — is a number on both
// engines: it compares, negates, is passed, returned and stored into an
// array, and prints as %g prints it.
func TestHostNaNStaysANumber(t *testing.T) {
	for _, expr := range []string{"sqrt(0-1)", "log(0-1)", "0*exp(1000)", "exp(1000)-exp(1000)", "-sqrt(0-1)", "(0-1) % exp(1000) * sqrt(0-1)"} {
		out, _ := mustRunBoth(t, `
func id(v) { return v; }
func main() {
	var x = `+expr+`;
	if (x == x) { print("ordered"); } else { print("unordered"); }
	var a = alloc(2);
	a[1] = x;
	var y = id(a[1]);
	if (y) { print(x, x + 1, -y, !y, y < 1, y != y, min(x, 1), a[0], a[1]); }
}`, 1)
		want := "[rank 0] unordered\n[rank 0] NaN NaN NaN 0 0 1 NaN 0 NaN\n"
		if out.Stdout != want {
			t.Errorf("%s: output %q, want %q", expr, out.Stdout, want)
		}
	}
}

// TestReferencesTravel passes arrays and function references through
// calls, returns, indirect calls and — at np 4 — a frame that parks in
// mpi_recv_any with both live in it and is resumed by a send.
func TestReferencesTravel(t *testing.T) {
	const src = `
func fill(a, v) {
	for (var i = 0; i < len(a); i = i + 1) { a[i] = v + i; }
	return a;
}
func scale(a, v) {
	for (var i = 0; i < len(a); i = i + 1) { a[i] = a[i] * v; }
	return a;
}
func same(v) { return v; }
func apply(f, a, v) { return f(a, v); }
func gather(f, a, n) {
	var from = 0;
	for (var i = 0; i < n; i = i + 1) { from = from + mpi_recv_any(5, 8); }
	return apply(f, a, from);
}
func main() {
	var rank = mpi_rank();
	var f = same(&fill);
	var a = apply(f, alloc(3), 10);
	var b = same(a);
	b[2] = 40;
	var empty = alloc(0);
	print(f, a, a[0], a[1], a[2], len(b), empty, len(empty));
	f = &scale;
	if (rank == 0) {
		b = gather(f, a, mpi_size() - 1);
	} else {
		compute(1e6 * rank, 0, 0, 64);
		mpi_send(0, 5, 8);
	}
	print(f, b, a[0], a[1], a[2]);
}`
	first := func(r int) string { return fmt.Sprintf("[rank %d] &fill array[3] 10 11 40 3 array[0] 0\n", r) }
	for np, want := range map[int]string{
		1: first(0) + "[rank 0] &scale array[3] 0 0 0\n",
		4: first(0) + "[rank 0] &scale array[3] 60 66 240\n" +
			first(1) + "[rank 1] &scale array[3] 10 11 40\n" +
			first(2) + "[rank 2] &scale array[3] 10 11 40\n" +
			first(3) + "[rank 3] &scale array[3] 10 11 40\n",
	} {
		out, _ := mustRunBoth(t, src, np)
		// Ranks interleave in clock order; a rank's own lines sort as it
		// printed them.
		lines := strings.SplitAfter(out.Stdout, "\n")
		sort.Strings(lines)
		if got := strings.Join(lines, ""); got != want {
			t.Errorf("np=%d: output by rank %q, want %q", np, got, want)
		}
		if last := out.Indirect[len(out.Indirect)-1]; out.Indirect[0] != "fill" || (np == 4 && last != "scale") {
			t.Errorf("np=%d: indirect calls observed %v", np, out.Indirect)
		}
	}
}

// TestReferencesAreNotNumbers: every conversion refuses a reference with the
// same positioned text on both engines, naming it as print would.
func TestReferencesAreNotNumbers(t *testing.T) {
	for src, want := range map[string]string{
		"func f() { }\nfunc main() { var g = &f; var x = g + 1; }\n":        `rank 0: r.mp:2:37: left operand must be a number, got &f`,
		"func main() { var a = alloc(4); if (a) { } }\n":                    `rank 0: r.mp:1:33: condition must be a number, got array[4]`,
		"func main() { var a = alloc(4); a[0] = a; }\n":                     `rank 0: r.mp:1:33: array element must be a number, got array[4]`,
		"func f() { }\nfunc main() { var a = alloc(1); a[&f] = 1; }\n":      `rank 0: r.mp:2:33: index must be a number, got &f`,
		"func main() { var x = sqrt(0-1); x(1); }\n":                        `rank 0: r.mp:1:34: "x" does not hold a function reference`,
		"func main() { var x = 0*exp(1000); var y = x[0]; }\n":              `rank 0: r.mp:1:44: "x" is not an array`,
		"func f() { }\nfunc main() { var g = &f; var n = len(g); }\n":       `rank 0: r.mp:2:35: len of non-array`,
		"func f() { }\nfunc main() { var a = alloc(2); a(1); var g = &f; }": `rank 0: r.mp:2:33: "a" does not hold a function reference`,
	} {
		prog := minilang.MustParse("r.mp", src)
		if _, err := runBoth(t, prog, psg.MustBuild(prog), 1); err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %q", src, err, want)
		}
	}
}

// TestArrayBudgetFailsTheRank: a rank's arrays are charged, elements plus
// one an array, to vm.MaxArrayElems by both engines (runBoth compares the
// text), so an alloc the host could not serve — or one whose length is no
// length at all — is a positioned rank error that reads the same everywhere.
func TestArrayBudgetFailsTheRank(t *testing.T) {
	over := func(n string) string {
		return fmt.Sprintf("alloc of %s elements exceeds what is left of the rank's array budget of %d", n, vm.MaxArrayElems)
	}
	for src, want := range map[string]string{
		"func main() { var a = alloc(1000000000000); }\n":                                         "1:23: " + over("1e+12"),
		"func main() { var a = alloc(1e300); }\n":                                                 "1:23: " + over("1e+300"),
		"func main() { var a = alloc(sqrt(0-1)); }\n":                                             "1:23: " + over("NaN"),
		"func main() { var a = alloc(exp(1000)); }\n":                                             "1:23: " + over("+Inf"),
		"func main() { var a = alloc(0-exp(1000)); }\n":                                           "1:23: alloc of negative length -Inf",
		"func main() { var a = alloc(0-1e300); }\n":                                               "1:23: alloc of negative length " + fmt.Sprintf("%.0f", -1e300),
		"func main() { var a = alloc(0-3.5); }\n":                                                 "1:23: alloc of negative length -3",
		"func main() {\n\tfor (var i = 0; i >= 0; i = i + 1) {\n\t\tvar a = alloc(31);\n\t}\n}":   "3:11: " + over("31"),
		"func main() {\n\twhile (1) {\n\t\tvar a = alloc(0);\n\t}\n}":                             "3:11: " + over("0"),
		fmt.Sprintf("func main() { var a = alloc(%d); var b = alloc(0); }\n", vm.MaxArrayElems-1): "1:45: " + over("0"),
	} {
		prog := minilang.MustParse("r.mp", src)
		_, err := runBoth(t, prog, psg.MustBuild(prog), 2)
		if want = "rank 0: r.mp:" + want; err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %q", src, err, want)
		}
	}
	// Up to the budget a program runs, fractional and -0.x lengths truncated.
	out, _ := mustRunBoth(t, fmt.Sprintf(`func main() {
	var a = alloc(%d);
	a[len(a) - 1] = 7;
	print(a, alloc(0 - 0.9), alloc(2.9), a[len(a) - 1]);
}`, vm.MaxArrayElems-6), 1)
	if want := fmt.Sprintf("[rank 0] array[%d] array[0] array[2] 7\n", vm.MaxArrayElems-6); out.Stdout != want {
		t.Errorf("output %q, want %q", out.Stdout, want)
	}
}
