package ir

import (
	"strings"
	"testing"

	"scalana/internal/apps"
	"scalana/internal/minilang"
)

func lintSrc(t *testing.T, src string) []ScaleFinding {
	t.Helper()
	prog, err := minilang.Parse("t.mp", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return LintScaledCollectives(prog)
}

func TestScaleLintDirectCollective(t *testing.T) {
	findings := lintSrc(t, `
func main() {
	var np = mpi_size();
	for (var i = 0; i < np; i = i + 1) {
		mpi_allreduce(8);
	}
}
`)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Collective != "mpi_allreduce" || f.Func != "main" || f.Depth != 1 || len(f.Via) != 0 {
		t.Errorf("unexpected finding: %+v", f)
	}
	if f.Pos.Line != 5 {
		t.Errorf("collective reported at line %d, want 5", f.Pos.Line)
	}
}

func TestScaleLintTransitiveThroughCall(t *testing.T) {
	findings := lintSrc(t, `
func sync_step() {
	mpi_barrier();
}
func main() {
	var n = mpi_size() * 2;
	var j = 0;
	while (j < n) {
		sync_step();
		j = j + 1;
	}
}
`)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Collective != "mpi_barrier" || f.Func != "main" {
		t.Errorf("unexpected finding: %+v", f)
	}
	if len(f.Via) != 1 || f.Via[0] != "sync_step" {
		t.Errorf("via chain = %v, want [sync_step]", f.Via)
	}
	if !strings.Contains(f.String(), "via sync_step()") {
		t.Errorf("rendered finding should show the call chain: %s", f)
	}
}

// TestScaleLintViaChainIsPinned: step calls three functions, two of
// which reach a collective two calls deep. The chain reported is the
// first callee, in sorted order, already known to reach a collective when
// step is visited in declaration order: mid_b (declared before step),
// not mid_a (declared after it), even though "mid_a" sorts first.
func TestScaleLintViaChainIsPinned(t *testing.T) {
	findings := lintSrc(t, `
func zeta() { mpi_barrier(); }
func leaf() { mpi_allreduce(8); }
func mid_b() { zeta(); zeta(); }
func step() {
	helper();
	mid_b();
	mid_a();
}
func mid_a() { compute(1e3, 1e2, 1e1, 64); leaf(); }
func helper() { var x = 1; }
func main() {
	var np = mpi_size();
	for (var i = 0; i < np; i = i + 1) {
		step();
	}
}
`)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	want := "main: mpi_barrier at t.mp:2:15 inside np-dependent loop at t.mp:14:2 (depth 1) via step() mid_b() zeta()"
	if got := f.String(); got != want {
		t.Errorf("finding = %s\nwant      %s", got, want)
	}
}

func TestScaleLintNestedDepth(t *testing.T) {
	// The np-dependent loop is the inner one; the finding must attribute
	// the collective to it with its real nesting depth.
	findings := lintSrc(t, `
func main() {
	var np = mpi_size();
	for (var it = 0; it < 10; it = it + 1) {
		for (var r = 0; r < np; r = r + 1) {
			mpi_bcast(0, 1024);
		}
	}
}
`)
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	if findings[0].Depth != 2 {
		t.Errorf("depth = %d, want 2 (inner np loop)", findings[0].Depth)
	}
}

func TestScaleLintCleanPatterns(t *testing.T) {
	// Fixed trip counts, collectives outside loops, and p2p inside np
	// loops are all legal: only np-scaled collectives are findings.
	findings := lintSrc(t, `
func main() {
	var np = mpi_size();
	for (var it = 0; it < 100; it = it + 1) {
		compute(1e6, 1e4, 1e3, 65536);
	}
	for (var s = 1; s < np; s = s * 2) {
		mpi_sendrecv(s, 0, 1024, s, 0, 1024);
	}
	mpi_allreduce(8);
}
`)
	if len(findings) != 0 {
		t.Fatalf("got %d findings, want 0: %v", len(findings), findings)
	}
}

// TestScaleLintBundledWorkloads runs the lint over every bundled app:
// none of them puts a collective inside an np-dependent loop (butterfly
// exchanges use sendrecv), so all must come back clean. This doubles as
// a determinism check on a real program corpus.
func TestScaleLintBundledWorkloads(t *testing.T) {
	for _, name := range apps.Names() {
		prog, err := apps.Get(name).Parse()
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if findings := LintScaledCollectives(prog); len(findings) != 0 {
			t.Errorf("%s: unexpected findings: %v", name, findings)
		}
	}
}
