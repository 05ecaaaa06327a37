package vm

import (
	"fmt"
	"testing"

	"scalana/internal/minilang"
	"scalana/internal/psg"
)

// No program can reach missingTarget — that is the invariant — so it is
// called directly. Each panic must carry the text the interpreter's
// evalCall would: "<pos>: " + its own unknown-function message, or
// "<pos>: " + the psg.ResolveIndirect error.
func TestMissingTargetPanicsLikeTheInterpreter(t *testing.T) {
	prog := minilang.MustParse("t.mp", `
func a(x) { return x + 1; }
func never(x) { return x; }
func main() {
	var f = &a;
	var y = f(1);
}`)
	graph := psg.MustBuild(prog)
	p, err := Compile(prog, graph)
	if err != nil {
		t.Fatal(err)
	}
	is := p.main.code.indirects[0]
	_, neverErr := graph.ResolveIndirect(graph.Main, is.node, "never")
	if neverErr == nil {
		t.Fatal("ResolveIndirect materialized a never-address-taken target")
	}
	before := graph.NumVIDs()
	for target, want := range map[string]string{
		"nosuch": `t.mp:6:10: indirect call to unknown function "nosuch"`,
		"never":  "t.mp:6:10: " + neverErr.Error(),
	} {
		got := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			p.missingTarget(p.main, 0, target)
			return ""
		}()
		if got != want {
			t.Errorf("missingTarget(%q) panicked with %q, want %q", target, got, want)
		}
	}
	if graph.NumVIDs() != before {
		t.Errorf("missingTarget grew the graph: %d -> %d VIDs", before, graph.NumVIDs())
	}
}
