package minilang_test

import (
	"testing"

	"scalana/internal/apps"
	"scalana/internal/minilang"
)

// TestTokenizeAllocs: the lexer reads the source in place, so tokenizing
// zeusmp's source is one allocation, the token slice (283 when every
// identifier and number grew a strings.Builder of its own over a []rune
// copy of the source).
func TestTokenizeAllocs(t *testing.T) {
	src := apps.Get("zeusmp").Source
	allocs := testing.AllocsPerRun(20, func() {
		if _, errs := minilang.Tokenize("zeusmp.mp", src); len(errs) != 0 {
			t.Fatal(errs)
		}
	})
	if allocs != 1 {
		t.Errorf("tokenizing zeusmp allocates %.0f objects, want 1", allocs)
	}
}
