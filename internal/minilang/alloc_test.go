package minilang_test

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

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

// TestTokenizeGrowthIsBounded: past its up-front size the token slice
// doubles, so tokenizing a long program allocates about twice the final
// slice's bytes in all, not the 4.96 times of growing it by a quarter at a
// time.
func TestTokenizeGrowthIsBounded(t *testing.T) {
	const n = 1_000_000
	src := strings.Repeat("a ", n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	toks, errs := minilang.Tokenize("a.mp", src)
	runtime.ReadMemStats(&after)
	if len(errs) != 0 || len(toks) != n+1 {
		t.Fatalf("%d tokens and errors %v, want %d tokens and none", len(toks), errs, n+1)
	}
	final := float64(cap(toks)) * float64(unsafe.Sizeof(toks[0]))
	if ratio := float64(after.TotalAlloc-before.TotalAlloc) / final; ratio > 2.5 {
		t.Errorf("tokenizing %d tokens allocates %.2f times the final slice's %.1f MB, want at most 2.5", n, ratio, final/1e6)
	}
}
